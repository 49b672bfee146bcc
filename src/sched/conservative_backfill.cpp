#include "sched/conservative_backfill.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rlbf::sched {

AvailabilityProfile::AvailabilityProfile(std::int64_t now, std::int64_t total)
    : now_(now) {
  if (total <= 0) throw std::invalid_argument("profile: total <= 0");
  breakpoints_.push_back({now, total});
}

AvailabilityProfile AvailabilityProfile::from_cluster(
    const sim::ClusterState& cluster, const swf::Trace& trace,
    const sim::RuntimeEstimator& estimator, std::int64_t now,
    sim::FeatureCache& cache) {
  AvailabilityProfile profile(now, cluster.total_procs());
  for (const auto& r : cluster.running_jobs()) {
    const std::int64_t est = cache.estimate(estimator, trace, r.job_index);
    // Snapshot-only estimated view; see sim::estimated_release.
    const std::int64_t est_end = sim::estimated_release(r, est, now);
    profile.reserve(now, r.procs, est_end - now);
  }
  return profile;
}

std::size_t AvailabilityProfile::segment_index(std::int64_t t) const {
  // Last breakpoint with time <= t; t >= now_ is a precondition.
  const auto after = std::upper_bound(
      breakpoints_.begin(), breakpoints_.end(), t,
      [](std::int64_t value, const Segment& seg) { return value < seg.time; });
  if (after == breakpoints_.begin()) return 0;
  return static_cast<std::size_t>(after - breakpoints_.begin()) - 1;
}

std::size_t AvailabilityProfile::insert_breakpoint(std::int64_t t) {
  const std::size_t i = segment_index(t);
  if (breakpoints_[i].time == t) return i;
  breakpoints_.insert(breakpoints_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      {t, breakpoints_[i].free});
  return i + 1;
}

std::int64_t AvailabilityProfile::earliest_start(std::int64_t procs,
                                                 std::int64_t duration) const {
  if (duration <= 0) duration = 1;
  // Only breakpoint times can be optimal starts: between breakpoints the
  // free level is constant, so feasibility cannot improve. The window
  // from breakpoint i covers segments i..k, the last with time < end.
  // If segment j in it is too narrow, every start i..j overlaps j too
  // (each begins no later than t_j and ends no earlier than
  // t_i + duration > t_j), so the sweep resumes at j + 1 and visits each
  // segment once.
  const std::size_t n = breakpoints_.size();
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t end = breakpoints_[i].time + duration;
    std::size_t j = i;
    while (j < n && breakpoints_[j].time < end && breakpoints_[j].free >= procs) ++j;
    if (j == n || breakpoints_[j].time >= end) return breakpoints_[i].time;
    i = j + 1;
  }
  throw std::runtime_error("profile: no feasible start (job wider than machine?)");
}

void AvailabilityProfile::reserve(std::int64_t start, std::int64_t procs,
                                  std::int64_t duration) {
  if (start < now_) {
    throw std::invalid_argument("profile: reserve start " + std::to_string(start) +
                                " is before now " + std::to_string(now_));
  }
  if (duration <= 0) duration = 1;
  const std::int64_t end = start + duration;
  const std::size_t first = insert_breakpoint(start);
  insert_breakpoint(end);  // lands after `first`, which stays valid
  for (std::size_t i = first; i < breakpoints_.size() && breakpoints_[i].time < end;
       ++i) {
    breakpoints_[i].free -= procs;
    if (breakpoints_[i].free < 0) throw std::runtime_error("profile: negative capacity");
  }
}

std::int64_t AvailabilityProfile::free_at(std::int64_t t) const {
  return breakpoints_[segment_index(std::max(t, now_))].free;
}

std::vector<std::int64_t> plan_starts(AvailabilityProfile profile,
                                      const std::vector<std::size_t>& order,
                                      const sim::BackfillContext& ctx) {
  std::vector<std::int64_t> starts;
  starts.reserve(order.size());
  for (const std::size_t idx : order) {
    const auto& job = ctx.trace[idx];
    const std::int64_t dur = sim::context_estimate(ctx, idx);
    const std::int64_t s = profile.earliest_start(job.procs(), dur);
    profile.reserve(s, job.procs(), dur);
    starts.push_back(s);
  }
  return starts;
}

namespace {

/// Shared plan-and-compare core: admit the first candidate that delays
/// no queued job's planned start by more than its allowance. The
/// allowance receives the queued job's trace index so it can use the
/// context's memoized estimates; it is evaluated once per queued job per
/// decision. Each candidate's replan compares as it goes and stops at
/// the first job past its limit.
template <class Allowance>
std::optional<std::size_t> choose_with_allowance(const sim::BackfillContext& ctx,
                                                 const Allowance& allowance) {
  const AvailabilityProfile base = AvailabilityProfile::from_cluster(
      ctx.cluster, ctx.trace, ctx.estimator, ctx.now, ctx.cache);

  // Baseline plan: every queued job packed in priority order (this is
  // where a job wider than the machine throws). limit[q] is the latest
  // start queue[q] may be pushed to.
  std::vector<std::int64_t> limit = plan_starts(base, ctx.queue, ctx);
  for (std::size_t q = 0; q < ctx.queue.size(); ++q) limit[q] += allowance(ctx.queue[q]);

  AvailabilityProfile with_cand = base;  // one buffer, reused per candidate
  for (std::size_t c = 0; c < ctx.candidates.size(); ++c) {
    const std::size_t cand = ctx.candidates[c];
    // Plan again with the candidate running *now*; the rest of the queue
    // (minus the candidate) must stay within its delay allowance.
    with_cand = base;
    with_cand.reserve(ctx.now, ctx.trace[cand].procs(), sim::context_estimate(ctx, cand));
    bool delays = false;
    for (std::size_t q = 0; q < ctx.queue.size() && !delays; ++q) {
      const std::size_t idx = ctx.queue[q];
      if (idx == cand) continue;
      const std::int64_t procs = ctx.trace[idx].procs();
      const std::int64_t dur = sim::context_estimate(ctx, idx);
      const std::int64_t s = with_cand.earliest_start(procs, dur);
      if (s > limit[q]) {
        delays = true;
      } else {
        with_cand.reserve(s, procs, dur);
      }
    }
    if (!delays) return c;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::size_t> ConservativeBackfillChooser::choose(
    const sim::BackfillContext& ctx) {
  return choose_with_allowance(ctx, [](std::size_t) { return std::int64_t{0}; });
}

SlackBackfillChooser::SlackBackfillChooser(double slack_factor,
                                           std::int64_t fixed_slack)
    : slack_factor_(slack_factor), fixed_slack_(fixed_slack) {
  if (slack_factor < 0.0 || fixed_slack < 0) {
    throw std::invalid_argument("slack backfilling: negative slack");
  }
}

std::int64_t SlackBackfillChooser::allowance_from_estimate(
    std::int64_t estimate) const {
  const double proportional = slack_factor_ * static_cast<double>(estimate);
  return fixed_slack_ + static_cast<std::int64_t>(proportional);
}

std::optional<std::size_t> SlackBackfillChooser::choose(
    const sim::BackfillContext& ctx) {
  return choose_with_allowance(ctx, [&](std::size_t idx) {
    return allowance_from_estimate(sim::context_estimate(ctx, idx));
  });
}

}  // namespace rlbf::sched
