// Test-only reference planner: the original quadratic implementation of
// the availability profile and the replan-then-compare chooser that
// conservative and slack backfilling used before the linear sweep and the
// fused compare. The parity tests hold the production planner to exactly
// these answers. Deliberately kept naive — do not optimise it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/conservative_backfill.h"
#include "sim/event_sim.h"

namespace rlbf::sched::reference {

class Profile {
 public:
  struct Segment {
    std::int64_t time;
    std::int64_t free;
  };

  Profile(std::int64_t now, std::int64_t total) : now_(now) {
    if (total <= 0) throw std::invalid_argument("profile: total <= 0");
    breakpoints_.push_back({now, total});
  }

  static Profile from_cluster(const sim::BackfillContext& ctx) {
    Profile profile(ctx.now, ctx.cluster.total_procs());
    for (const auto& r : ctx.cluster.running_jobs()) {
      const std::int64_t est = sim::context_estimate(ctx, r.job_index);
      const std::int64_t est_end = sim::estimated_release(r, est, ctx.now);
      profile.reserve(ctx.now, r.procs, est_end - ctx.now);
    }
    return profile;
  }

  // Every breakpoint time is a candidate start; each is checked against
  // every segment from index 0.
  std::int64_t earliest_start(std::int64_t procs, std::int64_t duration) const {
    if (duration <= 0) duration = 1;
    for (std::size_t i = 0; i < breakpoints_.size(); ++i) {
      const std::int64_t start = std::max(breakpoints_[i].time, now_);
      const std::int64_t end = start + duration;
      bool ok = true;
      for (std::size_t j = 0; j < breakpoints_.size(); ++j) {
        const std::int64_t seg_start = breakpoints_[j].time;
        const std::int64_t seg_end = (j + 1 < breakpoints_.size())
                                         ? breakpoints_[j + 1].time
                                         : std::numeric_limits<std::int64_t>::max();
        if (seg_end <= start) continue;
        if (seg_start >= end) break;
        if (breakpoints_[j].free < procs) {
          ok = false;
          break;
        }
      }
      if (ok) return start;
    }
    throw std::runtime_error("profile: no feasible start (job wider than machine?)");
  }

  void reserve(std::int64_t start, std::int64_t procs, std::int64_t duration) {
    if (duration <= 0) duration = 1;
    const std::int64_t end = start + duration;
    insert_breakpoint(start);
    insert_breakpoint(end);
    for (auto& seg : breakpoints_) {
      if (seg.time >= start && seg.time < end) {
        seg.free -= procs;
        if (seg.free < 0) throw std::runtime_error("profile: negative capacity");
      }
    }
  }

  std::int64_t free_at(std::int64_t t) const {
    return breakpoints_[segment_index(std::max(t, now_))].free;
  }

  const std::vector<Segment>& breakpoints() const { return breakpoints_; }

 private:
  std::vector<Segment> breakpoints_;
  std::int64_t now_;

  std::size_t segment_index(std::int64_t t) const {
    std::size_t lo = 0;
    for (std::size_t i = 0; i < breakpoints_.size(); ++i) {
      if (breakpoints_[i].time <= t) lo = i;
      else break;
    }
    return lo;
  }

  void insert_breakpoint(std::int64_t t) {
    const std::size_t i = segment_index(t);
    if (breakpoints_[i].time == t) return;
    breakpoints_.insert(breakpoints_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                        {t, breakpoints_[i].free});
  }
};

inline std::vector<std::int64_t> plan_starts(Profile profile,
                                             const std::vector<std::size_t>& order,
                                             const sim::BackfillContext& ctx) {
  std::vector<std::int64_t> starts;
  for (const std::size_t idx : order) {
    const auto& job = ctx.trace[idx];
    const std::int64_t dur = sim::context_estimate(ctx, idx);
    const std::int64_t s = profile.earliest_start(job.procs(), dur);
    profile.reserve(s, job.procs(), dur);
    starts.push_back(s);
  }
  return starts;
}

/// Plans the whole rest of the queue for every candidate, then compares.
inline std::optional<std::size_t> choose_with_allowance(
    const sim::BackfillContext& ctx,
    const std::function<std::int64_t(std::size_t)>& allowance) {
  const Profile base = Profile::from_cluster(ctx);
  const std::vector<std::int64_t> baseline = plan_starts(base, ctx.queue, ctx);
  for (std::size_t c = 0; c < ctx.candidates.size(); ++c) {
    const std::size_t cand = ctx.candidates[c];
    Profile with_cand = base;
    with_cand.reserve(ctx.now, ctx.trace[cand].procs(), sim::context_estimate(ctx, cand));
    std::vector<std::size_t> rest;
    std::vector<std::int64_t> rest_baseline;
    for (std::size_t q = 0; q < ctx.queue.size(); ++q) {
      if (ctx.queue[q] == cand) continue;
      rest.push_back(ctx.queue[q]);
      rest_baseline.push_back(baseline[q]);
    }
    const std::vector<std::int64_t> with_starts = plan_starts(with_cand, rest, ctx);
    bool delays = false;
    for (std::size_t q = 0; q < rest.size(); ++q) {
      if (with_starts[q] > rest_baseline[q] + allowance(rest[q])) {
        delays = true;
        break;
      }
    }
    if (!delays) return c;
  }
  return std::nullopt;
}

/// Reference conservative (slack_factor = fixed_slack = 0) or slack chooser.
class Chooser final : public sim::BackfillChooser {
 public:
  Chooser(double slack_factor, std::int64_t fixed_slack)
      : slack_(slack_factor, fixed_slack) {}

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override {
    return choose_with_allowance(ctx, [&](std::size_t idx) {
      return slack_.allowance_from_estimate(sim::context_estimate(ctx, idx));
    });
  }
  std::string name() const override { return "REF"; }

 private:
  SlackBackfillChooser slack_;  // only for its allowance formula
};

}  // namespace rlbf::sched::reference
