#include "core/observation.h"

#include <algorithm>
#include <cmath>

#include "sched/easy_backfill.h"

namespace rlbf::core {

namespace {
constexpr double kWeek = 7.0 * 24.0 * 3600.0;

double log_scale(double seconds) {
  return std::log1p(std::max(seconds, 0.0)) / std::log1p(kWeek);
}

/// The whole pending queue sorted by submit time (paper §3.2; the
/// observations cut it off FCFS-style). Sorted once per decision into
/// ctx.cache, so the policy and value views of one decision share it;
/// the simulator invalidates the slot before every decision.
const std::vector<std::size_t>& submit_order(const sim::BackfillContext& ctx) {
  if (const std::vector<std::size_t>* cached = ctx.cache.sorted_queue()) return *cached;
  std::vector<std::size_t>& q = ctx.cache.mutable_sorted_queue();
  // The cache lives for one simulation; sizing it for the whole trace on
  // its first use keeps a deepening queue from reallocating it.
  if (q.capacity() < ctx.trace.size()) q.reserve(ctx.trace.size());
  q.assign(ctx.queue.begin(), ctx.queue.end());
  const auto by_submit = [&](std::size_t a, std::size_t b) {
    return ctx.trace[a].submit_time < ctx.trace[b].submit_time;
  };
  // A queue already in submit order (FCFS) is its own stable sort.
  if (!std::is_sorted(q.begin(), q.end(), by_submit)) {
    std::stable_sort(q.begin(), q.end(), by_submit);
  }
  return q;
}

/// The synthetic stop row of a zeroed buffer: the free fraction (when
/// feature 6 is enabled) and the stop indicator (feature 8, which the
/// builder requires with stop_action).
void fill_stop_row(double* row, const sim::BackfillContext& ctx,
                   const ObservationConfig& config) {
  if (config.feature_enabled(6)) row[6] = ctx.cluster.free_fraction();
  row[8] = 1.0;
}
}  // namespace

bool PolicyObservation::any_selectable() const {
  return std::any_of(mask.begin(), mask.end(), [](std::uint8_t m) { return m != 0; });
}

ObservationBuilder::ObservationBuilder(const ObservationConfig& config)
    : config_(config) {
  if (config.stop_action && !config.feature_enabled(8)) {
    throw std::invalid_argument(
        "ObservationConfig: the stop-row indicator (feature 8) cannot be "
        "disabled while stop_action is on");
  }
}

void ObservationBuilder::fill_row(double* row, std::size_t job_index,
                                  const sim::BackfillContext& ctx) const {
  const swf::Job& job = ctx.trace[job_index];
  const double wt = static_cast<double>(std::max<std::int64_t>(ctx.now - job.submit_time, 0));
  const double rt = static_cast<double>(std::max<std::int64_t>(job.request_time(), 1));
  // The estimate and the log-scaled per-job features are pure functions
  // of the job, so the per-simulation cache memoizes them; the cached
  // values are the identical bits the direct computation yields. Both
  // are strictly positive (rt, est >= 1), so < 0 marks an empty slot.
  const double est = static_cast<double>(sim::context_estimate(ctx, job_index));
  double& log_rt = ctx.cache.log_request_slot(job_index);
  if (log_rt < 0.0) log_rt = log_scale(rt);
  double& log_est = ctx.cache.log_estimate_slot(job_index);
  if (log_est < 0.0) log_est = log_scale(est);
  const double shadow_gap =
      static_cast<double>(std::max<std::int64_t>(ctx.reservation.shadow_time - ctx.now, 1));
  const double slack = std::clamp((shadow_gap - est) / shadow_gap, -1.0, 1.0);
  row[0] = log_scale(wt);
  row[1] = log_rt;
  row[2] = static_cast<double>(job.procs()) /
           static_cast<double>(ctx.trace.machine_procs());
  row[3] = ctx.cluster.can_fit(job.procs()) ? 1.0 : 0.0;
  row[4] = log_est;
  row[5] = slack;
  row[6] = ctx.cluster.free_fraction();
  row[7] = (job_index == ctx.rjob) ? 1.0 : 0.0;
  const double free_procs =
      std::max(static_cast<double>(ctx.cluster.free_procs()), 1.0);
  row[9] = std::min(static_cast<double>(job.procs()) / free_procs, 1.0);
  if (config_.feature_mask != 0x3FF) {
    for (std::size_t f = 0; f < ObservationConfig::kFeatures; ++f) {
      if (!config_.feature_enabled(f)) row[f] = 0.0;
    }
  }
}

void ObservationBuilder::build_policy_into(const sim::BackfillContext& ctx,
                                           PolicyObservation& po,
                                           bool admissible_only) const {
  const std::vector<std::size_t>& queue = submit_order(ctx);
  const std::size_t observed = std::min(queue.size(), config_.max_obsv_size);
  const std::size_t rows = config_.pad_policy_obs
                               ? config_.padded_policy_rows()
                               : observed + (config_.stop_action ? 1 : 0);
  constexpr std::size_t kF = ObservationConfig::kFeatures;

  po.obs.assign(rows, kF, 0.0);
  po.mask.assign(rows, 0);
  po.row_to_candidate.assign(rows, kNoCandidate);
  double* obs = po.obs.data().data();

  if (config_.stop_action) {
    // The stop row lives at the fixed last index so the flat (padded)
    // policy sees it at a stable position.
    const std::size_t stop_row = rows - 1;
    fill_stop_row(obs + stop_row * kF, ctx, config_);
    po.mask[stop_row] = 1;
    po.row_to_candidate[stop_row] = kStopAction;
  }

  for (std::size_t r = 0; r < observed; ++r) {
    const std::size_t job_idx = queue[r];
    fill_row(obs + r * kF, job_idx, ctx);
    const std::size_t candidate = selectable_candidate(ctx, job_idx, admissible_only);
    if (candidate == kNoCandidate) continue;
    po.mask[r] = 1;
    po.row_to_candidate[r] = candidate;
  }
}

void ObservationBuilder::build_selectable_into(const sim::BackfillContext& ctx,
                                               PolicyObservation& po) const {
  const std::vector<std::size_t>& queue = submit_order(ctx);
  const std::size_t observed = std::min(queue.size(), config_.max_obsv_size);
  constexpr std::size_t kF = ObservationConfig::kFeatures;

  // First pass: the selectable rows' candidates, in submit order. A
  // selectable row's job is ctx.candidates[candidate], so the second
  // pass needs no other record of which rows were kept.
  po.row_to_candidate.clear();
  for (std::size_t r = 0; r < observed; ++r) {
    const std::size_t candidate = selectable_candidate(ctx, queue[r], false);
    if (candidate != kNoCandidate) po.row_to_candidate.push_back(candidate);
  }
  const std::size_t kept = po.row_to_candidate.size();
  const std::size_t rows = kept + (config_.stop_action ? 1 : 0);

  po.obs.assign(rows, kF, 0.0);
  po.mask.assign(rows, 1);
  double* obs = po.obs.data().data();
  for (std::size_t r = 0; r < kept; ++r) {
    fill_row(obs + r * kF, ctx.candidates[po.row_to_candidate[r]], ctx);
  }
  if (config_.stop_action) {
    fill_stop_row(obs + kept * kF, ctx, config_);
    po.row_to_candidate.push_back(kStopAction);
  }
}

std::size_t ObservationBuilder::selectable_candidate(const sim::BackfillContext& ctx,
                                                     std::size_t job_idx,
                                                     bool admissible_only) const {
  if (job_idx == ctx.rjob) return kNoCandidate;  // present but never selectable
  const auto it = std::find(ctx.candidates.begin(), ctx.candidates.end(), job_idx);
  if (it == ctx.candidates.end()) return kNoCandidate;  // does not fit right now
  if ((admissible_only || config_.mask_inadmissible) &&
      !sched::EasyBackfillChooser::admissible_with_estimate(
          ctx.trace[job_idx], ctx.reservation, sim::context_estimate(ctx, job_idx),
          ctx.now)) {
    return kNoCandidate;
  }
  return static_cast<std::size_t>(std::distance(ctx.candidates.begin(), it));
}

PolicyObservation ObservationBuilder::build_policy(const sim::BackfillContext& ctx,
                                                   bool admissible_only) const {
  PolicyObservation po;
  build_policy_into(ctx, po, admissible_only);
  return po;
}

nn::Tensor ObservationBuilder::build_value(const sim::BackfillContext& ctx) const {
  const std::vector<std::size_t>& queue = submit_order(ctx);
  const std::size_t observed = std::min(queue.size(), config_.value_obsv_size);
  nn::Tensor jobs(1, config_.value_feature_dim());
  for (std::size_t r = 0; r < observed; ++r) {
    fill_row(jobs.data().data() + r * ObservationConfig::kFeatures, queue[r], ctx);
  }
  return jobs;
}

}  // namespace rlbf::core
