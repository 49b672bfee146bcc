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

std::vector<std::size_t> ObservationBuilder::observed_queue(
    const sim::BackfillContext& ctx, std::size_t limit) const {
  // Paper §3.2: sort by submission time; cut off FCFS-style. The sort
  // always covers the full queue before truncating, so one sorted copy
  // per decision serves both the policy view (max_obsv_size) and the
  // value view (value_obsv_size); the simulator invalidates the cache
  // slot before every decision.
  std::vector<std::size_t> q;
  if (const std::vector<std::size_t>* cached = ctx.cache.sorted_queue()) {
    q = *cached;
  } else {
    q.assign(ctx.queue.begin(), ctx.queue.end());
    std::stable_sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
      return ctx.trace[a].submit_time < ctx.trace[b].submit_time;
    });
    ctx.cache.mutable_sorted_queue() = q;
  }
  if (q.size() > limit) q.resize(limit);
  return q;
}

void ObservationBuilder::fill_row(nn::Tensor& obs, std::size_t row,
                                  std::size_t job_index,
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
  obs.at(row, 0) = log_scale(wt);
  obs.at(row, 1) = log_rt;
  obs.at(row, 2) = static_cast<double>(job.procs()) /
                   static_cast<double>(ctx.trace.machine_procs());
  obs.at(row, 3) = ctx.cluster.can_fit(job.procs()) ? 1.0 : 0.0;
  obs.at(row, 4) = log_est;
  obs.at(row, 5) = slack;
  obs.at(row, 6) = ctx.cluster.free_fraction();
  obs.at(row, 7) = (job_index == ctx.rjob) ? 1.0 : 0.0;
  const double free_procs =
      std::max(static_cast<double>(ctx.cluster.free_procs()), 1.0);
  obs.at(row, 9) = std::min(static_cast<double>(job.procs()) / free_procs, 1.0);
  if (config_.feature_mask != 0x3FF) {
    for (std::size_t f = 0; f < ObservationConfig::kFeatures; ++f) {
      if (!config_.feature_enabled(f)) obs.at(row, f) = 0.0;
    }
  }
}

PolicyObservation ObservationBuilder::build_policy(const sim::BackfillContext& ctx,
                                                   bool admissible_only) const {
  const std::vector<std::size_t> observed = observed_queue(ctx, config_.max_obsv_size);
  const std::size_t rows = config_.pad_policy_obs
                               ? config_.padded_policy_rows()
                               : observed.size() + (config_.stop_action ? 1 : 0);

  PolicyObservation po;
  po.obs = nn::Tensor::zeros(rows, ObservationConfig::kFeatures);
  po.mask.assign(rows, 0);
  po.row_to_candidate.assign(rows, kNoCandidate);

  if (config_.stop_action) {
    // The stop row lives at the fixed last index so the flat (padded)
    // policy sees it at a stable position.
    const std::size_t stop_row = rows - 1;
    po.obs.at(stop_row, 6) = ctx.cluster.free_fraction();
    po.obs.at(stop_row, 8) = 1.0;
    po.mask[stop_row] = 1;
    po.row_to_candidate[stop_row] = kStopAction;
  }

  for (std::size_t r = 0; r < observed.size(); ++r) {
    const std::size_t job_idx = observed[r];
    fill_row(po.obs, r, job_idx, ctx);
    if (job_idx == ctx.rjob) continue;  // present but never selectable
    const auto it = std::find(ctx.candidates.begin(), ctx.candidates.end(), job_idx);
    if (it == ctx.candidates.end()) continue;  // does not fit right now
    if ((admissible_only || config_.mask_inadmissible) &&
        !sched::EasyBackfillChooser::admissible_with_estimate(
            ctx.trace[job_idx], ctx.reservation,
            sim::context_estimate(ctx, job_idx), ctx.now)) {
      continue;
    }
    po.mask[r] = 1;
    po.row_to_candidate[r] =
        static_cast<std::size_t>(std::distance(ctx.candidates.begin(), it));
  }
  return po;
}

nn::Tensor ObservationBuilder::build_value(const sim::BackfillContext& ctx) const {
  const std::vector<std::size_t> observed =
      observed_queue(ctx, config_.value_obsv_size);
  nn::Tensor jobs = nn::Tensor::zeros(config_.value_obsv_size,
                                      ObservationConfig::kFeatures);
  for (std::size_t r = 0; r < observed.size(); ++r) {
    fill_row(jobs, r, observed[r], ctx);
  }
  return jobs.reshaped(1, config_.value_feature_dim());
}

}  // namespace rlbf::core
