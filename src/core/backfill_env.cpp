#include "core/backfill_env.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rl/ppo.h"
#include "sched/easy_backfill.h"
#include "sim/metrics.h"

namespace rlbf::core {

double objective_value(RewardObjective objective,
                       const std::vector<sim::JobResult>& results) {
  // Machine size only affects utilization, which no objective reads.
  const sim::ScheduleMetrics m = sim::compute_metrics(results, 1);
  switch (objective) {
    case RewardObjective::BoundedSlowdown: return m.avg_bounded_slowdown;
    case RewardObjective::AvgWaitTime: return m.avg_wait_time;
    case RewardObjective::AvgTurnaround: return m.avg_turnaround;
  }
  throw std::logic_error("unknown reward objective");
}

TrainingEnv::TrainingEnv(Agent& agent, const EnvConfig& config, util::Rng rng)
    : agent_(agent), config_(config), rng_(rng) {}

void TrainingEnv::set_baseline_bsld(double bsld) {
  if (bsld <= 0.0) throw std::invalid_argument("baseline bsld must be positive");
  baseline_bsld_ = bsld;
}

void TrainingEnv::episode_begin(const swf::Trace& trace) {
  (void)trace;
  if (baseline_bsld_ <= 0.0) {
    throw std::logic_error("TrainingEnv: set_baseline_bsld before simulating");
  }
  episode_ = rl::Episode{};
  pending_checks_.clear();
  episode_open_ = true;
  episode_ready_ = false;
}

std::optional<std::size_t> TrainingEnv::choose(const sim::BackfillContext& ctx) {
  if (!episode_open_) throw std::logic_error("TrainingEnv: choose outside episode");
  const PolicyObservation po =
      agent_.observer().build_policy(ctx, /*admissible_only=*/config_.mask_delaying());
  if (!po.any_selectable()) return std::nullopt;

  const nn::Tensor logits = agent_.model().policy_logits_nograd(po.obs);
  // Normalized log-prob of a given row under softmax(logits[mask]);
  // recorded for every selection mode (PPO requires it; for the others
  // it is diagnostic only).
  const auto log_prob_of = [&](std::size_t r) {
    double zmax = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < po.mask.size(); ++i) {
      if (po.mask[i]) zmax = std::max(zmax, logits.at(i, 0));
    }
    double lse = 0.0;
    for (std::size_t i = 0; i < po.mask.size(); ++i) {
      if (po.mask[i]) lse += std::exp(logits.at(i, 0) - zmax);
    }
    return logits.at(r, 0) - (zmax + std::log(lse));
  };

  std::size_t row;
  double log_prob;
  switch (config_.effective_selection()) {
    case ActionSelection::SampleSoftmax: {
      const rl::CategoricalSample s = rl::sample_masked(logits, po.mask, rng_, probs_);
      row = s.action;
      log_prob = s.log_prob;
      break;
    }
    case ActionSelection::EpsilonGreedy: {
      if (rng_.bernoulli(config_.epsilon)) {
        std::vector<std::size_t> valid;
        for (std::size_t i = 0; i < po.mask.size(); ++i) {
          if (po.mask[i]) valid.push_back(i);
        }
        row = valid[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
      } else {
        row = rl::argmax_masked(logits, po.mask);
      }
      log_prob = log_prob_of(row);
      break;
    }
    case ActionSelection::Greedy: {
      row = rl::argmax_masked(logits, po.mask);
      log_prob = log_prob_of(row);
      break;
    }
    default:
      throw std::logic_error("unknown action selection");
  }
  const std::size_t candidate = po.row_to_candidate[row];

  rl::Step step;
  step.policy_obs = po.obs;
  step.mask = po.mask;
  step.action = row;
  step.log_prob = log_prob;
  step.value_obs = agent_.observer().build_value(ctx);
  step.value = agent_.model().value_nograd(step.value_obs);
  step.reward = 0.0;
  if (candidate != kStopAction) {
    if (config_.delay_rule == DelayRule::EstimatePenalty) {
      const std::size_t job_idx = ctx.candidates[candidate];
      if (!sched::EasyBackfillChooser::admissible_with_estimate(
              ctx.trace[job_idx], ctx.reservation,
              sim::context_estimate(ctx, job_idx), ctx.now)) {
        step.reward -= config_.delay_penalty;
      }
    } else if (config_.delay_rule == DelayRule::ActualDelayPenalty) {
      pending_checks_.push_back(
          {episode_.steps.size(), ctx.rjob, ctx.reservation.shadow_time});
    }
  }
  episode_.steps.push_back(std::move(step));
  if (candidate == kStopAction) return std::nullopt;
  return candidate;
}

void TrainingEnv::episode_end(const std::vector<sim::JobResult>& results) {
  if (!episode_open_) throw std::logic_error("TrainingEnv: episode_end without begin");
  // Retroactive actual-delay penalties: charge every pick made while a
  // reserved job that ended up late was blocked.
  for (const auto& check : pending_checks_) {
    if (check.rjob < results.size() &&
        results[check.rjob].start_time > check.shadow_time) {
      episode_.steps[check.step_index].reward -= config_.delay_penalty;
    }
  }
  last_bsld_ = objective_value(config_.objective, results);
  if (!episode_.steps.empty() && last_bsld_ > 0.0) {
    episode_.steps.back().reward +=
        (baseline_bsld_ - last_bsld_) / baseline_bsld_;
  }
  episode_open_ = false;
  episode_ready_ = true;
  baseline_bsld_ = 0.0;  // force the caller to set it again next episode
}

rl::Episode TrainingEnv::take_episode() {
  if (!episode_ready_) throw std::logic_error("TrainingEnv: no finished episode");
  episode_ready_ = false;
  return std::move(episode_);
}

}  // namespace rlbf::core
