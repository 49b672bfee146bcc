#include "core/trainer.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/collection.h"
#include "core/rl_backfill.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace rlbf::core {

namespace {
/// Keep the deployment action space identical to the training action
/// space: a hard-masked agent must mask at deployment too (its policy
/// has never scored an inadmissible candidate), and a penalty-trained
/// agent needs the stop action so it can decline a delaying pick.
AgentConfig reconcile_masking(const TrainerConfig& config) {
  AgentConfig agent = config.agent;
  if (config.env.mask_delaying()) {
    agent.obs.mask_inadmissible = true;
  } else {
    agent.obs.stop_action = true;
  }
  return agent;
}
}  // namespace

Trainer::Trainer(swf::Trace trace, const TrainerConfig& config)
    : Trainer(std::move(trace), config, Agent(reconcile_masking(config), config.seed)) {}

Trainer::Trainer(swf::Trace trace, const TrainerConfig& config, const Agent& initial)
    : trace_(std::move(trace)),
      config_(config),
      agent_(initial.clone()),
      policy_(sched::make_policy(config.base_policy)),
      pool_(config.threads),
      learner_(make_learner(config, agent_.model(), &pool_)),
      rng_(config.seed ^ learner_->rng_salt()) {
  if (trace_.size() < config_.jobs_per_trajectory) {
    throw std::invalid_argument("trainer: trace shorter than one trajectory");
  }
  if (config_.trajectories_per_epoch == 0) {
    throw std::invalid_argument("trainer: zero trajectories per epoch");
  }
}

EpochStats Trainer::run_epoch() {
  obs::Span span("train_epoch", "train");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n_traj = config_.trajectories_per_epoch;

  // Pre-draw the per-trajectory seeds on the main thread so the epoch is
  // deterministic regardless of worker interleaving.
  rl::CollectionPlan plan;
  plan.epoch = epoch_ + 1;
  plan.seeds.resize(n_traj);
  for (auto& s : plan.seeds) s = rng_();

  CollectionContext ctx;
  ctx.trace = &trace_;
  ctx.policy = policy_.get();
  ctx.estimator = &estimator_;
  ctx.env = config_.env;
  ctx.jobs_per_trajectory = config_.jobs_per_trajectory;
  learner_->prepare_epoch(ctx.env, plan);
  std::vector<rl::SequenceResult> results =
      collect_sequences(*collector_, plan, ctx, agent_);

  EpochStats stats;
  stats.epoch = ++epoch_;
  stats.epsilon = plan.epsilon;
  double sum_bsld = 0.0, sum_base = 0.0, sum_reward = 0.0;
  for (const auto& r : results) {
    sum_bsld += r.bsld;
    sum_base += r.baseline_bsld;
    sum_reward += r.episode.total_reward();
    stats.steps += r.episode.steps.size();
  }
  const auto n = static_cast<double>(n_traj);
  stats.mean_bsld = sum_bsld / n;
  stats.mean_baseline_bsld = sum_base / n;
  stats.mean_reward = sum_reward / n;

  learner_->update(results, rng_, stats);
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (obs::enabled()) {
    obs::counter("rl.epochs").add(1);
    obs::histogram("rl.epoch_seconds").observe(stats.wall_seconds);
  }
  return stats;
}

double Trainer::evaluate_greedy() {
  // Fixed seeds: every evaluation sees the same held-out sequences, so
  // checkpoint comparisons are apples-to-apples.
  util::Rng eval_rng(config_.seed ^ 0x6772656564790ull);
  sched::RequestTimeEstimator estimator;
  double sum = 0.0;
  for (std::size_t s = 0; s < config_.eval_samples; ++s) {
    const std::size_t jobs = std::min(config_.eval_sample_jobs, trace_.size());
    const swf::Trace seq = trace_.sample(jobs, eval_rng);
    RlBackfillChooser chooser(agent_);
    const auto outcome = sched::run_schedule(seq, *policy_, estimator, &chooser);
    sum += objective_value(config_.env.objective, outcome.results);
  }
  return sum / static_cast<double>(std::max<std::size_t>(config_.eval_samples, 1));
}

void Trainer::record_epoch_series(const EpochStats& s) const {
  if (series_ == nullptr) return;
  const auto step = static_cast<std::int64_t>(s.epoch);
  learner_->record_series(*series_, s);
  series_->record("train.mean_reward", step, s.mean_reward);
  series_->record("train.mean_bsld", step, s.mean_bsld);
  series_->record("train.baseline_bsld", step, s.mean_baseline_bsld);
  // Sparse series: the greedy evaluation only runs every eval_every
  // epochs, so non-evaluation epochs contribute no point rather than a
  // misleading NaN.
  if (!std::isnan(s.eval_bsld)) {
    series_->record("train.eval_bsld", step, s.eval_bsld);
  }
}

std::vector<EpochStats> Trainer::train(
    const std::function<void(const EpochStats&)>& on_epoch) {
  std::vector<EpochStats> history;
  history.reserve(config_.epochs);
  for (std::size_t e = 0; e < config_.epochs; ++e) {
    history.push_back(run_epoch());
    auto& s = history.back();
    const bool last_epoch = (e + 1 == config_.epochs);
    if (config_.eval_every > 0 &&
        (s.epoch % config_.eval_every == 0 || last_epoch)) {
      s.eval_bsld = evaluate_greedy();
      if (config_.keep_best && s.eval_bsld < best_eval_bsld_) {
        best_eval_bsld_ = s.eval_bsld;
        best_model_ = agent_.model().clone();
      }
    }
    util::log_info(config_.algorithm, " epoch ", s.epoch, " reward=", s.mean_reward,
                   " bsld=", s.mean_bsld, " baseline=", s.mean_baseline_bsld,
                   " steps=", s.steps, " eval=", s.eval_bsld,
                   " wall=", s.wall_seconds, "s");
    record_epoch_series(s);
    if (on_epoch) on_epoch(s);
  }
  if (config_.keep_best && best_model_ != nullptr) {
    agent_.model().sync_from(*best_model_);
    util::log_info(config_.algorithm, ": restored best checkpoint (greedy eval bsld=",
                   best_eval_bsld_, ")");
  }
  return history;
}

}  // namespace rlbf::core
