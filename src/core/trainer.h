// The RLBackfilling training loop (paper §4.1.1): per epoch, sample
// `trajectories_per_epoch` random sequences of `jobs_per_trajectory`
// consecutive jobs from the training trace, schedule each with the base
// policy + the sampling TrainingEnv (collected in parallel across a
// thread pool with per-worker model replicas), then run one update of
// the configured algorithm — PPO (80 policy/value iterations, lr 1e-3 by
// default), or the DQN/REINFORCE ablation arms (core/learner.h).
//
// The reward baseline for every sequence — FCFS + SJF-ordered EASY
// backfilling — is simulated once per sequence inside the worker.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/backfill_env.h"
#include "core/learner.h"
#include "obs/series.h"
#include "rl/collect.h"
#include "rl/dqn.h"
#include "rl/ppo.h"
#include "rl/reinforce.h"
#include "sched/scheduler.h"
#include "util/thread_pool.h"

namespace rlbf::core {

struct TrainerConfig {
  std::string base_policy = "FCFS";
  std::size_t epochs = 50;
  std::size_t trajectories_per_epoch = 100;  // paper: 100
  std::size_t jobs_per_trajectory = 256;     // paper: 256
  /// "ppo" (the paper's algorithm) | "dqn" | "reinforce" (ablation A6).
  std::string algorithm = "ppo";
  rl::PpoConfig ppo;                         // paper: 80 iters, lr 1e-3
  /// The non-PPO arms' hyperparameters; only the active algorithm's
  /// block is read.
  rl::DqnConfig dqn;
  rl::ReinforceConfig reinforce;
  EnvConfig env;
  AgentConfig agent;
  std::uint64_t seed = 1;
  /// Collection/update worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;

  /// Every `eval_every` epochs, evaluate the *greedy* policy on held-out
  /// sampled sequences; with keep_best the final agent is the best such
  /// checkpoint (the sampled-policy training reward is a poor proxy for
  /// greedy deployment quality). 0 disables evaluation.
  std::size_t eval_every = 5;
  std::size_t eval_samples = 6;
  std::size_t eval_sample_jobs = 1024;
  bool keep_best = true;
};

struct EpochStats {
  std::size_t epoch = 0;
  double mean_reward = 0.0;        // mean episode return (paper's Fig. 4 y-axis
                                   // is equivalent information as bsld)
  double mean_bsld = 0.0;          // mean agent bsld across trajectories
  double mean_baseline_bsld = 0.0; // mean SJF-backfill baseline bsld
  std::size_t steps = 0;           // decisions collected
  rl::PpoStats ppo;                // PPO update (zero under other algorithms)
  double loss = 0.0;               // TD Huber loss (DQN) / policy loss (REINFORCE)
  /// Exploration rate this epoch (DQN); NaN when the algorithm has none.
  double epsilon = std::numeric_limits<double>::quiet_NaN();
  double wall_seconds = 0.0;
  /// Greedy held-out evaluation bsld; NaN on non-evaluation epochs.
  double eval_bsld = std::numeric_limits<double>::quiet_NaN();
};

class Trainer {
 public:
  /// `trace` is copied; training samples windows from it.
  Trainer(swf::Trace trace, const TrainerConfig& config);
  /// Warm start: fine-tune a copy of `initial` — e.g. a model trained on
  /// another trace (the Table-5 transfer setting) — instead of a fresh
  /// agent. The initial agent's observation/network configuration takes
  /// precedence over config.agent, which is ignored.
  Trainer(swf::Trace trace, const TrainerConfig& config, const Agent& initial);

  /// Collect one epoch of trajectories and run one learner update.
  EpochStats run_epoch();

  /// Run config.epochs epochs; `on_epoch` (optional) observes progress.
  /// With keep_best, the agent is restored to the best greedy checkpoint
  /// before returning.
  std::vector<EpochStats> train(
      const std::function<void(const EpochStats&)>& on_epoch = nullptr);

  /// Greedy evaluation of the current agent over eval_samples held-out
  /// sequences (mean bsld).
  double evaluate_greedy();

  Agent& agent() { return agent_; }
  const Agent& agent() const { return agent_; }
  const TrainerConfig& config() const { return config_; }
  const Learner& learner() const { return *learner_; }

  /// Swap the rollout transport (borrowed; must outlive the trainer).
  /// nullptr restores the default in-process ThreadCollector. The epoch
  /// protocol is transport-independent: seeds are pre-drawn here and
  /// results consumed in sequence order, so any conforming collector
  /// yields byte-identical training.
  void set_collector(rl::Collector* collector) {
    collector_ = collector != nullptr ? collector : &thread_collector_;
  }

  /// Attach a time-series recorder (borrowed; must outlive the
  /// trainer). Each epoch records the train.* curves keyed by epoch
  /// number. nullptr (the default) records nothing — recording is a
  /// pure observer and never alters training.
  void set_series(obs::SeriesRecorder* series) { series_ = series; }

 private:
  /// Record one epoch's train.* points into series_ (no-op when null).
  void record_epoch_series(const EpochStats& s) const;

  swf::Trace trace_;
  TrainerConfig config_;
  Agent agent_;
  std::unique_ptr<sim::PriorityPolicy> policy_;
  sched::RequestTimeEstimator estimator_;
  util::ThreadPool pool_;
  rl::ThreadCollector thread_collector_{pool_};
  rl::Collector* collector_ = &thread_collector_;
  std::unique_ptr<Learner> learner_;
  util::Rng rng_;
  std::size_t epoch_ = 0;
  double best_eval_bsld_ = std::numeric_limits<double>::infinity();
  std::unique_ptr<rl::ActorCritic> best_model_;
  obs::SeriesRecorder* series_ = nullptr;
};

}  // namespace rlbf::core
