// Shared plumbing for the table/figure benches: CLI flags, trace
// construction, agent training with an on-disk cache (so table4/table5
// reuse the same trained models), and the paper's evaluation protocol
// (mean bsld over N random 1024-job samples, fresh seeds per sample).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/rl_backfill.h"
#include "core/trainer.h"
#include "exp/scenario.h"
#include "model/train.h"
#include "sched/scheduler.h"
#include "workload/presets.h"

namespace rlbf::bench {

struct BenchArgs {
  std::size_t trace_jobs = 10000;   // paper: first 10K jobs per trace
  std::size_t epochs = 60;          // training epochs per agent
  std::size_t trajectories = 50;    // trajectories per epoch
  std::size_t jobs_per_trajectory = 256;  // paper: 256
  std::size_t samples = 10;         // paper: 10 evaluation repetitions
  std::size_t sample_jobs = 1024;   // paper: 1024-job test sequences
  std::uint64_t seed = 1;
  std::string model_dir = "bench_models";
  bool retrain = false;             // ignore cached models
  bool quick = false;               // --quick: tiny budgets for smoke runs
  std::size_t max_epochs = 0;       // ablation epoch cap override (0 = default)
  std::size_t threads = 0;          // training worker threads (0 = hardware;
                                    // results are identical at any value)

  /// Parse --flag=value style arguments; unknown flags abort with usage.
  /// `--libm-fingerprint` prints util::libm_fingerprint() and exits 0 —
  /// the golden harness runs it when a byte-identity check fails, so a
  /// host whose libm drifts from the golden-generating machine is
  /// diagnosed by the failure message itself.
  static BenchArgs parse(int argc, char** argv);

  /// Apply an ablation bench's epoch cap: the effective cap is
  /// --max-epochs when given, else `default_cap`. Clamping warns (with
  /// the --max-epochs escape hatch) instead of silently truncating.
  void cap_epochs(std::size_t default_cap);
};

/// Construct the Table-2 preset by name ("SDSC-SP2", ...). Throws on
/// unknown names.
swf::Trace trace_by_name(const std::string& name, std::uint64_t seed,
                         std::size_t jobs);

/// All four paper trace names in Table-2 order.
std::vector<std::string> paper_trace_names();

/// The paper's training configuration scaled by the bench flags.
core::TrainerConfig trainer_config(const BenchArgs& args,
                                   const std::string& base_policy);

/// The bench protocol as a TrainingSpec (budgets and seed from `args`).
model::TrainingSpec training_spec(const std::string& name,
                                  const std::string& base_policy,
                                  const BenchArgs& args);

/// A ScenarioSpec over the preset `workload` with the bench trace length
/// and the given scheduler; the exp trace cache dedups construction.
exp::ScenarioSpec scenario_for(const std::string& workload,
                               const sched::SchedulerSpec& scheduler,
                               const BenchArgs& args);

/// A registered ablation arm ("abl-*", model::ablation_arm_names) with
/// the bench budget overrides applied: epochs, trajectories, jobs per
/// trajectory, trace length, and seed come from `args`, everything the
/// arm varies (delay rule, observation size, network shape, features,
/// objective, algorithm) stays canonical. At default flags the result is
/// the registry arm itself. Note the store KEYS still differ between the
/// two training paths: benches train on an explicit trace
/// (train_on_trace hashes the trainer protocol + the trace content),
/// while `rlbf_run train --spec=<arm>` keys on the spec fingerprint
/// alone — mixing both in one store yields two same-named entries, which
/// name-based resolution then reports as ambiguous rather than guessing.
model::TrainingSpec arm_spec(const std::string& arm, const BenchArgs& args);

/// Train (or fetch) `spec` on an explicit trace through the model store
/// rooted at args.model_dir. The returned entry's key is what scenario
/// specs reference via scheduler.agent. --retrain forces, --threads sets
/// the worker count (never the result).
model::TrainOutcome get_or_train(const swf::Trace& trace,
                                 const model::TrainingSpec& spec,
                                 const BenchArgs& args);

/// get_or_train over the bench paper-protocol spec for (trace, policy).
model::TrainOutcome get_or_train_entry(const swf::Trace& trace,
                                       const std::string& base_policy,
                                       const BenchArgs& args);

/// Convenience form loading the stored agent back into memory.
core::Agent get_or_train_agent(const swf::Trace& trace, const std::string& base_policy,
                               const BenchArgs& args);

/// Training stats persisted with every store entry (train.cpp writes
/// them; cache hits recover them without retraining). entry_meta throws
/// a std::runtime_error naming the entry and key when absent — stores
/// written before the stats existed need --retrain once.
const std::string& entry_meta(const model::TrainOutcome& outcome,
                              const std::string& key);
/// Numeric stat ("final_reward", "final_train_bsld", "final_steps", ...).
double entry_stat(const model::TrainOutcome& outcome, const std::string& key);
/// Per-epoch greedy-eval bsld curve (NaN on non-evaluation epochs).
std::vector<double> entry_eval_curve(const model::TrainOutcome& outcome);

/// Mean bsld of a heuristic scheduler spec over `samples` random
/// `sample_jobs`-long sequences (the Table-4 protocol). Seeds derive
/// from args.seed so every spec sees identical sequences.
double eval_spec(const swf::Trace& trace, const sched::SchedulerSpec& spec,
                 const BenchArgs& args);

/// Same protocol with RLBackfilling under the given base policy.
double eval_rlbf(const swf::Trace& trace, const core::Agent& agent,
                 const std::string& base_policy, const BenchArgs& args);

/// The same protocol routed through exp::evaluate_scenario: the spec
/// names the workload (trace construction is deduped by the exp trace
/// cache) and may reference a trained agent via scheduler.agent. The
/// result carries the mean plus a 95% percentile-bootstrap confidence
/// interval over the samples.
core::EvalResult eval_scenario_stats(const exp::ScenarioSpec& spec,
                                     const BenchArgs& args);
double eval_scenario(const exp::ScenarioSpec& spec, const BenchArgs& args);

/// Deployment bsld of a stored agent (store key or other agent
/// reference) under `policy` with EASY backfilling and request-time
/// estimates on the named workload — the scenario cell every ablation
/// bench reports for a trained arm.
double eval_agent_scenario(const std::string& workload, const std::string& policy,
                           const std::string& agent_ref, const BenchArgs& args);

}  // namespace rlbf::bench
