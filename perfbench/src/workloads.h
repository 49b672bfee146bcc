// The benchmark's four workloads. Each is set up from the workload seed
// alone and then runs a fixed list of units, one after another, in a
// single client (closed loop). perfbench/README.md says why each one
// exists and which layer metrics it is meant to move.
//
//   easy-sweep     {FCFS, SJF, WFP3, F1} x EASY x {request, actual, +20%}
//                  over 1024-job windows of the four presets; a unit is
//                  one window under all 12 configurations.
//   planner-sweep  FCFS x {conservative, slack} over 256-job windows;
//                  a unit is one window under both choosers.
//   rlbf-infer     FCFS + the greedy trained agent over 1024-job windows;
//                  a unit is one window.
//   train-ppo      paper-protocol PPO epochs on the SDSC-SP2 preset at one
//                  thread; a unit is one Trainer::run_epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "harness.h"
#include "sched/scheduler.h"
#include "swf/trace.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Layer times of one set-up, everything before the first unit.
struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;   // workload preset generation
  double sample_s = 0.0;     // swf::Trace::sample of the unit windows
  double train_s = 0.0;      // model::train_spec into the scratch store
  double load_s = 0.0;       // model::Store::load of the trained agent
  double model_bytes = 0.0;  // size of the stored model file
};

/// How the traced run wraps a sweep's BackfillChooser.
enum class ChooserTracing {
  CountOnly,  // decisions too short for a clock read (EASY)
  Timed,      // whole-queue planners
  Agent,      // timed, plus the observation/forward shadow split
};

bool is_sweep_workload(const std::string& name);

/// easy-sweep, planner-sweep or rlbf-infer. The constructor is the
/// set-up: it generates the presets, samples the unit windows from
/// util::Rng(seed) and, for rlbf-infer, trains the `sdsc-tiny` agent into
/// a fresh store under `scratch_dir` and loads it back.
class SweepWorkload {
 public:
  SweepWorkload(const std::string& name, std::uint64_t seed,
                const std::string& scratch_dir);

  std::size_t unit_count() const { return windows_.size(); }
  /// "<preset>#<k>", stable across runs of one seed.
  std::string unit_label(std::size_t i) const;
  /// Schedule unit i under every configuration. With `trace`, each call
  /// goes through the wrappers and records into it.
  UnitResult run_unit(std::size_t i, LayerTrace* trace);

  const SetupTimes& setup_times() const { return setup_; }
  ChooserTracing chooser_tracing() const { return tracing_; }

 private:
  struct Window {
    std::size_t preset = 0;
    std::size_t k = 0;
    rlbf::swf::Trace trace;
  };

  std::vector<std::string> preset_names_;
  std::vector<Window> windows_;
  std::unique_ptr<rlbf::core::Agent> agent_;
  std::vector<std::unique_ptr<rlbf::sched::ConfiguredScheduler>> schedulers_;
  ChooserTracing tracing_ = ChooserTracing::CountOnly;
  SetupTimes setup_;
};

/// train-ppo. The constructor is the set-up: the SDSC-SP2 preset and a
/// Trainer with the paper's protocol (100 x 256-job trajectories per
/// epoch, 80 iterations, minibatch 1024) at one thread, seeded by the
/// workload seed.
class TrainWorkload {
 public:
  static constexpr std::size_t kThreads = 1;

  explicit TrainWorkload(std::uint64_t seed);

  /// One epoch. With `trace`, collection goes through a TracedCollector
  /// over an in-process ThreadCollector of kThreads threads.
  UnitResult run_epoch(LayerTrace* trace);
  /// Statistics of the last run_epoch.
  const rlbf::core::EpochStats& last_epoch() const { return last_; }
  /// Greedy held-out evaluation bsld of the current agent.
  double evaluate_greedy() { return trainer_->evaluate_greedy(); }
  const rlbf::core::TrainerConfig& config() const { return trainer_->config(); }
  const SetupTimes& setup_times() const { return setup_; }

 private:
  std::unique_ptr<rlbf::core::Trainer> trainer_;
  std::unique_ptr<rlbf::util::ThreadPool> trace_pool_;
  std::unique_ptr<rlbf::rl::ThreadCollector> trace_collector_;
  rlbf::core::EpochStats last_;
  SetupTimes setup_;
};

}  // namespace perfbench
