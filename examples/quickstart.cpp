// Quickstart: generate a workload, schedule it with FCFS + EASY
// backfilling, train a small RLBackfilling agent, and compare.
//
//   ./quickstart [n_jobs=3000] [epochs=5]
//
// This walks the full public API surface in ~80 lines: workload presets,
// ConfiguredScheduler, Trainer, and RlBackfillChooser.
#include <exception>
#include <iostream>

#include "core/rl_backfill.h"
#include "core/trainer.h"
#include "exp/config.h"
#include "sched/scheduler.h"
#include "util/log.h"
#include "workload/presets.h"

namespace {

using namespace rlbf;

int quickstart(std::size_t n_jobs, std::size_t epochs) {
  util::set_log_level(util::LogLevel::Info);

  // 1. A synthetic SDSC-SP2-like trace, calibrated to the paper's
  //    Table-2 statistics (see DESIGN.md for the substitution notes).
  const swf::Trace trace = workload::sdsc_sp2_like(/*seed=*/1, n_jobs);
  const swf::TraceStats stats = trace.stats();
  std::cout << "Trace " << trace.name() << ": " << stats.job_count << " jobs, "
            << stats.max_procs << " processors, mean interarrival "
            << stats.mean_interarrival << " s\n";

  // 2. Classic EASY backfilling with user-submitted request times.
  const sched::SchedulerSpec easy_spec{"FCFS", sched::BackfillKind::Easy,
                                       sched::EstimateKind::RequestTime};
  const auto easy = sched::ConfiguredScheduler(easy_spec).run(trace);
  std::cout << easy_spec.label() << ": avg bounded slowdown "
            << easy.metrics.avg_bounded_slowdown << ", utilization "
            << easy.metrics.utilization << ", backfilled "
            << easy.metrics.backfilled_jobs << " jobs\n";

  // 3. Train RLBackfilling on the same trace (short demo budget;
  //    `rlbf_run train --spec=sdsc-fcfs` trains at paper scale).
  core::TrainerConfig cfg;
  cfg.epochs = epochs;
  cfg.trajectories_per_epoch = 40;
  cfg.jobs_per_trajectory = 256;
  cfg.ppo.minibatch_size = 512;
  cfg.ppo.train_iters = 40;
  core::Trainer trainer(trace, cfg);
  trainer.train();

  // 4. Deploy the trained agent as a drop-in backfill policy.
  core::RlBackfillChooser rlbf(trainer.agent());
  sched::FcfsPolicy fcfs;
  sched::RequestTimeEstimator estimator;
  const auto rl = sched::run_schedule(trace, fcfs, estimator, &rlbf);
  std::cout << "FCFS+RLBF: avg bounded slowdown "
            << rl.metrics.avg_bounded_slowdown << ", backfilled "
            << rl.metrics.backfilled_jobs << " jobs\n";

  const double gain = (easy.metrics.avg_bounded_slowdown -
                       rl.metrics.avg_bounded_slowdown) /
                      easy.metrics.avg_bounded_slowdown;
  std::cout << "RLBackfilling improvement over EASY: " << gain * 100.0 << "%\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_jobs = 3000;
  std::size_t epochs = 5;
  if (argc > 3 || (argc > 1 && (!exp::parse_number(argv[1], &n_jobs) || n_jobs == 0)) ||
      (argc > 2 && !exp::parse_number(argv[2], &epochs))) {
    std::cerr << "usage: quickstart [n_jobs=3000] [epochs=5]\n";
    return 2;
  }
  try {
    return quickstart(n_jobs, epochs);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
