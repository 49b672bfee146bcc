// Train the same backfilling agent with three RL algorithms — PPO (the
// paper's choice), Double-DQN, and REINFORCE — and compare convergence
// and final scheduling quality. A runnable, small-budget version of
// bench/ablation_rl_algorithm.
//
//   ./compare_rl_algorithms [n_jobs] [epochs]
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/rl_backfill.h"
#include "core/trainer.h"
#include "sched/scheduler.h"
#include "util/log.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace rlbf;
  const std::size_t n_jobs = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3000;
  const std::size_t epochs = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 6;
  util::set_log_level(util::LogLevel::Warn);

  const swf::Trace trace = workload::sdsc_sp2_like(/*seed=*/1, n_jobs);
  std::cout << "Trace: " << trace.name() << ", " << trace.size() << " jobs\n"
            << "Budget: " << epochs << " epochs x 40 trajectories each\n\n";

  // EASY reference on the whole trace.
  const auto easy =
      sched::ConfiguredScheduler({"FCFS", sched::BackfillKind::Easy,
                                  sched::EstimateKind::RequestTime})
          .run(trace);
  std::cout << "FCFS+EASY reference bsld: " << std::fixed << std::setprecision(2)
            << easy.metrics.avg_bounded_slowdown << "\n\n";

  const auto deploy_bsld = [&](const core::Agent& agent) {
    core::RlBackfillChooser chooser(agent);
    sched::FcfsPolicy fcfs;
    sched::RequestTimeEstimator estimator;
    return sched::run_schedule(trace, fcfs, estimator, &chooser)
        .metrics.avg_bounded_slowdown;
  };

  // One Trainer, one collection protocol; only the algorithm and its
  // hyperparameter block differ between the three runs.
  const auto train_and_deploy = [&](const char* title, core::TrainerConfig cfg) {
    std::cout << "--- " << title << " ---\n";
    cfg.epochs = epochs;
    cfg.trajectories_per_epoch = 40;
    cfg.eval_every = 1;
    core::Trainer trainer(trace, cfg);
    trainer.train([&cfg](const core::EpochStats& s) {
      std::cout << "  epoch " << s.epoch << ": ";
      if (cfg.algorithm == "ppo") {
        std::cout << "reward " << std::setprecision(3) << s.mean_reward;
      } else if (cfg.algorithm == "dqn") {
        std::cout << "epsilon " << std::setprecision(2) << s.epsilon << ", TD loss "
                  << std::setprecision(4) << s.loss;
      } else {
        std::cout << "policy loss " << std::setprecision(4) << s.loss;
      }
      std::cout << ", greedy eval bsld " << std::setprecision(2) << s.eval_bsld << "\n";
    });
    std::cout << "  deployed bsld: " << deploy_bsld(trainer.agent()) << "\n\n";
  };

  core::TrainerConfig ppo;
  ppo.ppo.train_iters = 40;
  ppo.ppo.minibatch_size = 512;
  train_and_deploy("PPO (the paper's algorithm)", ppo);

  core::TrainerConfig dqn;
  dqn.algorithm = "dqn";
  dqn.dqn.epsilon_decay_epochs = std::max<std::size_t>(epochs / 2, 1);
  train_and_deploy("Double-DQN (the paper's rejected alternative)", dqn);

  core::TrainerConfig reinforce;
  reinforce.algorithm = "reinforce";
  reinforce.reinforce.policy_lr = 3e-3;
  train_and_deploy("REINFORCE (the classic policy gradient)", reinforce);
  return 0;
}
