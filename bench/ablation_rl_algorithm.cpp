// Ablation A6: the RL algorithm choice. The paper adopts PPO over
// Deep-Q-Learning, citing the faster convergence assurances of policy-
// gradient methods (§2.2.1). This bench measures that design decision:
// PPO, Double-DQN, and REINFORCE (with baseline) are trained under the
// identical collection protocol (same trace, base policy, trajectories
// per epoch, reward shaping), and their greedy deployment bsld is
// reported per epoch alongside the EASY baselines.
//
// Expected shape: PPO converges fastest and most stably; DQN gets there
// eventually but noisily (terminal-only reward makes TD targets sparse);
// plain REINFORCE lags both — the ordering the paper's choice implies.
//
// Each algorithm is a registered "abl-rl-*" TrainingSpec arm trained
// through the model store; per-epoch curves are recovered from the
// stored eval_curve stat (cache hits reprint them without retraining),
// and deployment bsld comes from exp::evaluate_scenario.
#include <iostream>

#include "bench_common.h"
#include "util/log.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace rlbf;
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  args.cap_epochs(12);  // three trainings; keep the bench quick
  util::set_log_level(util::LogLevel::Warn);

  const swf::Trace trace = bench::trace_by_name("SDSC-SP2", args.seed, args.trace_jobs);

  // EASY baselines under the Table-4 protocol for context.
  const auto easy_bsld = [&](sched::EstimateKind est) {
    return bench::eval_scenario(
        bench::scenario_for("SDSC-SP2",
                            {"FCFS", sched::BackfillKind::Easy, est}, args),
        args);
  };
  const double easy = easy_bsld(sched::EstimateKind::RequestTime);
  const double easy_ar = easy_bsld(sched::EstimateKind::ActualRuntime);

  struct Curve {
    std::string name;
    std::vector<double> eval;  // greedy bsld at each evaluation epoch
    double final_bsld = 0.0;
  };
  std::vector<Curve> curves;

  const std::vector<std::pair<std::string, std::string>> algorithms = {
      {"PPO (paper)", "abl-rl-ppo"},
      {"Double-DQN", "abl-rl-dqn"},
      {"REINFORCE", "abl-rl-reinforce"},
  };
  for (const auto& [label, arm] : algorithms) {
    model::TrainingSpec spec = bench::arm_spec(arm, args);
    if (spec.trainer.algorithm == "dqn") {
      // Decay over half the (possibly overridden) budget, as pre-port.
      spec.trainer.dqn.epsilon_decay_epochs = std::max<std::size_t>(args.epochs / 2, 1);
    }
    const model::TrainOutcome outcome = bench::get_or_train(trace, spec, args);
    Curve c{label, bench::entry_eval_curve(outcome), 0.0};
    c.final_bsld =
        bench::eval_agent_scenario("SDSC-SP2", "FCFS", outcome.entry.key, args);
    curves.push_back(std::move(c));
  }

  // Per-epoch greedy-eval curves.
  std::vector<std::string> header = {"epoch"};
  for (const auto& c : curves) header.push_back(c.name);
  util::Table curve_table(header);
  std::size_t max_epochs = 0;
  for (const auto& c : curves) max_epochs = std::max(max_epochs, c.eval.size());
  for (std::size_t e = 0; e < max_epochs; ++e) {
    std::vector<std::string> row = {std::to_string(e + 1)};
    for (const auto& c : curves) {
      row.push_back(e < c.eval.size() ? util::Table::fmt(c.eval[e], 2) : "-");
    }
    curve_table.add_row(std::move(row));
  }

  util::Table final_table({"configuration", "bsld (10x1024 sample protocol)"});
  final_table.add_row({"FCFS+EASY", util::Table::fmt(easy, 2)});
  final_table.add_row({"FCFS+EASY-AR", util::Table::fmt(easy_ar, 2)});
  for (const auto& c : curves) {
    final_table.add_row({"FCFS+RLBF/" + c.name, util::Table::fmt(c.final_bsld, 2)});
  }

  std::cout << "# Ablation A6: RL algorithm (PPO vs DQN vs REINFORCE), "
            << trace.name() << ", FCFS base, " << args.epochs << " epochs each\n"
            << "# Greedy held-out bsld per training epoch (lower = better):\n";
  curve_table.print(std::cout);
  std::cout << "\n# Final deployment comparison:\n";
  final_table.print(std::cout);
  curve_table.save_csv("ablation_rl_algorithm_curves.csv");
  final_table.save_csv("ablation_rl_algorithm.csv");
  std::cout << "# CSV: ablation_rl_algorithm_curves.csv, ablation_rl_algorithm.csv\n";
  return 0;
}
