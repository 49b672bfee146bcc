// Table 4: RLBackfilling vs EASY / EASY-AR across base policies on all
// four traces. Protocol per the paper: 10 random 1024-job sequences per
// trace, identical sequences for every scheduler, averaged bsld.
//
// Columns: FCFS+EASY  FCFS+EASY-AR  FCFS+RLBF  SJF+EASY  SJF+EASY-AR
//          SJF+RLBF  WFP3+EASY  F1+EASY
// Synthetic traces have no user estimates, so their EASY-AR cells are
// "-" (identical to EASY), as in the paper.
//
// Everything runs through the scenario engine: heuristic cells are
// ScenarioSpecs, RLBF cells reference model-store entries trained (once,
// content-addressed) by get_or_train_entry.
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "util/log.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace rlbf;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  util::set_log_level(util::LogLevel::Info);

  const std::vector<std::string> columns = {
      "FCFS+EASY", "FCFS+EASY-AR", "FCFS+RLBF", "SJF+EASY",
      "SJF+EASY-AR", "SJF+RLBF", "WFP3+EASY", "F1+EASY"};
  std::vector<std::string> header = {"Job Traces"};
  header.insert(header.end(), columns.begin(), columns.end());
  util::Table table(header);
  // Machine-readable companion with 95% bootstrap CIs per cell.
  util::Table csv({"trace", "scheduler", "mean_bsld", "ci95_lo", "ci95_hi"});

  for (const auto& name : bench::paper_trace_names()) {
    const swf::Trace trace = bench::trace_by_name(name, args.seed, args.trace_jobs);
    const bool has_estimates = trace.stats().has_user_estimates;

    auto heuristic = [&](const std::string& policy, sched::EstimateKind est) {
      const sched::SchedulerSpec spec{policy, sched::BackfillKind::Easy, est};
      return bench::eval_scenario_stats(bench::scenario_for(name, spec, args), args);
    };
    auto rlbf = [&](const std::string& policy, const std::string& agent_key) {
      sched::SchedulerSpec spec{policy, sched::BackfillKind::Easy,
                                sched::EstimateKind::RequestTime};
      spec.agent = agent_key;
      return bench::eval_scenario_stats(bench::scenario_for(name, spec, args), args);
    };

    const std::string fcfs_key =
        bench::get_or_train_entry(trace, "FCFS", args).entry.key;
    const std::string sjf_key =
        bench::get_or_train_entry(trace, "SJF", args).entry.key;

    std::vector<std::pair<std::string, std::optional<core::EvalResult>>> cells;
    cells.emplace_back("FCFS+EASY",
                       heuristic("FCFS", sched::EstimateKind::RequestTime));
    cells.emplace_back("FCFS+EASY-AR",
                       has_estimates
                           ? std::optional(heuristic(
                                 "FCFS", sched::EstimateKind::ActualRuntime))
                           : std::nullopt);
    cells.emplace_back("FCFS+RLBF", rlbf("FCFS", fcfs_key));
    cells.emplace_back("SJF+EASY", heuristic("SJF", sched::EstimateKind::RequestTime));
    cells.emplace_back("SJF+EASY-AR",
                       has_estimates
                           ? std::optional(heuristic(
                                 "SJF", sched::EstimateKind::ActualRuntime))
                           : std::nullopt);
    cells.emplace_back("SJF+RLBF", rlbf("SJF", sjf_key));
    cells.emplace_back("WFP3+EASY",
                       heuristic("WFP3", sched::EstimateKind::RequestTime));
    cells.emplace_back("F1+EASY", heuristic("F1", sched::EstimateKind::RequestTime));

    std::vector<std::string> row = {name};
    for (const auto& [label, stats] : cells) {
      row.push_back(stats ? util::Table::fmt(stats->mean) : "-");
      if (stats) {
        csv.add_row({name, label, util::Table::fmt(stats->mean, 4),
                     util::Table::fmt(stats->ci_lo, 4),
                     util::Table::fmt(stats->ci_hi, 4)});
      }
    }
    table.add_row(std::move(row));
  }

  std::cout << "# Table 4: average bsld over " << args.samples << " random "
            << args.sample_jobs << "-job sequences (lower is better)\n";
  table.print(std::cout);
  csv.save_csv("table4_performance.csv");
  std::cout << "# CSV (with 95% bootstrap CIs): table4_performance.csv\n";
  return 0;
}
