// Who pays for a lower average slowdown? Backfilling reorders waiting
// across users; this example schedules one trace under several
// strategies and prints the per-user fairness summary next to the usual
// averages — Jain's index over per-user mean bounded slowdowns, the
// max/min spread, and the worst-off users.
//
//   ./fairness_report [n_jobs=5000]
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "exp/config.h"
#include "sched/scheduler.h"
#include "sim/fairness.h"
#include "util/log.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace rlbf;
  std::size_t n_jobs = 5000;
  if (argc > 2 || (argc > 1 && (!exp::parse_number(argv[1], &n_jobs) || n_jobs == 0))) {
    std::cerr << "usage: fairness_report [n_jobs=5000]\n";
    return 2;
  }
  util::set_log_level(util::LogLevel::Warn);

  const swf::Trace trace = workload::sdsc_sp2_like(/*seed=*/3, n_jobs);
  std::cout << "Trace: " << trace.name() << ", " << trace.size() << " jobs\n\n";
  std::cout << std::left << std::setw(22) << "strategy" << std::right
            << std::setw(10) << "bsld" << std::setw(12) << "bsld Jain"
            << std::setw(12) << "wait Jain" << std::setw(12) << "spread"
            << std::setw(8) << "users" << "\n";

  const std::vector<std::pair<std::string, sched::SchedulerSpec>> strategies = {
      {"FCFS (no backfill)",
       {"FCFS", sched::BackfillKind::None, sched::EstimateKind::RequestTime}},
      {"FCFS+EASY",
       {"FCFS", sched::BackfillKind::Easy, sched::EstimateKind::RequestTime}},
      {"FCFS+EASY-AR",
       {"FCFS", sched::BackfillKind::Easy, sched::EstimateKind::ActualRuntime}},
      {"FCFS+Conservative",
       {"FCFS", sched::BackfillKind::Conservative, sched::EstimateKind::RequestTime}},
      {"SJF+EASY",
       {"SJF", sched::BackfillKind::Easy, sched::EstimateKind::RequestTime}},
  };

  sim::FairnessReport worst_report;
  std::string worst_name;
  double worst_jain = 2.0;
  for (const auto& [name, spec] : strategies) {
    const auto outcome = sched::ConfiguredScheduler(spec).run(trace);
    const auto report = sim::fairness_report(outcome.results, trace);
    std::cout << std::left << std::setw(22) << name << std::right << std::fixed
              << std::setw(10) << std::setprecision(2)
              << outcome.metrics.avg_bounded_slowdown << std::setw(12)
              << std::setprecision(3) << report.bsld_jain << std::setw(12)
              << report.wait_jain << std::setw(12) << std::setprecision(1)
              << report.bsld_spread << std::setw(8) << report.user_count << "\n";
    if (report.bsld_jain < worst_jain) {
      worst_jain = report.bsld_jain;
      worst_report = report;
      worst_name = name;
    }
  }

  // Spotlight the least fair strategy's most punished users.
  auto users = worst_report.users;
  std::sort(users.begin(), users.end(),
            [](const sim::UserMetrics& a, const sim::UserMetrics& b) {
              return a.avg_bounded_slowdown > b.avg_bounded_slowdown;
            });
  std::cout << "\nLeast fair strategy: " << worst_name << " (bsld Jain "
            << std::setprecision(3) << worst_jain << ")\n"
            << "Worst-off users:\n";
  std::cout << std::setw(10) << "user" << std::setw(10) << "jobs" << std::setw(12)
            << "mean bsld" << std::setw(14) << "mean wait(s)" << std::setw(12)
            << "backfilled" << "\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(users.size(), 5); ++i) {
    const auto& u = users[i];
    std::cout << std::setw(10) << u.user_id << std::setw(10) << u.job_count
              << std::setw(12) << std::setprecision(1) << u.avg_bounded_slowdown
              << std::setw(14) << std::setprecision(0) << u.avg_wait_time
              << std::setw(12) << u.backfilled_jobs << "\n";
  }
  return 0;
}
