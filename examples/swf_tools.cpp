// SWF workbench: inspect, generate, and schedule Standard Workload
// Format files from the command line. Real Parallel Workloads Archive
// downloads work directly.
//
//   ./swf_tools stats <file.swf>
//       Table-2-style statistics (size, it, rt, nt, load, estimates).
//   ./swf_tools generate <preset> <out.swf> [jobs] [seed]
//       Write a calibrated synthetic trace (SDSC-SP2 | HPC2N |
//       Lublin-1 | Lublin-2) as an SWF file.
//   ./swf_tools schedule <file.swf> <policy> <backfill> [model.file]
//       Schedule the trace and print metrics. policy: FCFS|SJF|WFP3|F1;
//       backfill: none|easy|easy-ar|easy-sjf|easy-bf|easy-wf|cons|slack|
//       rlbf (rlbf requires a trained model: `rlbf_run train --spec=...
//       --store=<store>` prints its <store>/<key>.model path). Set
//       RLBF_SCHEDULE_CSV=<path> to also dump the per-job schedule.
//   ./swf_tools scrub <file.swf> <out.swf> [max_per_window=50] [window_s=3600]
//       Remove single-user submission flurries (archive-style cleaning)
//       and write the scrubbed trace.
//   ./swf_tools fairness <file.swf> <policy> <backfill>
//       Schedule and print the per-user fairness report (Jain indices,
//       spread, worst-off users).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/rl_backfill.h"
#include "exp/config.h"
#include "sched/scheduler.h"
#include "sim/fairness.h"
#include "sim/timeline.h"
#include "swf/parser.h"
#include "swf/writer.h"
#include "util/table.h"
#include "workload/presets.h"
#include "workload/transforms.h"

namespace {

using namespace rlbf;

int cmd_stats(const std::string& path) {
  const swf::ParseResult parsed = swf::parse_swf_file(path);
  const swf::TraceStats s = parsed.trace.stats();
  double work = 0.0;
  for (const auto& j : parsed.trace.jobs()) {
    work += static_cast<double>(j.run_time) * static_cast<double>(j.procs());
  }
  const double load =
      s.mean_interarrival > 0.0
          ? work / static_cast<double>(parsed.trace.size()) /
                (s.mean_interarrival * static_cast<double>(s.max_procs))
          : 0.0;

  util::Table t({"metric", "value"});
  t.add_row({"trace", parsed.trace.name()});
  t.add_row({"jobs", std::to_string(s.job_count)});
  t.add_row({"skipped (invalid)", std::to_string(parsed.skipped_jobs)});
  t.add_row({"processors (size)", std::to_string(s.max_procs)});
  t.add_row({"mean interarrival it (s)", util::Table::fmt(s.mean_interarrival, 1)});
  t.add_row({"mean request time rt (s)", util::Table::fmt(s.mean_request_time, 1)});
  t.add_row({"mean actual runtime (s)", util::Table::fmt(s.mean_run_time, 1)});
  t.add_row({"mean requested procs nt", util::Table::fmt(s.mean_requested_procs, 2)});
  t.add_row({"offered load", util::Table::fmt(load, 3)});
  t.add_row({"user estimates", s.has_user_estimates ? "yes (RT != AR)" : "AR only"});
  t.print(std::cout);
  return 0;
}

int cmd_generate(const std::string& preset, const std::string& out, std::size_t jobs,
                 std::uint64_t seed) {
  for (const auto& targets : workload::all_targets()) {
    if (targets.name == preset) {
      const swf::Trace trace = workload::make_preset(targets, jobs, seed);
      if (!swf::write_swf_file(out, trace)) {
        std::cerr << "cannot write " << out << "\n";
        return 1;
      }
      std::cout << "wrote " << trace.size() << " jobs to " << out << "\n";
      return 0;
    }
  }
  std::cerr << "unknown preset: " << preset << "\n";
  return 2;
}

/// Schedule `trace` under a policy/backfill named on the command line;
/// returns false (after printing to stderr) on an unknown name.
bool run_named(const swf::Trace& trace, const std::string& policy,
               const std::string& backfill, const std::string& model_path,
               sched::ScheduleOutcome& outcome, std::string& label) {
  if (backfill == "rlbf") {
    if (model_path.empty()) {
      std::cerr << "rlbf requires a model file (train one with `rlbf_run train "
                   "--spec=<spec> --store=<store>`; it prints <store>/<key>.model)\n";
      return false;
    }
    const core::Agent agent = core::Agent::load(model_path);
    core::RlBackfillChooser chooser(agent);
    const auto base = sched::make_policy(policy);
    sched::RequestTimeEstimator est;
    outcome = sched::run_schedule(trace, *base, est, &chooser);
    label = policy + "+RLBF";
    return true;
  }
  sched::SchedulerSpec spec;
  spec.policy = policy;
  if (backfill == "none") spec.backfill = sched::BackfillKind::None;
  else if (backfill == "easy") spec.backfill = sched::BackfillKind::Easy;
  else if (backfill == "easy-sjf") spec.backfill = sched::BackfillKind::EasySjf;
  else if (backfill == "easy-bf") spec.backfill = sched::BackfillKind::EasyBestFit;
  else if (backfill == "easy-wf") spec.backfill = sched::BackfillKind::EasyWorstFit;
  else if (backfill == "cons") spec.backfill = sched::BackfillKind::Conservative;
  else if (backfill == "slack") spec.backfill = sched::BackfillKind::Slack;
  else if (backfill == "easy-ar") {
    spec.backfill = sched::BackfillKind::Easy;
    spec.estimate = sched::EstimateKind::ActualRuntime;
  } else {
    std::cerr << "unknown backfill: " << backfill << "\n";
    return false;
  }
  outcome = sched::ConfiguredScheduler(spec).run(trace);
  label = spec.label();
  return true;
}

int cmd_schedule(const std::string& path, const std::string& policy,
                 const std::string& backfill, const std::string& model_path) {
  const swf::Trace trace = swf::parse_swf_file(path).trace;

  sched::ScheduleOutcome outcome;
  std::string label;
  if (!run_named(trace, policy, backfill, model_path, outcome, label)) return 2;

  const auto& m = outcome.metrics;
  util::Table t({"metric", "value"});
  t.add_row({"scheduler", label});
  t.add_row({"jobs", std::to_string(m.job_count)});
  t.add_row({"avg bounded slowdown", util::Table::fmt(m.avg_bounded_slowdown, 2)});
  t.add_row({"avg slowdown", util::Table::fmt(m.avg_slowdown, 2)});
  t.add_row({"avg wait (s)", util::Table::fmt(m.avg_wait_time, 1)});
  t.add_row({"max wait (s)", util::Table::fmt(m.max_wait_time, 1)});
  t.add_row({"avg turnaround (s)", util::Table::fmt(m.avg_turnaround, 1)});
  t.add_row({"utilization", util::Table::fmt(m.utilization, 3)});
  t.add_row({"makespan (s)", std::to_string(m.makespan)});
  t.add_row({"backfilled jobs", std::to_string(m.backfilled_jobs)});
  t.add_row({"peak usage (procs)", std::to_string(sim::peak_usage(outcome.results))});
  t.print(std::cout);

  if (const char* csv = std::getenv("RLBF_SCHEDULE_CSV")) {
    if (sim::write_schedule_csv(csv, outcome.results)) {
      std::cout << "schedule written to " << csv << "\n";
    } else {
      std::cerr << "cannot write " << csv << "\n";
    }
  }
  return 0;
}

int cmd_scrub(const std::string& in, const std::string& out,
              std::size_t max_per_window, std::int64_t window_s) {
  const swf::Trace trace = swf::parse_swf_file(in).trace;
  workload::FlurryParams params;
  params.max_jobs_per_window = max_per_window;
  params.window_seconds = window_s;
  workload::FlurryReport report;
  const swf::Trace cleaned = workload::remove_flurries(trace, params, &report);
  if (!swf::write_swf_file(out, cleaned)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cout << "removed " << report.removed_jobs << " flurry jobs from "
            << report.flagged_users << " user(s); wrote " << cleaned.size()
            << " jobs to " << out << "\n";
  return 0;
}

int cmd_fairness(const std::string& path, const std::string& policy,
                 const std::string& backfill) {
  const swf::Trace trace = swf::parse_swf_file(path).trace;
  sched::ScheduleOutcome outcome;
  std::string label;
  if (!run_named(trace, policy, backfill, "", outcome, label)) return 2;

  const sim::FairnessReport report = sim::fairness_report(outcome.results, trace);
  util::Table summary({"metric", "value"});
  summary.add_row({"scheduler", label});
  summary.add_row({"avg bounded slowdown",
                   util::Table::fmt(outcome.metrics.avg_bounded_slowdown, 2)});
  summary.add_row({"users", std::to_string(report.user_count)});
  summary.add_row({"bsld Jain index", util::Table::fmt(report.bsld_jain, 3)});
  summary.add_row({"wait Jain index", util::Table::fmt(report.wait_jain, 3)});
  summary.add_row({"bsld max/min spread", util::Table::fmt(report.bsld_spread, 1)});
  summary.print(std::cout);

  auto users = report.users;
  std::sort(users.begin(), users.end(),
            [](const sim::UserMetrics& a, const sim::UserMetrics& b) {
              return a.avg_bounded_slowdown > b.avg_bounded_slowdown;
            });
  std::cout << "\nworst-off users:\n";
  util::Table worst({"user", "jobs", "mean bsld", "mean wait(s)", "backfilled"});
  for (std::size_t i = 0; i < std::min<std::size_t>(users.size(), 8); ++i) {
    const auto& u = users[i];
    worst.add_row({std::to_string(u.user_id), std::to_string(u.job_count),
                   util::Table::fmt(u.avg_bounded_slowdown, 1),
                   util::Table::fmt(u.avg_wait_time, 0),
                   std::to_string(u.backfilled_jobs)});
  }
  worst.print(std::cout);
  return 0;
}

/// Parse the optional numeric argument argv[i] into `out`, keeping its
/// default when absent; false on anything but a whole number.
template <typename T>
bool optional_number(int argc, char** argv, int i, T* out) {
  return argc <= i || exp::parse_number(argv[i], out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage:\n"
      "  swf_tools stats <file.swf>\n"
      "  swf_tools generate <preset> <out.swf> [jobs=10000] [seed=1]\n"
      "  swf_tools schedule <file.swf> <policy> <backfill> [model.file]\n"
      "      (backfill rlbf needs model.file: `rlbf_run train --spec=<spec>\n"
      "       --store=<store>` prints its <store>/<key>.model path)\n"
      "  swf_tools scrub <file.swf> <out.swf> [max_per_window=50] [window_s=3600]\n"
      "  swf_tools fairness <file.swf> <policy> <backfill>\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "stats" && argc >= 3) return cmd_stats(argv[2]);
    if (cmd == "generate" && argc >= 4) {
      std::size_t jobs = 10000;
      std::uint64_t seed = 1;
      if (optional_number(argc, argv, 4, &jobs) && jobs > 0 &&
          optional_number(argc, argv, 5, &seed)) {
        return cmd_generate(argv[2], argv[3], jobs, seed);
      }
    }
    if (cmd == "schedule" && argc >= 5) {
      return cmd_schedule(argv[2], argv[3], argv[4], argc > 5 ? argv[5] : "");
    }
    if (cmd == "scrub" && argc >= 4) {
      std::size_t max_per_window = 50;
      std::int64_t window_s = 3600;
      if (optional_number(argc, argv, 4, &max_per_window) &&
          optional_number(argc, argv, 5, &window_s)) {
        return cmd_scrub(argv[2], argv[3], max_per_window, window_s);
      }
    }
    if (cmd == "fairness" && argc >= 5) {
      return cmd_fairness(argv[2], argv[3], argv[4]);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << usage;
  return 2;
}
