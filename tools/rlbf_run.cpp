// rlbf_run — the unified driver over the scenario & experiment engine,
// the model store, and the distributed orchestration layer.
//
//   rlbf_run help                           # every subcommand + usage
//   rlbf_run help run                       # one subcommand in detail
//
//   rlbf_run run --list                     # the scenario catalog
//   rlbf_run run --describe=sdsc-flurry    # one scenario in detail
//   rlbf_run run --scenario=sdsc-easy --seed=1 --out_dir=out
//   rlbf_run run --scenario=sdsc-easy --threads=8 --out_dir=out
//            --sweep="load=0.5,1.0,1.5;policy=FCFS,SJF"
//   rlbf_run run --scenario=sdsc-easy --samples=10 --sample_jobs=1024
//   rlbf_run run --scenario=sdsc-easy --agent=sdsc-fcfs   # RL backfilling
//
//   rlbf_run train --list                   # the training-spec catalog
//   rlbf_run train --spec=sdsc-fcfs         # train into the model store
//                                           # (second invocation: cache hit)
//   rlbf_run train --ablations              # every abl-* ablation arm
//   rlbf_run train --ablations --shard=0/3  # this machine's third of the grid
//   rlbf_run train --ablations --workers=3  # same grid, fanned out over 3
//                                           # local worker processes
//   rlbf_run run --scenario=abl-obsv-8      # evaluate a trained arm
//   rlbf_run models                         # list the store
//   rlbf_run models --prune                 # drop unreferenced entries
//
// Distributed sweeps (`sweep` is an alias of `run`): every machine runs
// one shard of the deterministic instance partition, and `merge`
// recombines the shard-tagged outputs into files byte-identical to an
// unsharded run. `orchestrate` closes that loop in one invocation — it
// plans the shard jobs, launches worker processes (local pool, or any
// ssh/batch command template over --hosts), retries failures, and
// merges the collected outputs:
//
//   rlbf_run orchestrate --scenario=sdsc-easy --sweep="load=0.5,1.0"
//            --workers=3 --out_dir=merged          # one machine, 3 workers
//   rlbf_run orchestrate ... --workers=2 --hosts=a,b
//            --command_template="ssh {host} {qcommand}"
//            --fetch_template="scp -r {host}:{remote} {local}"
//
// Model stores travel between machines as verified bundles:
//
//   rlbf_run models --export_bundle=bundle          # pack the store
//   rlbf_run models --store=other --import_bundle=bundle  # verified import
//   rlbf_run models --import_bundle=b1,b2,collected/      # several at once
//   rlbf_run models --max_store_bytes=100000000     # LRU size cap
//
// The bare legacy form (no subcommand) still works and means `run`.
//
// Output is deterministic for a given --seed at any --threads or
// --workers value: trained models, the summary CSV/JSON, and the
// per-job CSVs are byte-identical across repeated runs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dist/job.h"
#include "dist/launcher.h"
#include "dist/orchestrator.h"
#include "exp/config.h"
#include "exp/scenario.h"
#include "exp/shard.h"
#include "exp/sink.h"
#include "exp/sweep.h"
#include "model/store.h"
#include "model/train.h"
#include "obs/json.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/series.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/subprocess.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace rlbf;

/// The ORIGINAL argv[0], captured in main before subcommand dispatch
/// shifts argv (inside a subcommand, argv[0] is the subcommand name).
/// Fallback for util::current_executable when /proc/self/exe is absent.
std::string g_program_path;

void list_scenarios() {
  util::Table table({"scenario", "configuration", "description"});
  for (const std::string& name : exp::scenario_names()) {
    const exp::ScenarioSpec& spec = exp::find_scenario(name);
    table.add_row({spec.name, spec.label(), spec.description});
  }
  table.print(std::cout);
}

/// Split a comma-separated name list; empty elements are an error.
std::vector<std::string> split_names(const std::string& text,
                                     const std::string& flag) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string name = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (name.empty()) {
      throw std::invalid_argument("empty name in " + flag + "=" + text);
    }
    names.push_back(name);
  }
  return names;
}

void describe_scenario(const std::string& name) {
  const exp::ScenarioSpec& s = exp::find_scenario(name);
  std::cout << s.name << ": " << s.description << "\n"
            << "  workload:       " << s.workload << " (" << s.trace_jobs
            << " jobs"
            << (s.machine_procs > 0
                    ? ", " + std::to_string(s.machine_procs) + " procs"
                    : std::string())
            << ")\n"
            << "  scheduler:      " << s.scheduler.label() << " (policy="
            << s.scheduler.policy
            << " backfill=" << exp::backfill_kind_name(s.scheduler.backfill)
            << " estimate=" << exp::estimate_kind_name(s.scheduler.estimate)
            << ")\n"
            << (s.scheduler.uses_agent()
                    ? "  agent:          " + s.scheduler.agent + "\n"
                    : std::string())
            << "  load_factor:    " << s.load_factor << "\n"
            << "  heavy_tail:     prob=" << s.heavy_tail_prob
            << " alpha=" << s.heavy_tail_alpha << "\n"
            << "  flurry:         " << (s.inject_flurry ? "inject" : "off")
            << (s.scrub_flurries ? " + scrub" : "") << "\n"
            << "  kill_overrun:   " << (s.kill_exceeding_request ? "on" : "off")
            << "\n";
}

// ------------------------------------------------------------- obs flags

/// The process-wide series recorder behind --series_out. One recorder
/// per process (like the metrics Registry and the trace buffer), so the
/// trainer seam, the orchestrator's per-job duration series, and the
/// registry sampler all latch into the same document. Construction on
/// first use anchors the steady/wall pair.
obs::SeriesRecorder& series_recorder() {
  static obs::SeriesRecorder recorder;
  return recorder;
}

/// The registry sampler feeding series_recorder(). Manual-tick mode:
/// heartbeats and the final dump call sample_once(); no background
/// thread of its own. Against a registry with no enabled metrics it
/// records nothing — which is what keeps a bare --series_out run's
/// series file free of timing-dependent registry data.
obs::RegistrySampler& registry_sampler() {
  static obs::RegistrySampler sampler(series_recorder());
  return sampler;
}

/// Write one obs sink file through obs::write_file: logs "<what> written
/// to <path>" and returns 0, or names the flag on stderr and returns 1.
/// An empty path (flag not given) writes nothing and returns 0.
int write_sink(const char* flag, const std::string& path,
               const std::string& what,
               const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return 0;
  if (obs::write_file(path, write)) {
    util::log_info(what, " written to ", path);
    return 0;
  }
  std::cerr << "rlbf_run: cannot write " << flag << "=" << path << "\n";
  return 1;
}

/// The observability surface run/train/orchestrate share:
/// --metrics_out / --trace_out enable the corresponding obs subsystem
/// for the process and dump its sink to a file at successful exit, and
/// --log_elapsed prefixes every stderr log line with elapsed time.
///
/// Deliberately NOT part of SweepFlags::forward(): these are
/// per-process diagnostics. Workers never inherit the supervisor's own
/// sink paths — instead the job planner gives each worker its OWN
/// sidecar files (sidecars() below, a dist::Sidecars) and the
/// supervisor rolls them up afterwards (save_fleet_obs). Result
/// streams stay byte-identical either way: metrics only ever write to
/// the files named here (status lines go to stderr via util::log),
/// never to stdout or result files.
struct ObsFlags {
  std::string metrics_out;
  std::string trace_out;
  std::string series_out;
  bool log_elapsed = false;

  void bind_obs(exp::ArgParser& parser) {
    parser.add("--metrics_out", &metrics_out,
               "enable metrics collection and write the registry dump "
               "(counters/gauges/histograms, deterministic JSON) here on "
               "success");
    parser.add("--trace_out", &trace_out,
               "enable span tracing and write a Chrome trace_event JSON "
               "(chrome://tracing, Perfetto) here on success");
    parser.add("--series_out", &series_out,
               "write scalar time series (training curves keyed by epoch, "
               "per-job duration series, registry samples when metrics are "
               "enabled) as JSONL here on success; read back with `rlbf_run "
               "curves`. Never changes run/store output bytes");
    parser.add_flag("--log_elapsed", &log_elapsed,
                    "prefix stderr log lines with elapsed time ([+12.034s])");
  }

  /// Flip the process-wide switches. Call immediately after parsing so
  /// every layer below sees the flags. --series_out deliberately does
  /// NOT enable metrics: the series recorder is a pure observer, and a
  /// bare --series_out run keeps an empty registry, so its series file
  /// holds only the bit-deterministic curves (the `rlbf_run curves`
  /// byte-determinism contract). Pass --metrics_out too when registry
  /// samples are wanted.
  void activate_obs() const {
    if (!metrics_out.empty()) obs::set_enabled(true);
    if (!trace_out.empty()) obs::set_tracing(true);
    if (log_elapsed) util::set_log_elapsed(true);
  }

  /// The sidecars a fan-out asks each worker for: the ones this
  /// supervisor writes itself, so save_fleet_obs has them to merge.
  dist::Sidecars sidecars() const {
    return {!metrics_out.empty(), !trace_out.empty(), !series_out.empty()};
  }

  /// Dump the requested sinks; returns 0, or 1 on I/O failure (after a
  /// run's real work succeeded, a lost dump must still fail loudly).
  int save_obs() const {
    int rc = write_sink("--metrics_out", metrics_out, "metrics",
                        [](std::ostream& os) {
                          obs::Registry::instance().write_json(os);
                        });
    rc |= write_sink("--trace_out", trace_out, "trace", obs::write_trace_json);
    if (!series_out.empty()) {
      // Final registry latch first, so a metrics-enabled run's series
      // end with the closing counter deltas (no-op otherwise).
      registry_sampler().sample_once();
      const obs::SeriesRecorder& recorder = series_recorder();
      rc |= write_sink("--series_out", series_out, "series",
                       [&](std::ostream& os) {
                         obs::write_series_jsonl(os, recorder.snapshot(),
                                                 recorder.epoch_anchor_us());
                       });
    }
    return rc;
  }
};

/// Fleet rollup for the orchestrating commands: merge every worker's
/// sidecar with the supervisor's own registry/trace into the files the
/// supervisor's --metrics_out/--trace_out name. Replaces save_obs()
/// there — dumping the raw supervisor registry would overwrite the
/// merged view. Call BEFORE scratch cleanup (the sidecars live in the
/// work dir). A missing or malformed sidecar is a named error and a
/// nonzero exit, never a crash or a silently partial merge.
int save_fleet_obs(const ObsFlags& obs_flags,
                   const std::vector<dist::JobSpec>& jobs) {
  int rc = 0;
  if (!obs_flags.metrics_out.empty()) {
    try {
      std::vector<obs::LabeledMetrics> docs;
      for (const dist::JobSpec& job : jobs) {
        if (job.metrics_path.empty()) continue;
        docs.push_back({"worker" + std::to_string(job.id),
                        obs::load_metrics_file(job.metrics_path)});
      }
      // Supervisor LAST: on a gauge collision the supervisor's view
      // (e.g. dist.worker_utilization) wins the last-write merge.
      docs.push_back({"supervisor",
                      obs::parse_metrics_json(
                          obs::Registry::instance().to_json(), "supervisor")});
      const obs::MergedMetrics merged = obs::merge_metrics(docs);
      rc |= write_sink(
          "--metrics_out", obs_flags.metrics_out,
          "merged metrics (" + std::to_string(merged.sources.size()) +
              " source(s))",
          [&](std::ostream& os) { obs::write_merged_metrics_json(os, merged); });
    } catch (const std::exception& e) {
      std::cerr << "rlbf_run: cannot merge worker metrics: " << e.what()
                << "\n";
      rc = 1;
    }
  }
  if (!obs_flags.trace_out.empty()) {
    try {
      std::vector<obs::LabeledTrace> docs;
      // Supervisor first: its spans take pid 1 of the merged timeline.
      obs::TraceDoc supervisor;
      for (const obs::TraceEvent& ev : obs::trace_events_snapshot()) {
        supervisor.events.push_back({ev, 1});
      }
      supervisor.epoch_anchor_us = obs::trace_epoch_anchor_us();
      docs.push_back({"supervisor", std::move(supervisor)});
      for (const dist::JobSpec& job : jobs) {
        if (job.trace_path.empty()) continue;
        docs.push_back({"worker" + std::to_string(job.id),
                        obs::load_trace_file(job.trace_path)});
      }
      const obs::SplicedTrace spliced = obs::splice_traces(docs);
      rc |= write_sink(
          "--trace_out", obs_flags.trace_out,
          "merged trace (" + std::to_string(spliced.processes.size()) +
              " process(es))",
          [&](std::ostream& os) { obs::write_spliced_trace_json(os, spliced); });
    } catch (const std::exception& e) {
      std::cerr << "rlbf_run: cannot splice worker traces: " << e.what()
                << "\n";
      rc = 1;
    }
  }
  if (!obs_flags.series_out.empty()) {
    try {
      registry_sampler().sample_once();  // closing registry latch (no-op
                                         // unless metrics are enabled)
      std::vector<obs::LabeledSeries> docs;
      // Supervisor first: its curves (training epochs, dist.* job
      // series) lead the merged document's source order.
      docs.push_back({"supervisor",
                      obs::SeriesDoc{series_recorder().snapshot(),
                                     series_recorder().epoch_anchor_us()}});
      for (const dist::JobSpec& job : jobs) {
        if (job.series_path.empty()) continue;
        docs.push_back({"worker" + std::to_string(job.id),
                        obs::load_series_file(job.series_path)});
      }
      const obs::SeriesDoc merged = obs::merge_series(docs);
      rc |= write_sink(
          "--series_out", obs_flags.series_out,
          "merged series (" + std::to_string(docs.size()) + " source(s))",
          [&](std::ostream& os) {
            obs::write_series_jsonl(os, merged.series, merged.epoch_anchor_us);
          });
    } catch (const std::exception& e) {
      std::cerr << "rlbf_run: cannot merge worker series: " << e.what()
                << "\n";
      rc = 1;
    }
  }
  return rc;
}

// ----------------------------------------------------------------- run

/// Every subcommand binds its flags in a struct whose make_parser()
/// renders the same usage text for `rlbf_run help` — one definition per
/// command, shown identically on --help, on errors, and in the
/// consolidated help listing.
///
/// SweepFlags is the result-shaping subset `run`/`sweep` and
/// `orchestrate` share. Both commands bind it from this ONE definition,
/// and forward() derives the worker argv from the same fields — so a
/// flag added here is automatically parsed by both commands AND
/// forwarded to orchestrated workers; there is no hand-written
/// forwarding list to forget, which the merged-output byte-identity
/// promise depends on.
struct SweepFlags {
  std::string scenario;
  std::string sweep;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::size_t replications = 1;
  std::size_t jobs = 0;
  std::size_t samples = 0;
  std::size_t sample_jobs = 1024;
  std::string format = "csv";
  bool per_job = true;
  std::string agent;
  std::string store_root;

  void bind(exp::ArgParser& parser) {
    parser.add("--scenario", &scenario, "scenario name(s), comma-separated");
    parser.add("--sweep", &sweep,
               "parameter grid, e.g. \"load=0.5,1.0;policy=FCFS,SJF\"");
    parser.add("--seed", &seed,
               "master seed (trace construction + replications)");
    parser.add("--threads", &threads, "worker threads (0 = hardware)");
    parser.add("--replications", &replications,
               "runs per instance at split seeds");
    parser.add("--jobs", &jobs,
               "override the scenario's trace length (0 = keep)");
    parser.add("--samples", &samples,
               "use the paper's sampled protocol with this many sequences "
               "(0 = one full-trace run)");
    parser.add("--sample_jobs", &sample_jobs, "jobs per sampled sequence");
    parser.add("--format", &format, "summary file format: csv | json | both");
    parser.add("--per_job", &per_job,
               "write per-job CSVs when --out_dir is set (full-run mode only)");
    parser.add("--agent", &agent,
               "trained-agent reference applied to every instance "
               "(training-spec name, store key, or model file path; 'none' "
               "clears a scenario's reference back to its heuristic)");
    parser.add("--store", &store_root,
               "model store root for agent references "
               "(default: $RLBF_MODEL_STORE or 'models')");
  }

  /// The worker argv these flags describe. Every value is forwarded
  /// explicitly (defaults included), so worker behavior is pinned by
  /// the plan, not by what the worker would happen to default to.
  std::vector<std::string> forward() const {
    std::vector<std::string> argv;
    argv.push_back("--scenario=" + scenario);
    if (!sweep.empty()) argv.push_back("--sweep=" + sweep);
    argv.push_back("--seed=" + std::to_string(seed));
    argv.push_back("--threads=" + std::to_string(threads));
    argv.push_back("--replications=" + std::to_string(replications));
    argv.push_back("--jobs=" + std::to_string(jobs));
    argv.push_back("--samples=" + std::to_string(samples));
    argv.push_back("--sample_jobs=" + std::to_string(sample_jobs));
    argv.push_back("--format=" + format);
    argv.push_back("--per_job=" + std::string(per_job ? "1" : "0"));
    if (!agent.empty()) argv.push_back("--agent=" + agent);
    if (!store_root.empty()) argv.push_back("--store=" + store_root);
    return argv;
  }
};

struct RunArgs : SweepFlags, ObsFlags {
  bool list = false;
  std::string describe;
  std::string out_dir;
  std::string shard_text;

  exp::ArgParser make_parser() {
    exp::ArgParser parser(
        "rlbf_run run", "Run named scheduling scenarios and parameter sweeps.");
    parser.add_flag("--list", &list, "list the scenario catalog and exit");
    parser.add("--describe", &describe,
               "print one scenario's full spec and exit");
    bind(parser);
    parser.add("--out_dir", &out_dir, "write summary + per-job files here");
    parser.add("--shard", &shard_text,
               "run only shard I of an N-way deterministic instance partition "
               "(\"I/N\"); --out_dir files are shard-tagged for `rlbf_run "
               "merge` (empty = unsharded)");
    bind_obs(parser);
    return parser;
  }
};

int run(int argc, char** argv) {
  RunArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);
  args.activate_obs();
  if (!args.store_root.empty()) model::set_default_store_root(args.store_root);
  // Parsed up front so a malformed spec fails before any work runs; the
  // named std::invalid_argument propagates to main's handler.
  exp::ShardSpec shard;
  if (!args.shard_text.empty()) shard = exp::parse_shard(args.shard_text);

  if (args.list) {
    list_scenarios();
    return 0;
  }
  if (!args.describe.empty()) {
    describe_scenario(args.describe);
    return 0;
  }
  if (args.scenario.empty()) {
    std::cerr << "rlbf_run: pass --scenario=NAME (or --list)\n\n"
              << parser.usage();
    return 2;
  }
  if (args.format != "csv" && args.format != "json" && args.format != "both") {
    std::cerr << "rlbf_run: --format must be csv, json, or both\n";
    return 2;
  }

  // Expand --scenario (comma list) x --sweep into concrete instances.
  std::vector<exp::ScenarioSpec> specs;
  const std::vector<exp::SweepAxis> axes = exp::parse_sweep(args.sweep);
  for (const std::string& name : split_names(args.scenario, "--scenario")) {
    exp::ScenarioSpec base = exp::find_scenario(name);
    if (args.jobs > 0) base.trace_jobs = args.jobs;
    // Same convention as the sweep parameter ("none" = heuristic), via
    // the same tested implementation.
    if (!args.agent.empty()) exp::apply_param(base, "agent", args.agent);
    for (exp::ScenarioSpec& instance : exp::expand_grid(base, axes)) {
      specs.push_back(std::move(instance));
    }
  }

  std::vector<exp::SummaryRow> rows;
  std::vector<exp::ScenarioRun> runs;
  // Sharding metadata for tagged output: which global instance each row
  // is, out of how many in the whole (unsharded) sweep.
  std::vector<std::size_t> instances;
  std::size_t total_instances = 0;
  if (args.samples > 0) {
    // Sampled-sequences protocol: one row per instance, with CI. The
    // protocol's sampling stream already covers repetition, so
    // replications don't apply here; per-job results are not collected.
    if (args.replications > 1) {
      std::cerr << "rlbf_run: note: --replications is ignored in --samples "
                   "mode (the protocol samples internally)\n";
    }
    core::EvalProtocol protocol;
    protocol.samples = args.samples;
    protocol.sample_jobs = args.sample_jobs;
    protocol.seed = args.seed;
    total_instances = specs.size();
    instances = exp::shard_instance_indices(total_instances, shard);
    rows.resize(instances.size());
    util::ThreadPool pool(args.threads);
    pool.parallel_for(instances.size(), [&](std::size_t i) {
      const exp::ScenarioSpec& spec = specs[instances[i]];
      rows[i] =
          exp::summarize(spec, exp::evaluate_scenario(spec, protocol), args.seed);
    });
  } else {
    exp::SweepOptions options;
    options.seed = args.seed;
    options.threads = args.threads;
    options.replications = args.replications;
    options.shard_index = shard.index;
    options.shard_count = shard.count;
    total_instances =
        specs.size() *
        (args.replications == 0 ? std::size_t{1} : args.replications);
    instances = exp::run_sweep_instances(specs.size(), options);
    runs = exp::run_sweep(specs, options);
    rows.reserve(runs.size());
    for (const exp::ScenarioRun& r : runs) rows.push_back(exp::summarize(r));
  }

  // Human-readable table on stdout.
  util::Table table({"scenario", "seed", "jobs", "bsld", "avg_wait",
                     "utilization", "backfilled", "killed", "ci95"});
  for (const exp::SummaryRow& row : rows) {
    const std::string ci =
        std::isnan(row.ci_lo) ? ""
                              : "[" + exp::format_metric(row.ci_lo) + ", " +
                                    exp::format_metric(row.ci_hi) + "]";
    table.add_row({row.scenario, std::to_string(row.seed),
                   std::to_string(row.jobs), exp::format_metric(row.bsld),
                   exp::format_metric(row.avg_wait),
                   exp::format_metric(row.utilization),
                   exp::format_count(row.backfilled),
                   exp::format_count(row.killed), ci});
  }
  table.print(std::cout);

  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    if (ec) {
      std::cerr << "rlbf_run: cannot create " << args.out_dir << ": "
                << ec.message() << "\n";
      return 1;
    }
    const bool csv = args.format == "csv" || args.format == "both";
    const bool json = args.format == "json" || args.format == "both";
    bool ok = true;
    const auto save = [&](const std::string& name,
                          const std::function<void(std::ostream&)>& write) {
      ok &= obs::write_file(args.out_dir + "/" + name, write);
    };
    std::vector<std::string> per_job;
    if (args.per_job) {
      for (const exp::ScenarioRun& r : runs) {
        per_job.push_back(exp::per_job_filename(r.scenario, r.seed));
      }
    }
    if (args.shard_text.empty()) {
      if (csv) {
        save("summary.csv",
             [&](std::ostream& os) { exp::write_summary_csv(os, rows); });
      }
      if (json) {
        save("summary.json",
             [&](std::ostream& os) { exp::write_summary_json(os, rows); });
      }
    } else {
      // One shard summary whatever --format is: rows carry their global
      // instance index so `rlbf_run merge` can restore the unsharded
      // order (and detect gaps/duplicates), and the per-job list lets it
      // check the shard's files arrived.
      const exp::ShardSummary summary{shard, total_instances, args.format,
                                      instances, rows, per_job};
      save(exp::shard_summary_filename(shard),
           [&](std::ostream& os) { exp::write_shard_summary(os, summary); });
    }
    for (std::size_t k = 0; k < per_job.size(); ++k) {
      save(per_job[k],
           [&](std::ostream& os) { exp::write_per_job_csv(os, runs[k]); });
    }
    if (!ok) {
      std::cerr << "rlbf_run: failed writing results under " << args.out_dir
                << "\n";
      return 1;
    }
    std::cout << "# results written to " << args.out_dir << "/\n";
  }
  return args.save_obs();
}

// --------------------------------------------------------------- merge

struct MergeArgs {
  std::string inputs;
  std::string out_dir;

  exp::ArgParser make_parser() {
    exp::ArgParser parser(
        "rlbf_run merge",
        "Recombine shard outputs (run/sweep --shard=I/N --out_dir=...) "
        "into the canonical unsharded files — byte-identical to a "
        "single-machine run at the same seed. Each shard directory holds "
        "one summary-shard<I>of<N>.json naming the per-job files it wrote; "
        "the summaries written are those of the shards' --format. "
        "Incomplete or inconsistent shard sets (missing or duplicate "
        "shards or instances, mixed --format, stray or missing per-job "
        "files, an --out_dir that is an input) fail with named errors "
        "before anything is written.");
    parser.add("--inputs", &inputs,
               "comma-separated shard output directories (one per shard)");
    parser.add("--out_dir", &out_dir, "where the merged files go");
    return parser;
  }
};

int merge(int argc, char** argv) {
  MergeArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);

  if (args.inputs.empty() || args.out_dir.empty()) {
    std::cerr
        << "rlbf_run merge: pass --inputs=DIR,DIR,... and --out_dir=DIR\n\n"
        << parser.usage();
    return 2;
  }
  const exp::MergeReport report = exp::merge_shard_dirs(
      split_names(args.inputs, "--inputs"), args.out_dir);
  std::cout << "# merged " << report.shard_count << " shard(s), "
            << report.total_instances << " instance(s)";
  if (report.csv_merged) std::cout << " -> " << args.out_dir << "/summary.csv";
  if (report.json_merged) {
    std::cout << " -> " << args.out_dir << "/summary.json";
  }
  if (report.per_job_files_copied > 0) {
    std::cout << " (+" << report.per_job_files_copied << " per-job files)";
  }
  std::cout << "\n";
  return 0;
}

// --------------------------------------------------------------- train

/// Parse "--inject_fail=1:2,3:1" into the orchestrator's job->count map.
std::map<std::size_t, std::size_t> parse_inject_fail(const std::string& text) {
  std::map<std::size_t, std::size_t> inject;
  if (text.empty()) return inject;
  for (const std::string& item : split_names(text, "--inject_fail")) {
    const std::size_t colon = item.find(':');
    std::uint64_t job = 0;
    std::uint64_t count = 1;
    const std::string job_text =
        colon == std::string::npos ? item : item.substr(0, colon);
    if (!exp::parse_uint64(job_text, &job) ||
        (colon != std::string::npos &&
         !exp::parse_uint64(item.substr(colon + 1), &count))) {
      throw std::invalid_argument("malformed --inject_fail entry '" + item +
                                  "' (want JOB or JOB:COUNT)");
    }
    inject[job] = count;
  }
  return inject;
}

/// The fan-out knobs both fan-outs share — `orchestrate` and
/// `train --workers` bind this one definition and build their
/// supervisor, worker binary, thread split and transport from it, so
/// they cannot drift apart flag by flag.
struct FanoutFlags {
  std::size_t workers = 1;
  std::size_t retries = 1;
  std::string worker_binary;
  std::string work_dir;
  bool keep_work = false;
  double heartbeat = 30.0;
  std::string inject_fail;
  /// --hosts, --command_template, --fetch_template and --timeout bind
  /// straight into it.
  dist::Transport transport;

  /// `workers_help` and the scratch default named in --work_dir's help
  /// are the only per-command differences.
  void bind_fanout(exp::ArgParser& parser, const std::string& workers_help,
                   const std::string& scratch_doc) {
    parser.add("--workers", &workers, workers_help);
    parser.add("--retries", &retries, "extra attempts per failed worker job");
    parser.add("--worker_binary", &worker_binary,
               "worker executable (default: this rlbf_run)");
    parser.add("--work_dir", &work_dir,
               "scratch directory for per-worker outputs (default: " +
                   scratch_doc + ")");
    parser.add_flag("--keep_work", &keep_work,
                    "keep the scratch directory after a successful run "
                    "(a user-supplied --work_dir is never deleted)");
    parser.add("--timeout", &transport.timeout_seconds,
               "per-attempt wall-clock limit in seconds for worker jobs "
               "(0 = none)");
    parser.add("--heartbeat", &heartbeat,
               "seconds between orchestrator heartbeat summaries while "
               "jobs run; with --series_out each heartbeat also samples "
               "the metrics registry into the series file (0 = off)");
    parser.add("--inject_fail", &inject_fail,
               "test hook: \"JOB:COUNT[,JOB:COUNT...]\" forces the first "
               "COUNT attempts of worker job JOB to fail and be retried");
  }

  /// The scratch dir this run uses: --work_dir, or the command's default.
  std::string scratch_dir(const std::string& default_dir) const {
    return work_dir.empty() ? default_dir : work_dir;
  }

  /// Post-success cleanup. Only the DEFAULTED scratch path is ours to
  /// delete — a user-supplied --work_dir may hold unrelated files.
  void cleanup_scratch(const std::string& dir) const {
    if (keep_work || !work_dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // best effort; scratch only
  }

  void bind_transport(exp::ArgParser& parser) {
    parser.add("--hosts", &transport.hosts,
               "comma-separated host list; with --command_template, jobs are "
               "assigned round-robin over it, and a retried job rotates to "
               "the next host (away from the one that just failed)");
    parser.add("--command_template", &transport.command_template,
               "launch each job through this shell template instead of a "
               "local fork/exec; placeholders: {command} or {qcommand} "
               "(required; use {qcommand} — the command quoted once more — "
               "for transports like ssh that re-evaluate their argument in "
               "a remote shell), {host}, {job}, {id}, {out}, {{ for a "
               "literal brace — e.g. \"ssh {host} {qcommand}\"");
    parser.add("--fetch_template", &transport.fetch_template,
               "shell template copying a finished job's output_dir back "
               "({host}, {remote}, {local}, {job}, {id}) — e.g. "
               "\"scp -r {host}:{remote} {local}\"; empty = shared filesystem");
  }

  /// The worker executable: --worker_binary, or this rlbf_run.
  std::string worker() const {
    return worker_binary.empty() ? util::current_executable(g_program_path)
                                 : worker_binary;
  }

  /// The --threads each of `in_flight` concurrent workers gets: the
  /// user's count, else the local hardware split between them (N
  /// workers each defaulting to full concurrency would oversubscribe
  /// the machine N-fold). 0 — no flag — for remote workers, which keep
  /// their own machine's default.
  std::size_t worker_threads(std::size_t threads, std::size_t in_flight) const {
    if (threads != 0 || transport.remote()) return threads;
    return std::max<std::size_t>(
        std::thread::hardware_concurrency() / in_flight, 1);
  }

  /// The job supervisor these flags describe. Progress lines go to
  /// stdout unless `quiet`; with `series`, every job records its
  /// duration series and each heartbeat samples the metrics registry
  /// (sample_once is thread-safe; the heartbeat thread calls it).
  dist::OrchestratorOptions supervisor(bool quiet, bool series) const {
    dist::OrchestratorOptions options;
    options.max_parallel = workers;
    options.max_attempts = retries + 1;
    options.inject_failures = parse_inject_fail(inject_fail);
    options.heartbeat_seconds = heartbeat;
    if (series) {
      options.series = &series_recorder();
      options.on_heartbeat = [] { registry_sampler().sample_once(); };
    }
    if (!quiet) {
      options.on_event = [](const std::string& line) {
        std::cout << "# " << line << "\n" << std::flush;
      };
    }
    return options;
  }
};

/// "out/" and "out" must both put the default scratch BESIDE the
/// directory, never inside it.
std::string trim_trailing_slashes(std::string path) {
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  return path;
}

struct TrainArgs : FanoutFlags, ObsFlags {
  bool list = false;
  std::string spec_names;
  bool ablations = false;
  std::string store_root;
  std::size_t threads = 0;
  bool force = false;
  bool quiet = false;
  std::uint64_t seed = 0;
  std::size_t epochs = 0;
  std::size_t trajectories = 0;
  std::size_t traj_jobs = 0;
  std::size_t jobs = 0;
  std::string shard_text;
  std::string export_bundle;

  exp::ArgParser make_parser() {
    exp::ArgParser parser("rlbf_run train",
                          "Train agents from declarative specs into the model "
                          "store (content-addressed; a second identical train "
                          "is a cache hit and runs nothing).");
    parser.add_flag("--list", &list, "list the training-spec catalog and exit");
    parser.add("--spec", &spec_names, "training spec name(s), comma-separated");
    parser.add_flag("--ablations", &ablations,
                    "train every registered abl-* ablation arm (registration "
                    "order trains warm-start sources before their consumers)");
    parser.add("--store", &store_root,
               "model store root (default: $RLBF_MODEL_STORE or 'models')");
    parser.add("--threads", &threads,
               "worker threads (0 = hardware; never changes the result)");
    parser.add_flag("--force", &force, "retrain even on a store cache hit");
    parser.add_flag("--quiet", &quiet, "suppress the per-epoch progress table");
    parser.add("--seed", &seed,
               "master seed: spec seeds are pre-split from it (0 = keep each "
               "spec's own seed)");
    parser.add("--epochs", &epochs, "override every spec's epochs (0 = keep)");
    parser.add("--trajectories", &trajectories,
               "override trajectories per epoch (0 = keep)");
    parser.add("--traj_jobs", &traj_jobs,
               "override jobs per trajectory (0 = keep)");
    parser.add("--jobs", &jobs, "override the training trace length (0 = keep)");
    parser.add("--shard", &shard_text,
               "train only shard I of an N-way partition of the spec grid "
               "(\"I/N\", round-robin over warm-start dependency groups; "
               "master-seed splits cover the full grid, so the union of all "
               "shards equals the unsharded run)");
    parser.add("--export_bundle", &export_bundle,
               "after training, pack this invocation's entries into a "
               "portable bundle directory (what orchestrated workers ship "
               "back for collection)");
    bind_fanout(parser,
                "fan the spec grid out over this many concurrent worker "
                "processes (local pool, or --command_template over --hosts); "
                "their bundles are imported back into --store, "
                "byte-identical to a sequential run (1 = in-process)",
                "<store>.orchestrate");
    bind_transport(parser);
    bind_obs(parser);
    return parser;
  }
};

int train(int argc, char** argv) {
  TrainArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);
  args.activate_obs();

  if (args.list) {
    util::Table table({"spec", "algorithm", "workload", "base", "budget",
                       "key", "description"});
    for (const std::string& name : model::training_spec_names()) {
      const model::TrainingSpec& s = model::find_training_spec(name);
      table.add_row({s.name, s.trainer.algorithm, s.workload.workload,
                     s.trainer.base_policy,
                     std::to_string(s.trainer.epochs) + "x" +
                         std::to_string(s.trainer.trajectories_per_epoch) + "x" +
                         std::to_string(s.trainer.jobs_per_trajectory),
                     model::fingerprint(s), s.description});
    }
    table.print(std::cout);
    return 0;
  }
  if (args.spec_names.empty() && !args.ablations) {
    std::cerr << "rlbf_run train: pass --spec=NAME, --ablations, or --list\n\n"
              << parser.usage();
    return 2;
  }
  // Both parsed before any work: malformed values must fail fast.
  exp::ShardSpec shard;
  if (!args.shard_text.empty()) shard = exp::parse_shard(args.shard_text);
  if (args.workers == 0) {
    std::cerr << "rlbf_run train: --workers must be >= 1\n";
    return 2;
  }
  if (args.workers > 1 && !args.shard_text.empty()) {
    std::cerr << "rlbf_run train: --workers and --shard are exclusive (the "
                 "fan-out assigns shards itself)\n";
    return 2;
  }
  if (const std::string err = args.transport.pairing_error(); !err.empty()) {
    std::cerr << "rlbf_run train: " << err << "\n";
    return 2;
  }
  if (args.workers > 1 && !args.export_bundle.empty()) {
    std::cerr << "rlbf_run train: --workers and --export_bundle are exclusive "
                 "(the fan-out already collects worker bundles into --store; "
                 "export the collected store with `rlbf_run models "
                 "--export_bundle=...`)\n";
    return 2;
  }
  if (!args.store_root.empty()) model::set_default_store_root(args.store_root);

  // ---- fan-out mode: plan shard jobs, launch workers, import bundles.
  if (args.workers > 1) {
    // Warm starts resolve against each worker's PRIVATE store: an
    // init_agent naming another spec in this grid is co-located with
    // its source by the shard partition, but a reference outside the
    // grid (a store key, or a spec not being trained here) cannot
    // resolve in a fresh worker store — fail now, with the fix named,
    // instead of after every worker exhausts its retries.
    {
      std::vector<std::string> names;
      if (!args.spec_names.empty()) {
        names = split_names(args.spec_names, "--spec");
      }
      if (args.ablations) {
        for (std::string& arm : model::ablation_arm_names()) {
          names.push_back(std::move(arm));
        }
      }
      for (const std::string& name : names) {
        const std::string& init = model::find_training_spec(name).init_agent;
        if (init.empty()) continue;
        const bool in_list =
            std::find(names.begin(), names.end(), init) != names.end();
        std::error_code ec;
        if (in_list || std::filesystem::is_regular_file(init, ec)) continue;
        std::cerr << "rlbf_run train: spec '" << name
                  << "' warm-starts from '" << init
                  << "', which is not in this training list — --workers "
                     "trains into private per-worker stores, so the source "
                     "cannot resolve there. Add it to --spec (the partition "
                     "keeps the chain on one worker) or run without "
                     "--workers.\n";
        return 2;
      }
    }
    const std::string store_root = model::default_store_root();
    const std::string work_dir = args.scratch_dir(
        trim_trailing_slashes(store_root) + ".orchestrate");
    dist::PlanOptions plan;
    plan.worker = args.worker();
    plan.workers = args.workers;
    plan.work_dir = work_dir;
    // Forward exactly the training flags that shape results; each worker
    // trains its shard into a private store and exports a bundle.
    if (!args.spec_names.empty()) plan.args.push_back("--spec=" + args.spec_names);
    if (args.ablations) plan.args.push_back("--ablations");
    if (const std::size_t threads =
            args.worker_threads(args.threads, args.workers)) {
      plan.args.push_back("--threads=" + std::to_string(threads));
    }
    if (args.force) plan.args.push_back("--force");
    plan.args.push_back("--quiet");
    if (args.seed != 0) plan.args.push_back("--seed=" + std::to_string(args.seed));
    if (args.epochs > 0) {
      plan.args.push_back("--epochs=" + std::to_string(args.epochs));
    }
    if (args.trajectories > 0) {
      plan.args.push_back("--trajectories=" + std::to_string(args.trajectories));
    }
    if (args.traj_jobs > 0) {
      plan.args.push_back("--traj_jobs=" + std::to_string(args.traj_jobs));
    }
    if (args.jobs > 0) plan.args.push_back("--jobs=" + std::to_string(args.jobs));
    // Instrumented supervisor => per-worker sidecars, rolled up below.
    plan.sidecars = args.sidecars();

    const std::vector<dist::JobSpec> jobs = dist::plan_train_jobs(plan);
    // Remote transports fetch bundles back under work_dir; create it up
    // front (local workers create their own output dirs).
    std::error_code work_ec;
    std::filesystem::create_directories(work_dir, work_ec);
    const std::unique_ptr<dist::Launcher> launcher =
        args.transport.make_launcher();
    const dist::OrchestrationReport report = dist::run_jobs(
        jobs, *launcher, args.supervisor(args.quiet, !args.series_out.empty()));
    if (!report.all_ok) {
      std::cerr << "rlbf_run train: fan-out failed:\n"
                << report.failure_summary() << "\n";
      return 1;
    }
    model::Store& store = model::default_store();
    const dist::BundleImportTotals totals =
        dist::collect_train_bundles(report, store);
    std::cout << "# collected " << totals.bundles << " worker bundle(s): "
              << totals.imported << " imported, " << totals.skipped_existing
              << " already present in " << store.root() << "/\n";
    // Fleet rollup first: the worker sidecars live in the scratch dir.
    const int obs_rc = save_fleet_obs(args, jobs);
    args.cleanup_scratch(work_dir);
    util::Table table({"key", "spec", "worker"});
    for (const auto& [bundle, imported] : totals.per_bundle) {
      for (const std::string& key : imported.imported) {
        const auto entry = store.lookup(key);
        table.add_row({key, entry ? entry->name : "", bundle});
      }
    }
    table.print(std::cout);
    return obs_rc;
  }

  // ---- in-process mode (optionally one shard of the grid).
  model::Store& store = model::default_store();

  std::vector<std::string> names;
  if (!args.spec_names.empty()) names = split_names(args.spec_names, "--spec");
  if (args.ablations) {
    for (std::string& arm : model::ablation_arm_names()) {
      names.push_back(std::move(arm));
    }
  }
  std::vector<model::TrainingSpec> specs;
  for (const std::string& name : names) {
    model::TrainingSpec spec = model::find_training_spec(name);
    if (args.epochs > 0) spec.trainer.epochs = args.epochs;
    if (args.trajectories > 0) {
      spec.trainer.trajectories_per_epoch = args.trajectories;
    }
    if (args.traj_jobs > 0) spec.trainer.jobs_per_trajectory = args.traj_jobs;
    if (args.jobs > 0) spec.workload.trace_jobs = args.jobs;
    specs.push_back(std::move(spec));
  }

  model::TrainOptions options;
  options.threads = args.threads;
  options.force = args.force;
  options.shard_index = shard.index;
  options.shard_count = shard.count;
  // Per-epoch training curves (policy/value loss, entropy, grad norm,
  // reward/bsld, epsilon, eval) into the process recorder — a pure
  // observer; results and store bytes are identical either way.
  if (!args.series_out.empty()) options.series = &series_recorder();

  if (!args.quiet) {
    // Per-epoch progress goes through util::log (stderr, leveled,
    // optional elapsed prefix) like every other progress surface; the
    // result table below stays the only stdout output.
    options.on_progress = [](const model::TrainingSpec& spec,
                             const core::EpochStats& p) {
      std::string line = spec.name + " epoch " + std::to_string(p.epoch) +
                         " reward=" + exp::format_metric(p.mean_reward) +
                         " bsld=" + exp::format_metric(p.mean_bsld) +
                         " baseline=" + exp::format_metric(p.mean_baseline_bsld) +
                         " steps=" + std::to_string(p.steps);
      if (!std::isnan(p.eval_bsld)) {
        line += " eval=" + exp::format_metric(p.eval_bsld);
      }
      util::log_info(line);
    };
  }

  const std::vector<model::TrainOutcome> outcomes =
      model::train_specs(specs, store, options, args.seed);
  util::Table table({"spec", "key", "status", "epochs", "best_eval", "path"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const model::TrainOutcome& out = outcomes[i];
    table.add_row({specs[out.spec_index].name, out.entry.key,
                   out.cache_hit ? "cache hit (no retraining)" : "trained",
                   std::to_string(out.epochs_run),
                   std::isnan(out.best_eval_bsld)
                       ? ""
                       : exp::format_metric(out.best_eval_bsld),
                   out.entry.path});
  }
  table.print(std::cout);
  if (!shard.is_all()) {
    std::cout << "# shard " << shard.label() << ": " << outcomes.size()
              << " of " << specs.size() << " spec(s)\n";
  }

  if (!args.export_bundle.empty()) {
    // This invocation's entries only (deduplicated — cache hits can
    // repeat keys), so a worker's bundle is exactly its shard.
    std::vector<std::string> keys;
    for (const model::TrainOutcome& out : outcomes) {
      if (std::find(keys.begin(), keys.end(), out.entry.key) == keys.end()) {
        keys.push_back(out.entry.key);
      }
    }
    // export_bundle_exact: an empty shard writes a valid ZERO-entry
    // bundle (collection imports nothing) — never "all entries", which
    // would leak unrelated contents of a reused worker store.
    const std::vector<std::string> exported =
        store.export_bundle_exact(args.export_bundle, keys);
    std::cout << "# exported " << exported.size() << " entr"
              << (exported.size() == 1 ? "y" : "ies") << " to "
              << args.export_bundle << "/\n";
  }
  return args.save_obs();
}

// --------------------------------------------------------- orchestrate

/// The sweep being distributed is the shared SweepFlags block — bound
/// from the same definition `run` uses and forwarded to every worker
/// via SweepFlags::forward() — and the supervision and transport knobs
/// are the shared FanoutFlags block `train` also uses; only --parallel,
/// --out_dir and --quiet are orchestrate's own.
struct OrchestrateArgs : SweepFlags, FanoutFlags, ObsFlags {
  std::size_t parallel = 0;
  std::string out_dir;
  bool quiet = false;

  OrchestrateArgs() { workers = 2; }

  exp::ArgParser make_parser() {
    exp::ArgParser parser(
        "rlbf_run orchestrate",
        "Plan a sweep as N shard jobs, launch them as worker processes "
        "(local pool, or a command template over --hosts), retry failures "
        "(shard outputs are idempotent), and merge the collected shards "
        "into --out_dir — byte-identical to the single-process run.");
    bind(parser);
    bind_fanout(parser,
                "number of shard jobs the sweep is partitioned into",
                "<out_dir>.work — never inside out_dir, which must diff "
                "clean against an unsharded run");
    parser.add("--parallel", &parallel,
               "jobs in flight at once (0 = all workers)");
    parser.add("--out_dir", &out_dir, "where the merged files go (required)");
    bind_transport(parser);
    parser.add_flag("--quiet", &quiet, "suppress per-job progress lines");
    bind_obs(parser);
    return parser;
  }
};

/// Slowest-K straggler table for the orchestrate summary: per-job
/// wall-clock and queue-wait timings ranked against the fleet p50/p95
/// (the same fixed-bucket histogram machinery the metrics registry
/// uses). Timing-dependent output — callers gate it on !quiet; the
/// byte-identity tests compare --quiet stdout only.
void print_straggler_table(const dist::OrchestrationReport& report,
                           std::size_t top_k) {
  if (report.jobs.empty() || top_k == 0) return;
  obs::Histogram hist(obs::duration_buckets());
  for (const dist::JobOutcome& out : report.jobs) {
    hist.observe(out.total_seconds);
  }
  const obs::Histogram::Snapshot snap = hist.snapshot();
  const double p50 = obs::percentile(snap, 0.50);
  const double p95 = obs::percentile(snap, 0.95);
  std::vector<const dist::JobOutcome*> slowest;
  slowest.reserve(report.jobs.size());
  for (const dist::JobOutcome& out : report.jobs) slowest.push_back(&out);
  std::sort(slowest.begin(), slowest.end(),
            [](const dist::JobOutcome* a, const dist::JobOutcome* b) {
              if (a->total_seconds != b->total_seconds) {
                return a->total_seconds > b->total_seconds;
              }
              return a->job.name < b->job.name;
            });
  if (slowest.size() > top_k) slowest.resize(top_k);
  std::cout << "# stragglers: slowest " << slowest.size() << " of "
            << report.jobs.size() << " job(s); fleet p50 "
            << exp::format_metric(p50) << "s, p95 " << exp::format_metric(p95)
            << "s\n";
  util::Table table({"job", "attempts", "queue_s", "total_s", "vs_p50"});
  for (const dist::JobOutcome* out : slowest) {
    const std::string ratio =
        p50 > 0.0 ? exp::format_metric(out->total_seconds / p50) + "x" : "";
    table.add_row({out->job.name, std::to_string(out->attempts),
                   exp::format_metric(out->queue_wait_seconds),
                   exp::format_metric(out->total_seconds), ratio});
  }
  table.print(std::cout);
}

int orchestrate(int argc, char** argv) {
  OrchestrateArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);
  args.activate_obs();

  if (args.scenario.empty() || args.out_dir.empty()) {
    std::cerr << "rlbf_run orchestrate: pass --scenario=NAME and "
                 "--out_dir=DIR\n\n"
              << parser.usage();
    return 2;
  }
  if (args.workers == 0) {
    std::cerr << "rlbf_run orchestrate: --workers must be >= 1\n";
    return 2;
  }
  if (const std::string err = args.transport.pairing_error(); !err.empty()) {
    std::cerr << "rlbf_run orchestrate: " << err << "\n";
    return 2;
  }
  // Deterministic CLI errors fail HERE, like `run`'s own up-front
  // validation — not as workers × attempts of guaranteed-identical
  // failures wrapped in a fan-out summary.
  if (args.format != "csv" && args.format != "json" && args.format != "both") {
    std::cerr << "rlbf_run orchestrate: --format must be csv, json, or both\n";
    return 2;
  }
  exp::parse_sweep(args.sweep);  // named error on a malformed grid
  for (const std::string& name : split_names(args.scenario, "--scenario")) {
    exp::find_scenario(name);  // named error on an unknown scenario
  }

  const std::string work_dir =
      args.scratch_dir(trim_trailing_slashes(args.out_dir) + ".work");

  // The fetch template's {local} destination is under work_dir; create
  // it up front so remote transports can copy into it (local workers
  // create their own out_dirs, but a remote worker only creates the
  // remote side).
  std::error_code work_ec;
  std::filesystem::create_directories(work_dir, work_ec);
  if (work_ec) {
    std::cerr << "rlbf_run orchestrate: cannot create work dir " << work_dir
              << ": " << work_ec.message() << "\n";
    return 1;
  }

  dist::PlanOptions plan;
  plan.worker = args.worker();
  plan.workers = args.workers;
  plan.work_dir = work_dir;
  args.threads = args.worker_threads(
      args.threads,
      args.parallel == 0 ? args.workers : std::min(args.parallel, args.workers));
  // Every result-shaping flag comes from the shared SweepFlags block —
  // adding a flag there forwards it here automatically.
  plan.args = args.forward();
  // When the supervisor is instrumented, every worker writes its own
  // sidecars into the work dir; save_fleet_obs rolls them up below.
  plan.sidecars = args.sidecars();

  const std::vector<dist::JobSpec> jobs = dist::plan_sweep_jobs(plan);

  // Choose the transport: a local process pool, or the user's command
  // template expanded over the host list.
  const std::unique_ptr<dist::Launcher> launcher =
      args.transport.make_launcher();

  dist::OrchestratorOptions supervisor =
      args.supervisor(args.quiet, !args.series_out.empty());
  if (args.parallel != 0) supervisor.max_parallel = args.parallel;
  const dist::OrchestrationReport report =
      dist::run_jobs(jobs, *launcher, supervisor);
  if (!report.all_ok) {
    std::cerr << "rlbf_run orchestrate: run failed:\n"
              << report.failure_summary() << "\n";
    return 1;
  }

  const exp::MergeReport merged = dist::collect_sweep(report, args.out_dir);
  std::cout << "# orchestrated " << jobs.size() << " job(s) ("
            << report.total_attempts << " attempt(s)); merged "
            << merged.shard_count << " shard(s), " << merged.total_instances
            << " instance(s) -> " << args.out_dir << "/\n";
  if (!args.quiet) print_straggler_table(report, 5);
  // Fleet rollup first: the worker sidecars live in the scratch dir.
  const int obs_rc = save_fleet_obs(args, jobs);
  args.cleanup_scratch(work_dir);
  return obs_rc;
}

// ------------------------------------------------------------- profile

/// Hot-path attribution from any trace file this tool writes: a
/// single-process --trace_out dump or an orchestrated run's merged
/// fleet trace. Pure function of the input file — repeated runs on the
/// same trace print byte-identical tables.
struct ProfileArgs {
  std::string trace_positional;
  std::string trace_flag;
  std::size_t top = 0;
  bool by_worker = false;
  std::string csv_out;

  exp::ArgParser make_parser() {
    exp::ArgParser parser(
        "rlbf_run profile",
        "Read a trace file (--trace_out output, single-process or merged "
        "fleet trace) and print the deterministic self-time table per span "
        "name: count, exclusive/inclusive totals, mean, p50/p95/p99.");
    parser.add_positional("trace", &trace_positional,
                          "the trace file (Chrome trace_event JSON)");
    parser.add("--trace", &trace_flag,
               "the trace file (alternative to the positional form)");
    parser.add("--top", &top, "print only the top N span names (0 = all)");
    parser.add_flag("--by_worker", &by_worker,
                    "break the report down per pid (worker) of a merged "
                    "fleet trace: one inclusive/exclusive table per "
                    "process, labeled from the trace's process names");
    parser.add("--csv_out", &csv_out,
               "also write the FULL table (never truncated) as CSV here");
    return parser;
  }
};

int profile(int argc, char** argv) {
  ProfileArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);
  const std::string path =
      !args.trace_positional.empty() ? args.trace_positional : args.trace_flag;
  if (path.empty()) {
    std::cerr << "rlbf_run profile: pass a trace file (positional or "
                 "--trace=FILE)\n\n"
              << parser.usage();
    return 2;
  }
  // load_trace_file throws named errors for missing/empty/malformed
  // files; main's handler renders them as exit 1.
  const obs::TraceDoc doc = obs::load_trace_file(path);
  if (args.by_worker) {
    const std::vector<obs::WorkerProfile> workers =
        obs::profile_report_by_worker(doc.events, doc.process_names);
    obs::write_worker_profile_table(std::cout, workers, args.top);
    std::cout << "# " << workers.size() << " worker(s), " << doc.events.size()
              << " event(s) from " << path << "\n";
    if (!args.csv_out.empty()) {
      if (!obs::write_file(args.csv_out, [&](std::ostream& os) {
            obs::write_worker_profile_csv(os, workers);
          })) {
        std::cerr << "rlbf_run profile: cannot write --csv_out="
                  << args.csv_out << "\n";
        return 1;
      }
      std::cout << "# profile CSV written to " << args.csv_out << "\n";
    }
    return 0;
  }
  const std::vector<obs::ProfileRow> rows = obs::profile_report(doc.events);
  obs::write_profile_table(std::cout, rows, args.top);
  std::cout << "# " << rows.size() << " span name(s), " << doc.events.size()
            << " event(s) from " << path << "\n";
  if (!args.csv_out.empty()) {
    if (!obs::write_file(args.csv_out, [&](std::ostream& os) {
          obs::write_profile_csv(os, rows);
        })) {
      std::cerr << "rlbf_run profile: cannot write --csv_out=" << args.csv_out
                << "\n";
      return 1;
    }
    std::cout << "# profile CSV written to " << args.csv_out << "\n";
  }
  return 0;
}

// -------------------------------------------------------------- curves

/// Read back time series: a --series_out file (single run or merged
/// fleet document), or the training curves a `train` run persisted in
/// its store entry's meta. Every rendering excludes the wall-clock
/// field, so output is byte-deterministic across reruns and thread
/// counts whenever the underlying computation is.
struct CurvesArgs {
  std::string series_positional;
  std::string series_flag;
  std::string store_root;
  std::string spec;
  std::string format = "table";
  std::string out;
  std::string compare;

  exp::ArgParser make_parser() {
    exp::ArgParser parser(
        "rlbf_run curves",
        "Read a --series_out JSONL file (or a trained entry's store-meta "
        "curves) and print the series step-aligned as a table, CSV, or "
        "JSON. Wall-clock stamps are never printed, so deterministic "
        "series render byte-identically across reruns.");
    parser.add_positional("series", &series_positional,
                          "the series file (--series_out JSONL)");
    parser.add("--series", &series_flag,
               "the series file (alternative to the positional form)");
    parser.add("--store", &store_root,
               "with --spec: model store root (default: $RLBF_MODEL_STORE "
               "or 'models')");
    parser.add("--spec", &spec,
               "read the eval/reward/bsld curves persisted in this store "
               "entry's meta instead of a series file (training spec name "
               "or store key)");
    parser.add("--format", &format, "output format: table | csv | json");
    parser.add("--out", &out,
               "write the rendering here instead of stdout (same bytes)");
    parser.add("--compare", &compare,
               "two series files \"A,B\": per-series point counts, last "
               "values, and last-value delta (B - A) instead of a rendering");
    return parser;
  }
};

/// The column label a series renders under: "name", or "source/name"
/// once a fleet merge tagged it.
std::string series_label(const obs::Series& s) {
  return s.source.empty() ? s.name : s.source + "/" + s.name;
}

/// Step-aligned rendering: one row per step in the union of every
/// series' steps, one column per series. A series that recorded several
/// points at one step (dist.attempt_seconds under retries) shows the
/// LAST one — the full point list survives in the json format.
void render_curves_aligned(std::ostream& os,
                           const std::vector<obs::Series>& series, bool csv) {
  std::set<std::int64_t> steps;
  std::vector<std::map<std::int64_t, double>> cells(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (const obs::SeriesPoint& p : series[i].points) {
      steps.insert(p.step);
      cells[i][p.step] = p.value;  // record order: last at a step wins
    }
  }
  std::vector<std::string> headers;
  headers.push_back("step");
  for (const obs::Series& s : series) headers.push_back(series_label(s));
  if (csv) {
    for (std::size_t c = 0; c < headers.size(); ++c) {
      os << (c == 0 ? "" : ",") << headers[c];
    }
    os << "\n";
    for (const std::int64_t step : steps) {
      os << step;
      for (std::size_t i = 0; i < series.size(); ++i) {
        const auto it = cells[i].find(step);
        os << ",";
        if (it != cells[i].end()) os << obs::format_number(it->second);
      }
      os << "\n";
    }
    return;
  }
  util::Table table(headers);
  for (const std::int64_t step : steps) {
    std::vector<std::string> row;
    row.push_back(std::to_string(step));
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto it = cells[i].find(step);
      row.push_back(it != cells[i].end() ? obs::format_number(it->second)
                                         : std::string());
    }
    table.add_row(row);
  }
  table.print(os);
}

/// JSON rendering: the full point lists as [step, value] pairs — the
/// wall-clock field is deliberately absent (the determinism contract).
void render_curves_json(std::ostream& os, const obs::SeriesDoc& doc) {
  obs::json::Writer w(os);
  w.object(true).key("series").array(true);
  for (const obs::Series& s : doc.series) {
    w.object().key("name").value(s.name);
    if (!s.source.empty()) w.key("source").value(s.source);
    w.key("points").array();
    for (const obs::SeriesPoint& p : s.points) {
      w.array().value(p.step).value(p.value).end();
    }
    w.end().end();
  }
  w.end().end();
  os << "\n";
}

/// The store-meta curves of one trained entry, as 1-based-epoch series.
/// NaN entries (epochs the eval cadence skipped) are dropped, matching
/// the trainer's sparse train.eval_bsld recording.
obs::SeriesDoc store_curves(model::Store& store, const std::string& ref) {
  std::optional<model::StoreEntry> entry = store.lookup(ref);
  if (!entry.has_value()) {
    std::vector<model::StoreEntry> matches;
    for (const model::StoreEntry& e : store.list()) {
      if (e.name == ref) matches.push_back(e);
    }
    if (matches.empty()) {
      throw std::runtime_error("curves: no store entry with key or spec "
                               "name '" + ref + "' in " + store.root() + "/");
    }
    if (matches.size() > 1) {
      throw std::runtime_error(
          "curves: " + std::to_string(matches.size()) + " store entries are "
          "named '" + ref + "' — pass the 16-hex key instead");
    }
    entry = std::move(matches.front());
  }
  obs::SeriesDoc doc;
  const auto add_curve = [&](const char* meta_key) {
    const auto it = entry->meta.find(meta_key);
    if (it == entry->meta.end() || it->second.empty()) return;
    obs::Series s;
    s.name = meta_key;
    std::int64_t epoch = 0;
    for (const std::string& token : split_names(it->second, meta_key)) {
      ++epoch;
      double value = 0.0;
      if (!exp::parse_number(token, &value)) {
        throw std::runtime_error("curves: bad value '" + token +
                                 "' in store meta " + meta_key + " of " +
                                 entry->key);
      }
      if (std::isnan(value)) continue;
      s.points.push_back({epoch, value, 0});
    }
    if (!s.points.empty()) doc.series.push_back(std::move(s));
  };
  add_curve("eval_curve");
  add_curve("reward_curve");
  add_curve("bsld_curve");
  if (doc.series.empty()) {
    throw std::runtime_error("curves: store entry " + entry->key +
                             " ('" + entry->name + "') carries no curves "
                             "in its meta (trained before the telemetry "
                             "layer?)");
  }
  return doc;
}

/// Per-series diff of two series files: point counts, last values, and
/// the last-value delta (B - A). Series are matched by (name, source).
int curves_compare(const std::string& compare_text) {
  const std::vector<std::string> paths = split_names(compare_text, "--compare");
  if (paths.size() != 2) {
    std::cerr << "rlbf_run curves: --compare wants exactly two files "
                 "(\"A,B\"), got " << paths.size() << "\n";
    return 2;
  }
  const obs::SeriesDoc a = obs::load_series_file(paths[0]);
  const obs::SeriesDoc b = obs::load_series_file(paths[1]);
  std::map<std::pair<std::string, std::string>, const obs::Series*> in_a, in_b;
  for (const obs::Series& s : a.series) in_a[{s.name, s.source}] = &s;
  for (const obs::Series& s : b.series) in_b[{s.name, s.source}] = &s;
  std::set<std::pair<std::string, std::string>> keys;
  for (const auto& [key, s] : in_a) keys.insert(key);
  for (const auto& [key, s] : in_b) keys.insert(key);
  util::Table table({"series", "n_a", "n_b", "last_a", "last_b", "delta"});
  for (const auto& key : keys) {
    const auto fa = in_a.find(key);
    const auto fb = in_b.find(key);
    const obs::Series* sa = fa == in_a.end() ? nullptr : fa->second;
    const obs::Series* sb = fb == in_b.end() ? nullptr : fb->second;
    const std::string label =
        key.second.empty() ? key.first : key.second + "/" + key.first;
    const bool has_a = sa != nullptr && !sa->points.empty();
    const bool has_b = sb != nullptr && !sb->points.empty();
    table.add_row(
        {label, sa == nullptr ? "-" : std::to_string(sa->points.size()),
         sb == nullptr ? "-" : std::to_string(sb->points.size()),
         has_a ? obs::format_number(sa->points.back().value) : "-",
         has_b ? obs::format_number(sb->points.back().value) : "-",
         has_a && has_b ? obs::format_number(sb->points.back().value -
                                             sa->points.back().value)
                        : ""});
  }
  table.print(std::cout);
  std::cout << "# curves compare: " << paths[1] << " vs " << paths[0] << ": "
            << keys.size() << " series\n";
  return 0;
}

int curves(int argc, char** argv) {
  CurvesArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);
  if (!args.compare.empty()) return curves_compare(args.compare);
  if (args.format != "table" && args.format != "csv" &&
      args.format != "json") {
    std::cerr << "rlbf_run curves: --format must be table, csv, or json\n";
    return 2;
  }

  obs::SeriesDoc doc;
  if (!args.spec.empty()) {
    if (!args.store_root.empty()) {
      model::set_default_store_root(args.store_root);
    }
    doc = store_curves(model::default_store(), args.spec);
  } else {
    const std::string path = !args.series_positional.empty()
                                 ? args.series_positional
                                 : args.series_flag;
    if (path.empty()) {
      std::cerr << "rlbf_run curves: pass a series file (positional or "
                   "--series=FILE), --spec=NAME, or --compare=A,B\n\n"
                << parser.usage();
      return 2;
    }
    // load_series_file throws named errors for missing/empty/malformed
    // files; main's handler renders them as exit 1.
    doc = obs::load_series_file(path);
  }

  std::ostringstream rendered;
  if (args.format == "json") {
    render_curves_json(rendered, doc);
  } else {
    render_curves_aligned(rendered, doc.series, args.format == "csv");
  }
  std::size_t points = 0;
  for (const obs::Series& s : doc.series) points += s.points.size();
  if (args.out.empty()) {
    std::cout << rendered.str();
    std::cout << "# " << doc.series.size() << " series, " << points
              << " point(s)\n";
  } else {
    if (!obs::write_file(args.out,
                         [&](std::ostream& os) { os << rendered.str(); })) {
      std::cerr << "rlbf_run curves: cannot write --out=" << args.out << "\n";
      return 1;
    }
    std::cout << "# " << doc.series.size() << " series, " << points
              << " point(s) written to " << args.out << "\n";
  }
  return 0;
}

// -------------------------------------------------------------- models

struct ModelsArgs {
  std::string store_root;
  bool prune = false;
  std::string import_bundles;
  std::string export_dir;
  std::string export_keys;
  std::uint64_t max_store_bytes = 0;

  exp::ArgParser make_parser() {
    exp::ArgParser parser(
        "rlbf_run models",
        "List and maintain the model store: prune, LRU size cap, and "
        "portable bundle export/import (fingerprint-verified).");
    parser.add("--store", &store_root,
               "model store root (default: $RLBF_MODEL_STORE or 'models')");
    parser.add_flag("--prune", &prune,
                    "remove entries not referenced by any registered training "
                    "spec or scenario");
    parser.add("--import_bundle", &import_bundles,
               "import bundle directories (comma-separated; a directory "
               "whose subdirectories hold bundles imports them all); every "
               "entry re-verified against its fingerprint — corrupt or "
               "mismatched models are rejected");
    parser.add("--export_bundle", &export_dir,
               "pack store entries into this portable bundle directory");
    parser.add("--keys", &export_keys,
               "comma-separated keys for --export_bundle (empty = all entries)");
    parser.add("--max_store_bytes", &max_store_bytes,
               "evict least-recently-used unreferenced entries until the store "
               "fits this many bytes (0 = no cap)");
    return parser;
  }
};

/// The keys `models --prune` / `--max_store_bytes` must never drop:
/// the fingerprint of every registered training spec, every raw store
/// key a registered scenario points at, AND every entry trained under a
/// registered spec's name — the last because resolve_agent's
/// unique-same-name fallback can serve those (e.g. CLI budget
/// overrides), so removing them would break a scenario that resolved a
/// moment earlier. Everything else is removable.
std::vector<std::string> collect_referenced(model::Store& store) {
  std::vector<std::string> referenced;
  const std::vector<std::string> referenced_names = model::training_spec_names();
  for (const std::string& name : referenced_names) {
    referenced.push_back(model::fingerprint(model::find_training_spec(name)));
  }
  for (const std::string& name : exp::scenario_names()) {
    const exp::ScenarioSpec& s = exp::find_scenario(name);
    if (!s.scheduler.uses_agent()) continue;
    if (!model::TrainingRegistry::instance().contains(s.scheduler.agent)) {
      referenced.push_back(s.scheduler.agent);  // raw key reference
    }
  }
  for (const model::StoreEntry& entry : store.list()) {
    if (std::find(referenced_names.begin(), referenced_names.end(),
                  entry.name) != referenced_names.end()) {
      referenced.push_back(entry.key);
    }
  }
  return referenced;
}

int models(int argc, char** argv) {
  ModelsArgs args;
  exp::ArgParser parser = args.make_parser();
  parser.parse_or_exit(argc, argv);

  if (!args.store_root.empty()) model::set_default_store_root(args.store_root);
  model::Store& store = model::default_store();

  if (!args.import_bundles.empty()) {
    // Each comma-separated element may itself be a directory of bundles
    // (the orchestrator's collected work dir) — resolve, then import
    // every bundle with its own per-bundle report line.
    std::size_t total_imported = 0;
    std::size_t total_skipped = 0;
    std::size_t bundle_count = 0;
    for (const std::string& arg :
         split_names(args.import_bundles, "--import_bundle")) {
      for (const std::string& dir : model::find_bundle_dirs(arg)) {
        const model::Store::ImportReport report = store.import_bundle(dir);
        ++bundle_count;
        total_imported += report.imported.size();
        total_skipped += report.skipped_existing.size();
        for (const std::string& key : report.imported) {
          std::cout << "imported " << key << "\n";
        }
        std::cout << "# bundle " << dir << "/: " << report.imported.size()
                  << " imported, " << report.skipped_existing.size()
                  << " already present\n";
      }
    }
    std::cout << "# imported " << total_imported << " entr"
              << (total_imported == 1 ? "y" : "ies") << " ("
              << total_skipped << " already present) from " << bundle_count
              << " bundle(s)\n";
  }

  // One referenced-key set serves both maintenance passes (it hashes
  // every registered spec, so don't compute it twice).
  std::vector<std::string> referenced;
  if (args.prune || args.max_store_bytes > 0) {
    referenced = collect_referenced(store);
  }

  if (args.prune) {
    const std::vector<std::string> removed = store.prune(referenced);
    for (const std::string& key : removed) {
      std::cout << "pruned " << key << "\n";
    }
    std::cout << "# pruned " << removed.size() << " unreferenced "
              << (removed.size() == 1 ? "entry" : "entries") << " from "
              << store.root() << "/\n";
  }

  if (args.max_store_bytes > 0) {
    const model::Store::EvictionResult result =
        store.evict_lru(args.max_store_bytes, referenced);
    for (const std::string& key : result.removed) {
      std::cout << "evicted " << key << "\n";
    }
    std::cout << "# store " << result.bytes_before << " -> "
              << result.bytes_after << " bytes (cap " << args.max_store_bytes
              << ", " << result.removed.size() << " evicted)\n";
  }

  if (!args.export_dir.empty()) {
    std::vector<std::string> keys;
    if (!args.export_keys.empty()) keys = split_names(args.export_keys, "--keys");
    const std::vector<std::string> exported =
        store.export_bundle(args.export_dir, keys);
    std::cout << "# exported " << exported.size() << " entr"
              << (exported.size() == 1 ? "y" : "ies") << " to "
              << args.export_dir << "/\n";
  }

  const auto meta_of = [](const model::StoreEntry& e, const char* key) {
    const auto it = e.meta.find(key);
    return it == e.meta.end() ? std::string() : it->second;
  };
  util::Table table({"key", "spec", "algorithm", "workload", "base", "epochs",
                     "best_eval"});
  for (const model::StoreEntry& entry : store.list()) {
    table.add_row({entry.key, entry.name, meta_of(entry, "algorithm"),
                   meta_of(entry, "workload"), meta_of(entry, "base_policy"),
                   meta_of(entry, "epochs"), meta_of(entry, "best_eval_bsld")});
  }
  table.print(std::cout);
  std::cout << "# " << store.list().size() << " model(s) in " << store.root()
            << "/\n";
  return 0;
}

// ---------------------------------------------------------------- help

struct Command {
  const char* name;
  const char* blurb;                      // one line for the overview
  std::string (*usage)();                 // the command's full usage text
  int (*handler)(int argc, char** argv);  // argv[0] is the command name
};

/// One place enumerates every subcommand; dispatch, `help`, `help
/// <command>`, and the unknown-command error all read it, so they can
/// never drift apart.
const std::vector<Command>& command_table() {
  static const std::vector<Command> commands = {
      {"run", "run scenarios and parameter sweeps (alias: sweep)",
       [] { return RunArgs{}.make_parser().usage(); }, run},
      {"sweep", "alias of run (reads naturally with --shard=I/N)",
       [] { return RunArgs{}.make_parser().usage(); }, run},
      {"merge", "recombine shard-tagged sweep outputs",
       [] { return MergeArgs{}.make_parser().usage(); }, merge},
      {"orchestrate", "launch, supervise, and merge a distributed sweep",
       [] { return OrchestrateArgs{}.make_parser().usage(); }, orchestrate},
      {"train", "train specs into the model store (sharded or fanned out)",
       [] { return TrainArgs{}.make_parser().usage(); }, train},
      {"models", "list and maintain the model store",
       [] { return ModelsArgs{}.make_parser().usage(); }, models},
      {"profile", "self-time table per span name from a trace file",
       [] { return ProfileArgs{}.make_parser().usage(); }, profile},
      {"curves",
       "render --series_out time series (training curves, fleet series) "
       "as aligned table/CSV/JSON",
       [] { return CurvesArgs{}.make_parser().usage(); }, curves},
  };
  return commands;
}

std::string known_command_names() {
  std::string names;
  for (const Command& command : command_table()) {
    names += (names.empty() ? "" : ", ") + std::string(command.name);
  }
  return names + ", help";
}

int help(int argc, char** argv) {
  if (argc > 1) {
    const std::string name = argv[1];
    for (const Command& command : command_table()) {
      if (name == command.name) {
        std::cout << command.usage();
        return 0;
      }
    }
    std::cerr << "rlbf_run help: unknown command '" << name
              << "' (known: " << known_command_names() << ")\n";
    return 2;
  }
  std::cout << "rlbf_run — scenario runs, distributed sweeps, and the model "
               "store, one driver.\n\n"
            << "Commands (rlbf_run help <command> for full usage):\n";
  for (const Command& command : command_table()) {
    const std::size_t len = std::strlen(command.name);
    const std::size_t pad = len < 13 ? 13 - len : 2;
    std::cout << "  " << command.name << std::string(pad, ' ')
              << command.blurb << "\n";
  }
  std::cout << "\nThe bare legacy flag form (no subcommand) means `run`.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 0) g_program_path = argv[0];
    // Subcommand dispatch; the bare legacy flag form still means `run`.
    if (argc > 1 && argv[1][0] != '-') {
      const std::string command = argv[1];
      for (const Command& entry : command_table()) {
        if (command == entry.name) return entry.handler(argc - 1, argv + 1);
      }
      if (command == "help") return help(argc - 1, argv + 1);
      std::cerr << "rlbf_run: unknown command '" << command
                << "' (known: " << known_command_names() << ")\n";
      return 2;
    }
    // Top-level --help lists every command, like `help`.
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
      return help(1, argv);
    }
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rlbf_run: " << e.what() << "\n";
    return 1;
  }
}
