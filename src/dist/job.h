// The distributed job model: what one worker invocation is.
//
// PR 4 made the primitives safe to drive blindly — shard outputs are a
// deterministic partition that merges byte-identically, store bundles
// are fingerprint-verified on import, and both are idempotent — so a
// job here is nothing more than a worker command line plus the output
// directory it promises to fill. The plan builders partition the two
// distributable workloads:
//
//   plan_sweep_jobs  — N jobs `rlbf_run sweep ... --shard=i/N
//                      --out_dir=<work>/shard<i>`; the collector merges
//                      the shard dirs (exp::merge_shard_dirs).
//   plan_train_jobs  — N jobs `rlbf_run train ... --shard=i/N
//                      --store=<work>/worker<i>/store
//                      --export_bundle=<work>/worker<i>/bundle`; the
//                      collector imports every bundle into one shared
//                      store (model::Store::import_bundle).
//
// Plans are pure functions of their options — no clocks, no host state —
// so the same invocation always produces the same jobs, and a retried
// job reruns exactly what failed.
//
// The per-worker observability sidecars are one Sidecars value laid out
// by one add_sidecars(), shared by both plan builders and the rollout
// transport (dist/rollout.h), so every fan-out names them identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rlbf::dist {

struct JobSpec {
  /// Position in the plan; stable across retries (failure logs and the
  /// --inject_fail test hook address jobs by this id).
  std::size_t id = 0;
  /// 1-based attempt number, stamped by the orchestrator on each launch
  /// (planned jobs carry 1). Host-mapping launchers rotate on it, so a
  /// retry lands on a different host than the attempt that just failed.
  std::size_t attempt = 1;
  /// Human name for logs: "sweep-shard0/3", "train-shard1/3".
  std::string name;
  /// The worker command in local argv form; launchers for remote
  /// transports render it into their command template.
  std::vector<std::string> argv;
  /// The directory the job fills — a shard --out_dir or a bundle dir.
  /// Local path for LocalLauncher; for remote launchers also the remote
  /// path the fetch template copies back from.
  std::string output_dir;

  /// Observability sidecars the worker was told to write (empty when
  /// the plan didn't request them). They live at the work_dir root —
  /// NOT inside output_dir — so collectors that merge or import job
  /// outputs never see them; and being under work_dir, local/shared-fs
  /// launchers need no extra fetch step (remote transports that only
  /// copy output_dir back won't retrieve them).
  std::string metrics_path;
  std::string trace_path;
  std::string series_path;

  std::string command_line() const;  // shell-quoted rendering for logs
};

/// Which per-process observability sidecars a fan-out asks each worker
/// for — set from the supervisor's own --metrics_out/--trace_out/
/// --series_out, so an instrumented supervisor gets an instrumented
/// fleet to merge afterwards (obs::merge / obs::merge_series).
struct Sidecars {
  bool metrics = false;
  bool trace = false;
  bool series = false;
};

/// Point `job` at its sidecar files — <work_dir>/worker<job.id>
/// .metrics.json / .trace.json / .series.jsonl, each only when
/// requested — and append the matching --metrics_out/--trace_out/
/// --series_out flags to its argv. Every fan-out (plan builders and
/// dist::ProcessCollector) lays sidecars out through this one function.
void add_sidecars(JobSpec& job, const Sidecars& sidecars,
                  const std::string& work_dir);

/// Common plan inputs: the worker binary (normally the running rlbf_run
/// itself), the pass-through flags of the underlying subcommand (without
/// any --shard/--out_dir/--store/--export_bundle — the planner owns
/// those), the partition width, the scratch directory per-job outputs
/// live under, and the sidecars every planned job writes there.
struct PlanOptions {
  std::string worker;
  std::vector<std::string> args;
  std::size_t workers = 1;
  std::string work_dir;
  Sidecars sidecars;
};

/// N shard-sweep jobs over the `run`/`sweep` flags in `options.args`.
/// Shard i writes its shard summary + per-job CSVs into
/// <work_dir>/shard<i>. Throws std::invalid_argument on an empty worker
/// or work_dir, or workers == 0.
std::vector<JobSpec> plan_sweep_jobs(const PlanOptions& options);

/// N training jobs over the `train` flags in `options.args`. Worker i
/// trains spec-grid shard i/N into its own store and exports the
/// results as <work_dir>/worker<i>/bundle. Same validation as
/// plan_sweep_jobs.
std::vector<JobSpec> plan_train_jobs(const PlanOptions& options);

}  // namespace rlbf::dist
