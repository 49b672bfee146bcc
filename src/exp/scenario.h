// Scenario engine: a ScenarioSpec names everything one evaluation run
// needs — workload preset, trace transformations (load scaling,
// heavy-tail runtimes, flurry injection/scrubbing), scheduler
// configuration, and simulation options — and a global registry maps
// memorable names ("sdsc-easy", "sdsc-flurry", ...) to curated specs
// seeded from the repo's bench and example programs.
//
// Everything is deterministic in (spec, seed): build_trace() constructs
// the exact same job sequence for equal inputs, and run_scenario()
// therefore produces byte-identical metrics no matter where or how
// concurrently it executes. The sweep engine (exp/sweep.h) relies on
// this to parallelize without losing reproducibility.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "sched/scheduler.h"
#include "sim/event_sim.h"
#include "swf/trace.h"
#include "workload/transforms.h"

namespace rlbf::exp {

/// A complete, named description of one evaluation scenario.
struct ScenarioSpec {
  std::string name;         // registry key; instances get "/k=v" suffixes
  std::string description;  // one line for --list / --describe

  // ---- workload construction, applied in declaration order ----
  std::string workload = "SDSC-SP2";  // preset name (workload::all_targets)
  std::size_t trace_jobs = 10000;     // paper: first 10K jobs
  std::int64_t machine_procs = 0;     // cluster size override (0 = preset)
  double load_factor = 1.0;           // workload::scale_load when != 1
  double heavy_tail_prob = 0.0;       // workload::inject_heavy_tail when > 0
  double heavy_tail_alpha = 1.5;
  bool inject_flurry = false;         // workload::inject_flurry
  std::int64_t flurry_user = 424242;
  std::int64_t flurry_start = 86400;
  std::size_t flurry_count = 500;
  std::int64_t flurry_gap = 2;
  std::int64_t flurry_run = 120;
  bool scrub_flurries = false;        // workload::remove_flurries

  // ---- scheduler under test ----
  sched::SchedulerSpec scheduler;

  // ---- simulation options ----
  bool kill_exceeding_request = false;  // the paper's §2.1.2 kill contract
  std::size_t max_backfills = 0;        // 0 = unlimited

  /// "<workload> <scheduler label>" plus any active variant markers.
  std::string label() const;
};

/// Side data produced while building a scenario trace.
struct TraceBuildInfo {
  workload::FlurryReport flurry;  // populated when scrub_flurries is set
};

/// Construct the scenario's evaluation trace. Deterministic in
/// (spec, seed); throws std::invalid_argument for unknown workloads.
swf::Trace build_trace(const ScenarioSpec& spec, std::uint64_t seed,
                       TraceBuildInfo* info = nullptr);

/// The canonical rendering of a spec's workload-construction fields (the
/// trace cache key, minus the seed). Two specs with equal keys build
/// identical traces at equal seeds, whatever their schedulers are.
std::string trace_cache_key(const ScenarioSpec& spec);

/// Memoized build_trace: sweep instances (and training specs) sharing
/// identical workload-construction fields and seed get one shared
/// immutable trace instead of regenerating it per instance. Thread-safe;
/// the cache is process-wide and LRU-bounded.
std::shared_ptr<const swf::Trace> build_trace_cached(
    const ScenarioSpec& spec, std::uint64_t seed, TraceBuildInfo* info = nullptr);

/// Snapshot of the trace-cache counters. The counts live in the obs
/// metrics registry (exp.trace_cache.hits / .misses / .evictions) so a
/// --metrics_out dump reports them; this struct is a convenience read of
/// those counters plus the current residency.
struct TraceCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
};
TraceCacheStats trace_cache_stats();
void clear_trace_cache();

/// The SimulationOptions a spec describes.
sim::SimulationOptions sim_options(const ScenarioSpec& spec);

/// Outcome of one full-trace scenario simulation.
struct ScenarioRun {
  std::string scenario;  // spec.name
  std::string label;     // spec.label()
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  sim::ScheduleMetrics metrics;
  std::vector<sim::JobResult> results;  // trace order
};

/// Simulate the whole scenario trace once. Noisy-estimate scenarios with
/// noise_seed == 0 derive the estimator seed from `seed`, so repeated
/// runs at one seed are identical and different seeds decorrelate.
ScenarioRun run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

/// The paper's sampled-sequences protocol (§4.3) over the scenario's
/// trace: mean bsld over `protocol.samples` random 1024-job sequences
/// with a bootstrap CI. The trace is built with protocol.seed, and
/// `protocol.options` is replaced by sim_options(spec) — the scenario
/// owns its simulation options.
core::EvalResult evaluate_scenario(const ScenarioSpec& spec,
                                   const core::EvalProtocol& protocol);

/// Global name -> spec registry, pre-seeded with the built-in catalog.
class ScenarioRegistry {
 public:
  /// The process-wide registry; built-ins are registered on first use.
  static ScenarioRegistry& instance();

  /// Register a spec; throws std::invalid_argument on empty or duplicate
  /// names.
  void add(ScenarioSpec spec);

  bool contains(const std::string& name) const;

  /// Throws std::invalid_argument naming the unknown scenario and
  /// listing what is available.
  const ScenarioSpec& get(const std::string& name) const;

  /// Registration order (the catalog's display order).
  std::vector<std::string> names() const;

 private:
  // deque: references returned by get() stay valid across later add()s.
  std::deque<ScenarioSpec> specs_;
};

/// Shorthands for ScenarioRegistry::instance().
const ScenarioSpec& find_scenario(const std::string& name);
std::vector<std::string> scenario_names();

/// Enum <-> string helpers shared by the sweep parser and the CLI.
sched::BackfillKind parse_backfill_kind(const std::string& name);
std::string backfill_kind_name(sched::BackfillKind kind);
sched::EstimateKind parse_estimate_kind(const std::string& name);
std::string estimate_kind_name(sched::EstimateKind kind);

}  // namespace rlbf::exp
