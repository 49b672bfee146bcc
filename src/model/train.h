// The training executor: resolve a TrainingSpec to a trace (through the
// exp trace cache), run core::Trainer under the spec's algorithm (PPO, or
// the DQN/REINFORCE ablation arms), checkpoint best-so-far agents next to
// the store entry, and commit the result under the spec's fingerprint. A
// second call with an equal fingerprint is a cache hit and runs nothing.
//
// resolve_agent() is the deployment-side counterpart: it turns the agent
// reference a ScenarioSpec carries (training-spec name, store key, or
// model file path) into a shared, process-cached core::Agent — the hook
// exp::run_scenario / evaluate_scenario use for RL-backed backfilling.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "model/store.h"
#include "model/training_spec.h"

namespace rlbf::obs {
class SeriesRecorder;
}  // namespace rlbf::obs

namespace rlbf::model {

struct TrainOptions {
  /// Worker threads for collection/updates; 0 = the spec's setting (which
  /// usually means hardware concurrency). Runtime-only: results and
  /// fingerprints are identical at any value.
  std::size_t threads = 0;
  /// Retrain and overwrite even when the store already holds the key.
  bool force = false;
  /// Write the best-so-far agent to <store>/<key>.ckpt whenever the
  /// held-out evaluation improves, so long runs are resumable artifacts
  /// even if interrupted; the checkpoint is removed on commit.
  bool checkpoint = true;
  /// Observes every epoch of every spec (progress tables, logging).
  std::function<void(const TrainingSpec&, const core::EpochStats&)> on_progress;
  /// Time-series recorder attached to every trainer (borrowed; must
  /// outlive the call). Each epoch records the train.* curves keyed by
  /// epoch number (--series_out). nullptr records nothing; recording is
  /// a pure observer, so results and store bytes are identical either
  /// way.
  obs::SeriesRecorder* series = nullptr;
  /// Distributed execution (mirroring exp::SweepOptions): train only
  /// shard `shard_index` of a `shard_count`-way partition of the spec
  /// list. The partition is round-robin over warm-start dependency
  /// GROUPS — a spec whose init_agent names another spec in the list
  /// always lands on the same shard as its source, in list order, so
  /// every shard can resolve its own warm starts against its own store.
  /// Seeds derived from a master seed are split over the FULL list
  /// before partitioning, so the union of all shards' results is
  /// identical to an unsharded run. The default 0/1 is "everything".
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

struct TrainOutcome {
  StoreEntry entry;
  bool cache_hit = false;      // true: nothing ran, the store already had it
  std::size_t epochs_run = 0;  // 0 on cache hits
  double best_eval_bsld = std::numeric_limits<double>::quiet_NaN();
  /// Position of this outcome's spec in the list passed to
  /// train_specs() — the global grid index even when sharded (0 for
  /// single-spec entry points), so callers never recompute the
  /// partition to pair outcomes with specs.
  std::size_t spec_index = 0;
};

/// Train one spec into the store (or return the cached entry). Throws
/// std::invalid_argument on unknown algorithms (core::make_learner) and
/// propagates trainer and store errors.
TrainOutcome train_spec(const TrainingSpec& spec, Store& store,
                        const TrainOptions& options = {});

/// Bench-style entry point: train on an explicit, possibly transformed
/// trace instead of a spec-resolved one. The store key fingerprints the
/// spec's trainer protocol PLUS a content hash of the trace, so two
/// different transformed traces can never collide on one cache entry.
TrainOutcome train_on_trace(const swf::Trace& trace, const TrainingSpec& spec,
                            Store& store, const TrainOptions& options = {});

/// Train several specs sequentially (each trainer parallelizes
/// internally over the thread pool). When `master_seed` is nonzero, each
/// spec's seed is pre-split from util::Rng(master_seed) on the calling
/// thread — spec 0 trains at master_seed itself, matching the sweep
/// executor's replication convention — so one flag reseeds a whole batch
/// deterministically.
/// With options.shard_count > 1, only the shard's specs are trained
/// (still in list order) and the outcomes align with
/// train_shard_indices(). Throws std::invalid_argument on
/// shard_count == 0 or shard_index >= shard_count.
std::vector<TrainOutcome> train_specs(const std::vector<TrainingSpec>& specs,
                                      Store& store,
                                      const TrainOptions& options = {},
                                      std::uint64_t master_seed = 0);

/// The global spec indices shard `shard_index` of `shard_count` owns,
/// ascending — the partition train_specs runs. Round-robin over
/// warm-start dependency groups: specs connected through init_agent
/// references (by spec name, transitively) form one group assigned to
/// the shard of the group's first member; independent specs are
/// single-element groups, so with no init_agent references in the list
/// this is plain round-robin by position. Shards whose groups run out
/// come back empty — a valid result whose bundle imports zero entries.
std::vector<std::size_t> train_shard_indices(
    const std::vector<TrainingSpec>& specs, std::size_t shard_index,
    std::size_t shard_count);

/// Resolve an agent reference against the default store:
///   1. an existing model file path — loaded directly;
///   2. a registered training-spec name — fingerprinted and looked up
///      (throws, naming the `rlbf_run train` command to run, when the
///      model has not been trained yet);
///   3. a raw store key.
/// Results are cached per (store root, reference) for the process
/// lifetime, so sweeps resolve each agent once.
std::shared_ptr<const core::Agent> resolve_agent(const std::string& ref);

/// Drop the resolve_agent cache (tests; after retraining with --force).
void clear_agent_cache();

}  // namespace rlbf::model
