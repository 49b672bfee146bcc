// The collector seam: trajectory PRODUCTION (sampling a sequence,
// simulating the baseline, rolling the policy out) is separated from
// trajectory CONSUMPTION (the PPO/DQN/REINFORCE updates), so the one
// learner loop serves all three algorithms and a collector can be
// wrapped (instrumented, replaced in tests) without touching it.
// ThreadCollector, an in-process thread pool, is the one collector the
// trainer runs.
//
// The determinism contract every collector must honor:
//   * the learner pre-draws one seed per sequence on its own RNG stream
//     (CollectionPlan::seeds), so nothing downstream consumes learner
//     randomness;
//   * a sequence's result is a pure function of (seed, trace, policy,
//     model parameters, environment config) — never of which thread
//     produced it;
//   * results come back indexed by sequence, in sequence order.
// Under that contract every thread count produces byte-identical
// epochs, which is what keeps model store keys and golden benches
// stable across --threads.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "rl/rollout.h"
#include "util/thread_pool.h"

namespace rlbf::rl {

/// What collecting one sequence yields: the episode the TrainingEnv
/// recorded plus the two diagnostics every trainer aggregates.
struct SequenceResult {
  Episode episode;
  double bsld = 0.0;
  double baseline_bsld = 0.0;
};

/// One epoch's collection request. The seeds are pre-drawn by the
/// learner (sequence i always collects with seeds[i]).
/// Learner::prepare_epoch reads `epoch` to set `epsilon`, the DQN
/// exploration rate (NaN when the algorithm has none), which the
/// epoch's stats report.
struct CollectionPlan {
  std::vector<std::uint64_t> seeds;
  std::size_t epoch = 0;  // 1-based epoch being collected
  double epsilon = std::numeric_limits<double>::quiet_NaN();
};

/// Produce sequence `index` with `seed`. `slot` addresses the
/// caller-provisioned model replica the sequence may read
/// (0 <= slot < Collector::slots()).
using SequenceFn =
    std::function<SequenceResult(std::size_t index, std::uint64_t seed,
                                 std::size_t slot)>;

/// A rollout collector. collect() returns exactly
/// plan.seeds.size() results in sequence order.
class Collector {
 public:
  virtual ~Collector() = default;

  /// How many replica slots the caller must provision before collect()
  /// (model replicas are read concurrently, so each slot gets a private
  /// copy).
  virtual std::size_t slots(std::size_t n_sequences) const = 0;

  virtual std::vector<SequenceResult> collect(const CollectionPlan& plan,
                                              const SequenceFn& fn) = 0;
};

/// The thread-pool collector. Sequence t runs on replica slot
/// t % slots, so an epoch is bit-identical at any pool size.
class ThreadCollector : public Collector {
 public:
  /// `pool` must outlive the collector.
  explicit ThreadCollector(util::ThreadPool& pool) : pool_(&pool) {}

  std::size_t slots(std::size_t n_sequences) const override {
    return std::min(pool_->size(), n_sequences);
  }

  std::vector<SequenceResult> collect(const CollectionPlan& plan,
                                      const SequenceFn& fn) override;

 private:
  util::ThreadPool* pool_;
};

}  // namespace rlbf::rl
