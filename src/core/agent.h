// The RLBackfilling agent: observation builder + actor-critic model +
// persistence. Training (core/trainer.h) mutates the model in place;
// deployment (core/rl_backfill.h) queries it greedily — "during testing,
// we directly select the job with the highest probability".
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/networks.h"

namespace rlbf::core {

/// Storage the greedy decision path reuses across decisions: the policy
/// observation and the forward pass's two buffers. One per chooser.
struct GreedyBuffers {
  PolicyObservation obs;
  nn::Tensor logits;
  nn::Tensor scratch;
};

struct AgentConfig {
  ObservationConfig obs;
  NetworkConfig net;
  /// Kernel policy (the paper's design) vs flat MLP (ablation A1).
  bool kernel_policy = true;
};

class Agent {
 public:
  /// Fresh randomly initialized agent.
  Agent(const AgentConfig& config, std::uint64_t seed);
  /// Wrap an existing model (takes ownership).
  Agent(const AgentConfig& config, std::unique_ptr<rl::ActorCritic> model);

  const AgentConfig& config() const { return config_; }
  rl::ActorCritic& model() { return *model_; }
  const rl::ActorCritic& model() const { return *model_; }
  const ObservationBuilder& observer() const { return observer_; }

  /// Independent copy (worker replicas, checkpointing).
  Agent clone() const;

  /// Greedy action for one backfilling opportunity: index into
  /// ctx.candidates, or nullopt when every candidate is masked/cut off
  /// (or the stop row wins). The kernel policy builds and scores only
  /// the selectable rows (ObservationBuilder::build_selectable_into);
  /// the flat policy builds the padded full observation. Allocation-free
  /// once `buffers` have seen the deepest queue.
  std::optional<std::size_t> choose_greedy(const sim::BackfillContext& ctx,
                                           GreedyBuffers& buffers) const;

  /// Persistence. `meta` is stored verbatim (trace name, epochs, ...).
  bool save(const std::string& path,
            const std::map<std::string, std::string>& meta = {}) const;
  /// Throws std::runtime_error on unreadable/ill-formed files.
  static Agent load(const std::string& path);
  /// Metadata stored alongside a saved agent.
  static std::map<std::string, std::string> load_meta(const std::string& path);

 private:
  AgentConfig config_;
  ObservationBuilder observer_;
  std::unique_ptr<rl::ActorCritic> model_;
};

}  // namespace rlbf::core
