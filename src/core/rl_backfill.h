// Deployment-time RLBackfilling: a BackfillChooser that consults a
// trained agent greedily. Plugs into sim::simulate exactly like EASY or
// conservative backfilling, which is how Tables 4 and 5 compare them.
#pragma once

#include <string>

#include "core/agent.h"
#include "sim/event_sim.h"

namespace rlbf::core {

class RlBackfillChooser final : public sim::BackfillChooser {
 public:
  /// The agent must outlive the chooser.
  explicit RlBackfillChooser(const Agent& agent, std::string label = "RLBF");

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override { return label_; }

 private:
  const Agent& agent_;
  std::string label_;
  GreedyBuffers buffers_;
};

}  // namespace rlbf::core
