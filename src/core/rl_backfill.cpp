#include "core/rl_backfill.h"

namespace rlbf::core {

RlBackfillChooser::RlBackfillChooser(const Agent& agent, std::string label)
    : agent_(agent), label_(std::move(label)) {}

std::optional<std::size_t> RlBackfillChooser::choose(const sim::BackfillContext& ctx) {
  return agent_.choose_greedy(ctx, buffers_);
}

}  // namespace rlbf::core
