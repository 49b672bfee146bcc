#include "sched/easy_backfill.h"

#include <algorithm>

namespace rlbf::sched {

EasyBackfillChooser::EasyBackfillChooser(BackfillOrder order) : order_(order) {}

bool EasyBackfillChooser::admissible_with_estimate(const swf::Job& candidate,
                                                   const sim::Reservation& res,
                                                   std::int64_t estimate,
                                                   std::int64_t now) {
  const std::int64_t est_end = now + estimate;
  if (est_end <= res.shadow_time) return true;      // done before the reservation
  return candidate.procs() <= res.extra_procs;      // fits the spare processors
}

std::optional<std::size_t> EasyBackfillChooser::choose(const sim::BackfillContext& ctx) {
  const auto fits = [&](std::size_t i) {
    return admissible_with_estimate(ctx.trace[ctx.candidates[i]], ctx.reservation,
                                    sim::context_estimate(ctx, ctx.candidates[i]),
                                    ctx.now);
  };
  // Candidates arrive in priority order; classic EASY takes the first
  // admissible one as it stands.
  if (order_ == BackfillOrder::QueueOrder) {
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
      if (fits(i)) return i;
    }
    return std::nullopt;
  }
  ranked_.resize(ctx.candidates.size());
  for (std::size_t i = 0; i < ranked_.size(); ++i) ranked_[i] = i;
  switch (order_) {
    case BackfillOrder::QueueOrder:  // scanned in place above
      break;
    case BackfillOrder::ShortestFirst:
      std::stable_sort(ranked_.begin(), ranked_.end(), [&](std::size_t a, std::size_t b) {
        return sim::context_estimate(ctx, ctx.candidates[a]) <
               sim::context_estimate(ctx, ctx.candidates[b]);
      });
      break;
    case BackfillOrder::WidestFirst:
      std::stable_sort(ranked_.begin(), ranked_.end(), [&](std::size_t a, std::size_t b) {
        return ctx.trace[ctx.candidates[a]].procs() >
               ctx.trace[ctx.candidates[b]].procs();
      });
      break;
    case BackfillOrder::NarrowestFirst:
      std::stable_sort(ranked_.begin(), ranked_.end(), [&](std::size_t a, std::size_t b) {
        return ctx.trace[ctx.candidates[a]].procs() <
               ctx.trace[ctx.candidates[b]].procs();
      });
      break;
  }
  for (const std::size_t i : ranked_) {
    if (fits(i)) return i;
  }
  return std::nullopt;
}

std::string EasyBackfillChooser::name() const {
  switch (order_) {
    case BackfillOrder::QueueOrder: return "EASY";
    case BackfillOrder::ShortestFirst: return "EASY-SJF";
    case BackfillOrder::WidestFirst: return "EASY-BestFit";
    case BackfillOrder::NarrowestFirst: return "EASY-WorstFit";
  }
  return "EASY";
}

}  // namespace rlbf::sched
