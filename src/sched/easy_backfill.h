// EASY backfilling (Lifka '95): at a backfilling opportunity, a queued
// job may jump the blocked head job if, by the runtime estimates, it
// either finishes before the head job's reservation (shadow time) or
// fits into the processors that remain spare at that reservation.
//
// The ordering in which candidates are tried is configurable:
//   QueueOrder    — base-policy priority order (classic EASY)
//   ShortestFirst — shortest estimated runtime first; combined with an
//                   FCFS base policy this is the paper's "FCFS base +
//                   SJF backfilling" reward baseline.
//   WidestFirst   — most requested processors first ("best fit": soak up
//                   the free block with the fewest backfills, classic
//                   packing heuristic)
//   NarrowestFirst— fewest processors first ("worst fit": start as many
//                   small jobs as possible)
//
// These orderings span the heuristic space the RL agent searches over,
// so benches can show where the learned policy lands relative to each
// fixed rule.
#pragma once

#include <string>
#include <vector>

#include "sim/event_sim.h"

namespace rlbf::sched {

enum class BackfillOrder { QueueOrder, ShortestFirst, WidestFirst, NarrowestFirst };

class EasyBackfillChooser final : public sim::BackfillChooser {
 public:
  explicit EasyBackfillChooser(BackfillOrder order = BackfillOrder::QueueOrder);

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override;

  /// The EASY admission test for one candidate against a reservation,
  /// given the candidate's runtime estimate (callers pull it from the
  /// per-simulation FeatureCache, see sim::context_estimate).
  static bool admissible_with_estimate(const swf::Job& candidate,
                                       const sim::Reservation& res,
                                       std::int64_t estimate, std::int64_t now);

 private:
  BackfillOrder order_;
  // Candidate positions in re-ranked order, reused across calls; unused
  // under QueueOrder, which scans the candidates in place.
  std::vector<std::size_t> ranked_;
};

}  // namespace rlbf::sched
