// Conservative backfilling (Mu'alem & Feitelson, TPDS'01): a candidate
// may run early only if it delays *no* queued job's planned start, not
// just the head job's. Planned starts are computed by greedily packing
// the whole queue (priority order) into the estimated future availability
// profile. Included as the classic strict baseline the related-work
// section contrasts EASY against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.h"

namespace rlbf::sched {

/// Step-function of free processors over future time. Built from the
/// running set's *estimated* completion times; reservations carve
/// capacity out of it.
///
/// Representation: B breakpoints whose times strictly increase, the
/// first at `now`; each holds the free count until the next one, and the
/// last segment extends to infinity. Every operation keeps that order
/// (reserve rejects starts before `now`), and the binary-search lookup
/// relies on it. Costs, for B breakpoints: lookups O(log B),
/// earliest_start O(B), reserve O(B) (a vector insert plus a walk over
/// the reserved window only).
class AvailabilityProfile {
 public:
  /// Profile with `total` processors free from `now` onward.
  AvailabilityProfile(std::int64_t now, std::int64_t total);

  /// Build from the cluster's running set, using estimated end times
  /// (elapsed estimates clamp to now + 1, as in compute_reservation —
  /// both sites share sim::estimated_release, applied to a snapshot
  /// only; the cluster's actual end times must never be patched).
  /// Estimates come through `cache`.
  static AvailabilityProfile from_cluster(const sim::ClusterState& cluster,
                                          const swf::Trace& trace,
                                          const sim::RuntimeEstimator& estimator,
                                          std::int64_t now, sim::FeatureCache& cache);

  /// Earliest time >= now at which `procs` processors stay free for
  /// `duration` seconds (non-positive durations count as 1). One forward
  /// two-pointer sweep, O(B). Throws std::runtime_error if no start
  /// exists (`procs` exceeds the machine).
  std::int64_t earliest_start(std::int64_t procs, std::int64_t duration) const;

  /// Subtract `procs` over [start, start + duration) (non-positive
  /// durations count as 1). Precondition `start >= now`: an earlier start
  /// would break the breakpoint order, so it throws std::invalid_argument
  /// naming both times. Throws std::runtime_error if the window would
  /// drive any segment negative.
  void reserve(std::int64_t start, std::int64_t procs, std::int64_t duration);

  /// Free processors at an instant (for tests/debugging; times before
  /// now read as now). O(log B).
  std::int64_t free_at(std::int64_t t) const;

 private:
  // breakpoints_[i] = {t_i, free from t_i until t_{i+1}} ; last segment
  // extends to infinity. Invariant: t strictly increasing, t_0 = now_.
  struct Segment {
    std::int64_t time;
    std::int64_t free;
  };
  std::vector<Segment> breakpoints_;
  std::int64_t now_;

  /// Index of the last breakpoint with time <= t (upper_bound, O(log B)).
  std::size_t segment_index(std::int64_t t) const;
  /// Split the segment holding t at t (no-op if t is a breakpoint) and
  /// return the index of the breakpoint at t.
  std::size_t insert_breakpoint(std::int64_t t);
};

/// Planned start for each job of `order` when greedily packed into the
/// profile in sequence (profile is consumed). Shared by the
/// conservative and slack-based choosers.
std::vector<std::int64_t> plan_starts(AvailabilityProfile profile,
                                      const std::vector<std::size_t>& order,
                                      const sim::BackfillContext& ctx);

/// Both choosers plan the whole queue once per decision (the baseline,
/// where a job wider than the machine throws), then replan for each
/// candidate in turn with the candidate started now, comparing as they
/// go: a candidate is rejected at the first queued job whose replanned
/// start passes its baseline start plus allowance, without planning the
/// rest of the queue. The first candidate that delays nobody past its
/// allowance is admitted.
class ConservativeBackfillChooser final : public sim::BackfillChooser {
 public:
  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override { return "CONS"; }
};

/// Slack-based backfilling (Talby & Feitelson, IPPS/SPDP'99, simplified):
/// a candidate may run early as long as it pushes no queued job's planned
/// start beyond that job's *slack allowance*. Conservative backfilling is
/// the zero-slack special case; EASY is the everyone-but-the-head-job-has
/// -infinite-slack extreme. The allowance here is
///     slack(j) = slack_factor * estimated_runtime(j) + fixed_slack
/// — longer jobs tolerate proportionally more queueing delay, which is
/// the scheme's guiding heuristic.
class SlackBackfillChooser final : public sim::BackfillChooser {
 public:
  explicit SlackBackfillChooser(double slack_factor = 0.5,
                                std::int64_t fixed_slack = 600);

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override { return "SLACK"; }

  /// The delay allowance for a job with this runtime estimate.
  std::int64_t allowance_from_estimate(std::int64_t estimate) const;

 private:
  double slack_factor_;
  std::int64_t fixed_slack_;
};

}  // namespace rlbf::sched
