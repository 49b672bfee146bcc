// Event-driven HPC scheduling simulation.
//
// Time advances between job arrivals and (actual) job completions; at
// every event the base policy picks the highest-priority queued job. If
// it fits, it starts; if not, a *backfilling opportunity* opens and the
// installed BackfillChooser is consulted repeatedly — one candidate per
// call — until it declines or no candidate fits. This is exactly the
// decision structure RLBackfilling trains on: heuristic backfillers
// (EASY, conservative) and the RL agent implement the same BackfillChooser
// interface, so every strategy is evaluated under identical semantics.
//
// Two clocks coexist by design: resources release at the job's *actual*
// runtime, while choosers only see *estimates* through the
// RuntimeEstimator. The gap between the two is the paper's subject.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/metrics.h"
#include "swf/trace.h"

namespace rlbf::sim {

/// Base scheduling policy: lower score = scheduled first (Table 3 of the
/// paper: FCFS scores by submit time, SJF by request time, ...).
class PriorityPolicy {
 public:
  virtual ~PriorityPolicy() = default;
  virtual double score(const swf::Job& job, std::int64_t now) const = 0;
  virtual std::string name() const = 0;
  /// True when score() ignores `now` (FCFS, SJF, F1). The simulator then
  /// keeps the queue sorted incrementally — binary-inserting arrivals —
  /// instead of re-sorting at every scheduling pass. Policies whose
  /// scores drift with time (WFP3's wait term) must leave this false.
  virtual bool time_invariant() const { return false; }
};

/// One queued job keyed for ordering: its base-policy score at a fixed
/// instant and its trace index.
struct ScoredJob {
  double score = 0.0;
  std::size_t index = 0;
};

/// Queue priority order: (score, trace index). The index tie-break makes
/// this a strict total order, so the sorted queue is unique — which is
/// what lets the simulator skip sorts and binary-insert arrivals without
/// changing a single scheduling decision. Scores compare with `!=`/`<`,
/// so WFP3's -0.0 at zero wait ties with +0.0 and falls to the index.
inline bool priority_less(const ScoredJob& a, const ScoredJob& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.index < b.index;  // deterministic tie-break: arrival order
}

/// Sort `queue` (trace indices) into priority order at `now`, scoring
/// each job exactly once into the caller-owned `keyed` buffer.
void sort_by_priority(std::vector<std::size_t>& queue, const swf::Trace& trace,
                      const PriorityPolicy& policy, std::int64_t now,
                      std::vector<ScoredJob>& keyed);

/// Source of the runtime estimates schedulers plan with.
class RuntimeEstimator {
 public:
  virtual ~RuntimeEstimator() = default;
  /// Estimated runtime in seconds, always >= 1.
  virtual std::int64_t estimate(const swf::Job& job) const = 0;
  virtual std::string name() const = 0;
};

/// EASY-style reservation for the blocked head job: the shadow time at
/// which, by the estimates, enough processors will have been released,
/// and the processors spare at that moment beyond the head job's need.
struct Reservation {
  std::int64_t shadow_time = 0;
  std::int64_t extra_procs = 0;
};

/// The scheduler-visible release time of a running job: its estimated
/// end, clamped to now + 1 when the estimate already elapsed (an
/// under-prediction counts as "due immediately"). Every planner that
/// projects the running set (EASY reservations, conservative profiles)
/// must apply this to a SNAPSHOT of the running job, never back into the
/// cluster: the cluster's own end_time is the job's *actual* completion,
/// which drives event advancement — persisting the estimated view there
/// would corrupt completion order and the simulation's two-clock design.
std::int64_t estimated_release(const RunningJob& r, std::int64_t estimate,
                               std::int64_t now);

/// Per-simulation memo for values that are pure functions of one job:
/// runtime estimates (NoisyEstimator rebuilds an RNG per call — the
/// dominant per-decision cost) and the log-scaled observation features
/// derived from them, plus the submit-time-sorted queue shared by every
/// observation built for the same decision. Owned by the simulation run
/// (or by whoever else builds a BackfillContext, e.g. a test fixture,
/// which then calls begin_decision() per context as the simulator does);
/// choosers reach it through BackfillContext::cache. Memoization is
/// exact: re-reading a cached value yields the identical bits the direct
/// computation would.
class FeatureCache {
 public:
  explicit FeatureCache(std::size_t trace_size)
      : estimates_(trace_size, -1),
        log_request_(trace_size, -1.0),
        log_estimate_(trace_size, -1.0) {}

  /// Memoized estimator.estimate(trace[job_index]) (always >= 1).
  std::int64_t estimate(const RuntimeEstimator& estimator, const swf::Trace& trace,
                        std::size_t job_index) {
    std::int64_t& slot = estimates_[job_index];
    if (slot < 0) slot = estimator.estimate(trace[job_index]);
    return slot;
  }

  /// Raw memo slots for the observation layer's per-job log-scaled
  /// features (strictly positive when computed; < 0 means unset). The
  /// core layer owns the formula; the cache only owns the storage.
  double& log_request_slot(std::size_t job_index) { return log_request_[job_index]; }
  double& log_estimate_slot(std::size_t job_index) { return log_estimate_[job_index]; }

  /// The full pending queue sorted by submit time is identical for every
  /// observation of one decision; the simulator invalidates it before
  /// each chooser consultation.
  void begin_decision() { sorted_queue_valid_ = false; }
  const std::vector<std::size_t>* sorted_queue() const {
    return sorted_queue_valid_ ? &sorted_queue_ : nullptr;
  }
  std::vector<std::size_t>& mutable_sorted_queue() {
    sorted_queue_valid_ = true;
    return sorted_queue_;
  }

 private:
  std::vector<std::int64_t> estimates_;
  std::vector<double> log_request_;
  std::vector<double> log_estimate_;
  std::vector<std::size_t> sorted_queue_;
  bool sorted_queue_valid_ = false;
};

/// Compute the reservation for `rjob` against the current running set.
/// Estimated ends that already elapsed (under-predictions) are treated as
/// "due now" (clamped to now + 1). Estimates come through `cache`; the
/// running-set snapshot is built in the caller-owned `scratch` buffer.
/// The snapshot preserves heap pop order, so the unstable sort over
/// estimated ends always sees the same input sequence.
Reservation compute_reservation(const ClusterState& cluster, const swf::Trace& trace,
                                const swf::Job& rjob, const RuntimeEstimator& estimator,
                                std::int64_t now, FeatureCache& cache,
                                std::vector<RunningJob>& scratch);

/// Everything a chooser may inspect when picking a backfill candidate.
struct BackfillContext {
  const swf::Trace& trace;
  const ClusterState& cluster;
  const RuntimeEstimator& estimator;
  std::int64_t now = 0;
  std::size_t rjob = 0;            // blocked head job (trace index)
  Reservation reservation;         // rjob's current EASY reservation
  /// All pending jobs in base-policy priority order; front() == rjob.
  const std::vector<std::size_t>& queue;
  /// Jobs that fit the free processors right now, priority order,
  /// excluding rjob. Never empty when choose() is called.
  const std::vector<std::size_t>& candidates;
  /// Per-simulation feature memo.
  FeatureCache& cache;
};

/// Runtime estimate for trace[job_index], memoized through the context's
/// cache.
inline std::int64_t context_estimate(const BackfillContext& ctx, std::size_t job_index) {
  return ctx.cache.estimate(ctx.estimator, ctx.trace, job_index);
}

/// Strategy consulted at backfilling opportunities.
class BackfillChooser {
 public:
  virtual ~BackfillChooser() = default;
  /// Pick an index INTO ctx.candidates, or nullopt to end this
  /// opportunity without (further) backfilling.
  virtual std::optional<std::size_t> choose(const BackfillContext& ctx) = 0;
  virtual std::string name() const = 0;
  /// Episode hooks; RL choosers use them to delimit trajectories.
  virtual void episode_begin(const swf::Trace& trace) { (void)trace; }
  virtual void episode_end(const std::vector<JobResult>& results) { (void)results; }
};

struct SimulationOptions {
  /// Safety cap on backfills per opportunity; 0 = unlimited.
  std::size_t max_backfills_per_opportunity = 0;
  /// Enforce the paper's §2.1.2 contract — "the scheduler will cancel or
  /// kill jobs that surpass their Request Time": a job whose actual
  /// runtime exceeds its request time runs only until the request time
  /// and its JobResult is flagged killed. Off by default because archive
  /// traces record AR <= RT for completed jobs; it matters for traces
  /// with recorded overruns and for what-if studies that shrink request
  /// times below the actual runtime.
  bool kill_exceeding_request = false;
};

/// Run one trace to completion and return per-job results ordered by
/// trace index. `chooser` may be null (no backfilling). Throws
/// std::runtime_error if the trace is unschedulable (e.g. a job wider
/// than the machine).
std::vector<JobResult> simulate(const swf::Trace& trace, const PriorityPolicy& policy,
                                const RuntimeEstimator& estimator,
                                BackfillChooser* chooser,
                                const SimulationOptions& options = {});

}  // namespace rlbf::sim
