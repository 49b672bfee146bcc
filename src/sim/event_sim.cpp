#include "sim/event_sim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbf::sim {

std::int64_t estimated_release(const RunningJob& r, std::int64_t estimate,
                               std::int64_t now) {
  // Under-predicted jobs whose estimate already elapsed count as "due
  // immediately"; a real scheduler would see the estimate expired.
  return std::max(r.start_time + estimate, now + 1);
}

Reservation compute_reservation(const ClusterState& cluster, const swf::Trace& trace,
                                const swf::Job& rjob, const RuntimeEstimator& estimator,
                                std::int64_t now, FeatureCache& cache,
                                std::vector<RunningJob>& scratch) {
  Reservation res;
  const std::int64_t need = rjob.procs();
  std::int64_t free_procs = cluster.free_procs();
  if (free_procs >= need) {
    res.shadow_time = now;
    res.extra_procs = free_procs - need;
    return res;
  }
  // Walk running jobs in estimated-end order, accumulating releases
  // until the head job fits. The snapshot keeps heap pop order, so the
  // unstable sort below always sees the same input sequence and resolves
  // estimated-end ties identically across calls.
  cluster.running_jobs_into(scratch);
  for (auto& r : scratch) {
    r.end_time = estimated_release(r, cache.estimate(estimator, trace, r.job_index), now);
  }
  std::sort(scratch.begin(), scratch.end(),
            [](const RunningJob& a, const RunningJob& b) { return a.end_time < b.end_time; });
  for (const auto& r : scratch) {
    free_procs += r.procs;
    if (free_procs >= need) {
      res.shadow_time = r.end_time;
      res.extra_procs = free_procs - need;
      return res;
    }
  }
  // Unreachable for valid traces: all jobs fit an empty machine.
  throw std::runtime_error("compute_reservation: job never fits machine");
}

void sort_by_priority(std::vector<std::size_t>& queue, const swf::Trace& trace,
                      const PriorityPolicy& policy, std::int64_t now,
                      std::vector<ScoredJob>& keyed) {
  keyed.clear();
  for (const std::size_t idx : queue) keyed.push_back({policy.score(trace[idx], now), idx});
  // A strict total order has one sorted arrangement, so the unstable
  // sort lands exactly where a stable one would.
  std::sort(keyed.begin(), keyed.end(), priority_less);
  for (std::size_t i = 0; i < keyed.size(); ++i) queue[i] = keyed[i].index;
}

namespace {

class SimRunner {
 public:
  SimRunner(const swf::Trace& trace, const PriorityPolicy& policy,
            const RuntimeEstimator& estimator, BackfillChooser* chooser,
            const SimulationOptions& options)
      : trace_(trace),
        policy_(policy),
        estimator_(estimator),
        chooser_(chooser),
        options_(options),
        cluster_(trace.machine_procs()),
        cache_(trace.size()),
        time_invariant_(policy.time_invariant()) {}

  std::vector<JobResult> run() {
    obs::Span span("simulate", "sim");
    obs::ScopedTimer timer("sim.simulate_seconds");
    trace_.validate();
    const std::size_t n = trace_.size();
    results_.resize(n);
    if (chooser_ != nullptr) chooser_->episode_begin(trace_);

    std::int64_t now = n > 0 ? trace_[0].submit_time : 0;
    while (started_ < n) {
      ++events_;
      admit_arrivals(now);
      schedule_pass(now);
      if (started_ == n) break;

      // Advance to the next event: an arrival or an actual completion.
      std::int64_t next = std::numeric_limits<std::int64_t>::max();
      if (next_arrival_ < n) next = std::min(next, trace_[next_arrival_].submit_time);
      if (cluster_.running_count() > 0) {
        next = std::min(next, cluster_.next_completion_time());
      }
      if (next == std::numeric_limits<std::int64_t>::max()) {
        throw std::runtime_error("simulate: deadlock (queued jobs, no events)");
      }
      now = std::max(now, next);
      cluster_.complete_until(now);
    }
    if (chooser_ != nullptr) chooser_->episode_end(results_);
    flush_counters();
    return std::move(results_);
  }

 private:
  /// Hot-loop instrumentation: the loop bumps plain local members (one
  /// register increment, cheaper than even a disabled-hook branch) and
  /// the shared registry is touched exactly once per simulation, here.
  void flush_counters() const {
    if (!obs::enabled()) return;
    obs::counter("sim.events_processed").add(events_);
    obs::counter("sim.schedule_recomputations").add(queue_sorts_);
    obs::counter("sim.queue_incremental_inserts").add(queue_inserts_);
    obs::counter("sim.backfill_opportunities").add(opportunities_);
    obs::counter("sim.backfill_decisions").add(decisions_);
    obs::counter("sim.jobs_backfilled").add(backfills_);
    obs::counter("sim.jobs_started").add(started_);
  }

  /// True when the queue is already in priority order for time `now`.
  bool queue_sorted_at(std::int64_t now) const {
    return queue_sorted_ && (time_invariant_ || sorted_now_ == now);
  }

  void admit_arrivals(std::int64_t now) {
    while (next_arrival_ < trace_.size() &&
           trace_[next_arrival_].submit_time <= now) {
      const std::size_t idx = next_arrival_++;
      if (queue_sorted_at(now)) {
        // Binary insertion keeps the (unique) sorted order valid; the
        // new arrival has the largest trace index, so lower_bound lands
        // exactly where a full re-sort would place it. The arrival is
        // scored once; each probe scores only the queued job it visits.
        const ScoredJob arrival{policy_.score(trace_[idx], now), idx};
        const auto pos = std::lower_bound(
            queue_.begin(), queue_.end(), arrival,
            [&](std::size_t queued, const ScoredJob& key) {
              return priority_less({policy_.score(trace_[queued], now), queued}, key);
            });
        queue_.insert(pos, idx);
        sorted_now_ = now;
        ++queue_inserts_;
      } else {
        queue_.push_back(idx);
        queue_sorted_ = false;
      }
    }
  }

  void start_job(std::size_t idx, std::int64_t now, bool backfilled) {
    const auto& job = trace_[idx];
    std::int64_t run = job.run_time;
    bool killed = false;
    if (options_.kill_exceeding_request && job.request_time() < run) {
      run = job.request_time();
      killed = true;
    }
    cluster_.start(idx, job.procs(), now, run);
    JobResult r;
    r.job_index = idx;
    r.submit_time = job.submit_time;
    r.start_time = now;
    r.end_time = now + run;
    r.procs = job.procs();
    r.backfilled = backfilled;
    r.killed = killed;
    results_[idx] = r;
    ++started_;
  }

  /// Bring the queue into priority order for `now`, skipping the sort
  /// when the current order is provably already correct: priority_less
  /// is a strict total order (unique sorted sequence), erasures preserve
  /// sortedness, and arrivals are binary-inserted — so once sorted, the
  /// queue only goes stale when `now` advances under a time-varying
  /// policy (WFP3). `now` is constant within one schedule_pass, so a
  /// pass sorts at most once, and a sort scores each queued job once.
  void sort_queue(std::int64_t now) {
    if (queue_sorted_at(now)) return;
    ++queue_sorts_;
    sort_by_priority(queue_, trace_, policy_, now, keyed_scratch_);
    queue_sorted_ = true;
    sorted_now_ = now;
  }

  /// Start every head job that fits; on the first blocked head, open one
  /// backfilling opportunity, then yield back to the event loop.
  void schedule_pass(std::int64_t now) {
    for (;;) {
      if (queue_.empty()) return;
      sort_queue(now);
      const std::size_t head = queue_.front();
      if (cluster_.can_fit(trace_[head].procs())) {
        start_job(head, now, /*backfilled=*/false);
        queue_.erase(queue_.begin());
        continue;
      }
      if (chooser_ != nullptr && queue_.size() > 1) {
        backfill_opportunity(now, head);
      }
      return;
    }
  }

  void backfill_opportunity(std::int64_t now, std::size_t rjob) {
    ++opportunities_;
    std::size_t backfilled = 0;
    for (;;) {
      if (options_.max_backfills_per_opportunity != 0 &&
          backfilled >= options_.max_backfills_per_opportunity) {
        return;
      }
      candidates_.clear();
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (cluster_.can_fit(trace_[queue_[i]].procs())) {
          candidates_.push_back(queue_[i]);
        }
      }
      if (candidates_.empty()) return;
      const Reservation res = compute_reservation(
          cluster_, trace_, trace_[rjob], estimator_, now, cache_, running_scratch_);
      cache_.begin_decision();
      const BackfillContext ctx{trace_, cluster_, estimator_, now,
                                rjob, res, queue_, candidates_, cache_};
      ++decisions_;
      const auto pick = chooser_->choose(ctx);
      if (!pick.has_value()) return;
      if (*pick >= candidates_.size()) {
        throw std::runtime_error("backfill chooser returned out-of-range pick");
      }
      const std::size_t chosen = candidates_[*pick];
      start_job(chosen, now, /*backfilled=*/true);
      queue_.erase(std::find(queue_.begin(), queue_.end(), chosen));
      ++backfilled;
      ++backfills_;
    }
  }

  const swf::Trace& trace_;
  const PriorityPolicy& policy_;
  const RuntimeEstimator& estimator_;
  BackfillChooser* chooser_;
  SimulationOptions options_;

  ClusterState cluster_;
  std::vector<std::size_t> queue_;  // pending trace indices
  std::vector<JobResult> results_;
  std::size_t next_arrival_ = 0;
  std::size_t started_ = 0;

  // Incremental-order bookkeeping: the queue is sorted iff queue_sorted_
  // and (the policy is time-invariant or sorted_now_ == current time).
  FeatureCache cache_;
  bool time_invariant_ = false;
  bool queue_sorted_ = true;  // vacuously: the queue starts empty
  std::int64_t sorted_now_ = std::numeric_limits<std::int64_t>::min();

  // Per-decision scratch buffers, reused across the whole run.
  std::vector<ScoredJob> keyed_scratch_;
  std::vector<std::size_t> candidates_;
  std::vector<RunningJob> running_scratch_;

  // Hot-loop counters, flushed to obs once per run (see flush_counters).
  std::uint64_t events_ = 0;
  std::uint64_t queue_sorts_ = 0;
  std::uint64_t queue_inserts_ = 0;
  std::uint64_t opportunities_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t backfills_ = 0;
};

}  // namespace

std::vector<JobResult> simulate(const swf::Trace& trace, const PriorityPolicy& policy,
                                const RuntimeEstimator& estimator,
                                BackfillChooser* chooser,
                                const SimulationOptions& options) {
  SimRunner runner(trace, policy, estimator, chooser, options);
  return runner.run();
}

}  // namespace rlbf::sim
