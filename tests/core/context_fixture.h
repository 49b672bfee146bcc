// Shared helper for core tests: assembles a sim::BackfillContext over an
// explicit set of running and queued jobs, mirroring what the simulator
// passes to choosers at a backfilling opportunity — including the
// feature cache, on which every context() starts a new decision.
#pragma once

#include <utility>
#include <vector>

#include "sched/runtime_estimator.h"
#include "sim/event_sim.h"

namespace rlbf::core::testing {

inline swf::Job make_job(std::int64_t id, std::int64_t submit, std::int64_t run,
                         std::int64_t procs, std::int64_t request = swf::kUnknown) {
  swf::Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_procs = procs;
  j.used_procs = procs;
  j.requested_time = request;
  return j;
}

class ContextFixture {
 public:
  /// `running` pairs are (trace index, start time); `queue_order` lists
  /// pending trace indices in base-policy order with the rjob first.
  ContextFixture(std::vector<swf::Job> jobs, std::int64_t machine,
                 std::vector<std::pair<std::size_t, std::int64_t>> running,
                 std::vector<std::size_t> queue_order, std::int64_t now)
      : trace("fixture", machine, std::move(jobs)),
        cluster(machine),
        queue(std::move(queue_order)),
        now(now),
        cache(trace.size()) {
    for (const auto& [idx, start] : running) {
      cluster.start(idx, trace[idx].procs(), start, trace[idx].run_time);
    }
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (cluster.can_fit(trace[queue[i]].procs())) candidates.push_back(queue[i]);
    }
    std::vector<sim::RunningJob> scratch;
    reservation = sim::compute_reservation(cluster, trace, trace[queue[0]], estimator,
                                           now, cache, scratch);
  }

  sim::BackfillContext context() const {
    cache.begin_decision();
    return sim::BackfillContext{trace,       cluster, estimator,  now,  queue.front(),
                                reservation, queue,   candidates, cache};
  }

  swf::Trace trace;
  sim::ClusterState cluster;
  sched::RequestTimeEstimator estimator;
  std::vector<std::size_t> queue;
  std::vector<std::size_t> candidates;
  sim::Reservation reservation;
  std::int64_t now;
  /// Mutable like any memo: contexts from a const fixture still fill it.
  mutable sim::FeatureCache cache;
};

}  // namespace rlbf::core::testing
