// Homogeneous cluster resource state: a processor pool plus the set of
// running jobs ordered by completion time. Matches the paper's resource
// model ("we assume the HPC environment is homogeneous... availability is
// a percentage of available computing nodes").
//
// Completion uses the job's *actual* runtime; schedulers only ever see
// runtime estimates through a RuntimeEstimator. Keeping that asymmetry
// here is what reproduces the paper's accuracy-vs-backfill trade-off.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace rlbf::sim {

/// A job occupying processors until its actual end time.
struct RunningJob {
  std::size_t job_index = 0;   // index into the scheduled trace
  std::int64_t procs = 0;
  std::int64_t start_time = 0;
  std::int64_t end_time = 0;   // start + actual runtime
};

class ClusterState {
 public:
  explicit ClusterState(std::int64_t total_procs);

  std::int64_t total_procs() const { return total_procs_; }
  std::int64_t free_procs() const { return free_procs_; }
  std::int64_t used_procs() const { return total_procs_ - free_procs_; }
  /// Fraction of processors currently free, in [0, 1].
  double free_fraction() const {
    return static_cast<double>(free_procs_) / static_cast<double>(total_procs_);
  }

  bool can_fit(std::int64_t procs) const { return procs <= free_procs_; }
  std::size_t running_count() const { return running_.size(); }

  /// Allocate and record a running job. Throws if it does not fit or has
  /// non-positive size/runtime < 0.
  void start(std::size_t job_index, std::int64_t procs, std::int64_t now,
             std::int64_t actual_runtime);

  /// Earliest actual completion time; throws if nothing is running.
  std::int64_t next_completion_time() const;

  /// Remove all jobs with end_time <= now and return them (ascending
  /// order). The result lives in a buffer the cluster reuses: it stays
  /// valid until the next complete_until call.
  const std::vector<RunningJob>& complete_until(std::int64_t now);

  /// Snapshot of running jobs in heap pop order (ascending end_time,
  /// ties resolved exactly as repeated pops would resolve them).
  std::vector<RunningJob> running_jobs() const;

  /// Same snapshot written into a caller-owned scratch vector, so hot
  /// paths that take one snapshot per scheduling decision reuse a single
  /// allocation instead of constructing a fresh vector each time.
  void running_jobs_into(std::vector<RunningJob>& out) const;

 private:
  struct ByEndTime {
    bool operator()(const RunningJob& a, const RunningJob& b) const {
      return a.end_time > b.end_time;  // min-heap on end_time
    }
  };

  std::int64_t total_procs_;
  std::int64_t free_procs_;
  // Explicit heap (std::push_heap/std::pop_heap over ByEndTime) rather
  // than std::priority_queue: identical ordering behavior, but the
  // backing vector stays inspectable, which lets running_jobs_into()
  // reproduce pop order via sort_heap without draining a copy of the
  // queue element-by-element.
  std::vector<RunningJob> running_;
  std::vector<RunningJob> completed_;  // complete_until's reused result
};

}  // namespace rlbf::sim
