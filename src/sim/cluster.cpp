#include "sim/cluster.h"

#include <algorithm>

namespace rlbf::sim {

ClusterState::ClusterState(std::int64_t total_procs)
    : total_procs_(total_procs), free_procs_(total_procs) {
  if (total_procs <= 0) throw std::invalid_argument("cluster: total_procs <= 0");
}

void ClusterState::start(std::size_t job_index, std::int64_t procs, std::int64_t now,
                         std::int64_t actual_runtime) {
  if (procs <= 0) throw std::invalid_argument("cluster: job with procs <= 0");
  if (actual_runtime < 0) throw std::invalid_argument("cluster: negative runtime");
  if (procs > free_procs_) throw std::runtime_error("cluster: oversubscription");
  free_procs_ -= procs;
  running_.push_back(RunningJob{job_index, procs, now, now + actual_runtime});
  std::push_heap(running_.begin(), running_.end(), ByEndTime{});
}

std::int64_t ClusterState::next_completion_time() const {
  if (running_.empty()) throw std::runtime_error("cluster: nothing running");
  return running_.front().end_time;
}

const std::vector<RunningJob>& ClusterState::complete_until(std::int64_t now) {
  completed_.clear();
  while (!running_.empty() && running_.front().end_time <= now) {
    std::pop_heap(running_.begin(), running_.end(), ByEndTime{});
    completed_.push_back(running_.back());
    running_.pop_back();
    free_procs_ += completed_.back().procs;
  }
  return completed_;
}

std::vector<RunningJob> ClusterState::running_jobs() const {
  std::vector<RunningJob> out;
  running_jobs_into(out);
  return out;
}

void ClusterState::running_jobs_into(std::vector<RunningJob>& out) const {
  // sort_heap performs exactly the pop_heap sequence the old copy-and-
  // drain loop did, leaving elements in descending pop order; reversing
  // restores pop order (ascending end_time, heap tie behavior intact).
  out = running_;
  std::sort_heap(out.begin(), out.end(), ByEndTime{});
  std::reverse(out.begin(), out.end());
}

}  // namespace rlbf::sim
