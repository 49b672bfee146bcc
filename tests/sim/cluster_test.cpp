#include "sim/cluster.h"

#include <gtest/gtest.h>

namespace rlbf::sim {
namespace {

TEST(Cluster, StartsFullyFree) {
  ClusterState c(64);
  EXPECT_EQ(c.total_procs(), 64);
  EXPECT_EQ(c.free_procs(), 64);
  EXPECT_EQ(c.used_procs(), 0);
  EXPECT_DOUBLE_EQ(c.free_fraction(), 1.0);
  EXPECT_EQ(c.running_count(), 0u);
}

TEST(Cluster, RejectsNonPositiveSize) {
  EXPECT_THROW(ClusterState(0), std::invalid_argument);
  EXPECT_THROW(ClusterState(-4), std::invalid_argument);
}

TEST(Cluster, AllocationAccounting) {
  ClusterState c(10);
  c.start(0, 4, 100, 50);
  EXPECT_EQ(c.free_procs(), 6);
  EXPECT_DOUBLE_EQ(c.free_fraction(), 0.6);
  c.start(1, 6, 100, 20);
  EXPECT_EQ(c.free_procs(), 0);
  EXPECT_FALSE(c.can_fit(1));
}

TEST(Cluster, OversubscriptionThrows) {
  ClusterState c(8);
  c.start(0, 6, 0, 10);
  EXPECT_THROW(c.start(1, 3, 0, 10), std::runtime_error);
}

TEST(Cluster, RejectsBadJobParameters) {
  ClusterState c(8);
  EXPECT_THROW(c.start(0, 0, 0, 10), std::invalid_argument);
  EXPECT_THROW(c.start(0, -1, 0, 10), std::invalid_argument);
  EXPECT_THROW(c.start(0, 2, 0, -5), std::invalid_argument);
}

TEST(Cluster, NextCompletionIsEarliestEnd) {
  ClusterState c(16);
  c.start(0, 2, 0, 100);   // ends 100
  c.start(1, 2, 10, 30);   // ends 40
  c.start(2, 2, 20, 500);  // ends 520
  EXPECT_EQ(c.next_completion_time(), 40);
}

TEST(Cluster, NextCompletionThrowsWhenIdle) {
  ClusterState c(4);
  EXPECT_THROW(c.next_completion_time(), std::runtime_error);
}

TEST(Cluster, CompleteUntilReleasesInOrder) {
  ClusterState c(16);
  c.start(0, 4, 0, 100);
  c.start(1, 4, 0, 50);
  c.start(2, 4, 0, 150);
  const auto done = c.complete_until(100);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].job_index, 1u);  // end 50 first
  EXPECT_EQ(done[1].job_index, 0u);  // end 100 second
  EXPECT_EQ(c.free_procs(), 12);
  EXPECT_EQ(c.running_count(), 1u);
}

TEST(Cluster, CompleteUntilBeforeAnyEndIsEmpty) {
  ClusterState c(16);
  c.start(0, 4, 0, 100);
  EXPECT_TRUE(c.complete_until(99).empty());
  EXPECT_EQ(c.free_procs(), 12);
}

TEST(Cluster, SecondCompleteUntilReturnsOnlyItsOwnReleases) {
  // complete_until reuses one result buffer; a later call must not
  // report jobs an earlier call already released.
  ClusterState c(16);
  c.start(0, 4, 0, 10);
  c.start(1, 4, 0, 20);
  c.start(2, 4, 0, 30);
  c.start(3, 4, 0, 40);
  ASSERT_EQ(c.complete_until(20).size(), 2u);
  const auto& second = c.complete_until(30);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].job_index, 2u);
  EXPECT_TRUE(c.complete_until(35).empty());
  const auto& last = c.complete_until(40);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].job_index, 3u);
  EXPECT_EQ(c.free_procs(), 16);
}

TEST(Cluster, ZeroRuntimeJobCompletesImmediately) {
  ClusterState c(4);
  c.start(0, 2, 10, 0);
  const auto done = c.complete_until(10);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].end_time, 10);
  EXPECT_EQ(c.free_procs(), 4);
}

TEST(Cluster, RunningJobsSnapshotDoesNotDisturbHeap) {
  ClusterState c(16);
  c.start(0, 2, 0, 100);
  c.start(1, 2, 0, 50);
  const auto snapshot = c.running_jobs();
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(c.next_completion_time(), 50);
  EXPECT_EQ(c.running_count(), 2u);
}

TEST(Cluster, RunningJobsSnapshotMatchesPopOrderIncludingTies) {
  // The snapshot must list jobs exactly as complete_until would pop
  // them — including heap tie resolution for equal end times — because
  // reservation code sorts the snapshot with an unstable sort and its
  // tie behavior depends on the input sequence.
  ClusterState c(64);
  c.start(0, 4, 0, 100);
  c.start(1, 4, 0, 50);
  c.start(2, 4, 0, 100);  // ties with job 0
  c.start(3, 4, 0, 50);   // ties with job 1
  c.start(4, 4, 0, 75);
  const auto snapshot = c.running_jobs();
  const auto popped = c.complete_until(1000);
  ASSERT_EQ(snapshot.size(), popped.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(snapshot[i].job_index, popped[i].job_index) << "position " << i;
    EXPECT_EQ(snapshot[i].end_time, popped[i].end_time);
  }
}

TEST(Cluster, RunningJobsIntoReusesBufferAndMatchesRunningJobs) {
  ClusterState c(32);
  c.start(0, 2, 0, 30);
  c.start(1, 2, 0, 10);
  c.start(2, 2, 0, 20);
  std::vector<RunningJob> scratch(17);  // stale contents must be replaced
  c.running_jobs_into(scratch);
  const auto fresh = c.running_jobs();
  ASSERT_EQ(scratch.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(scratch[i].job_index, fresh[i].job_index);
    EXPECT_EQ(scratch[i].end_time, fresh[i].end_time);
  }
  EXPECT_EQ(scratch[0].end_time, 10);  // pop order is ascending end time
  EXPECT_EQ(scratch[2].end_time, 30);
}

TEST(Cluster, FullLifecycleConservesProcs) {
  ClusterState c(32);
  for (int i = 0; i < 8; ++i) c.start(static_cast<std::size_t>(i), 4, i, 10 + i);
  EXPECT_EQ(c.free_procs(), 0);
  c.complete_until(1000);
  EXPECT_EQ(c.free_procs(), 32);
  EXPECT_EQ(c.running_count(), 0u);
}

}  // namespace
}  // namespace rlbf::sim
