#include "sched/policies.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rlbf::sched {
namespace {

swf::Job make_job(std::int64_t submit, std::int64_t request, std::int64_t procs) {
  swf::Job j;
  j.submit_time = submit;
  j.requested_time = request;
  j.run_time = request;
  j.requested_procs = procs;
  return j;
}

TEST(Policies, FcfsOrdersBySubmitTime) {
  FcfsPolicy p;
  EXPECT_LT(p.score(make_job(10, 100, 1), 500), p.score(make_job(20, 1, 1), 500));
}

TEST(Policies, FcfsIgnoresRuntimeAndSize) {
  FcfsPolicy p;
  EXPECT_DOUBLE_EQ(p.score(make_job(10, 100, 1), 500),
                   p.score(make_job(10, 99999, 64), 500));
}

TEST(Policies, SjfOrdersByRequestTime) {
  SjfPolicy p;
  EXPECT_LT(p.score(make_job(50, 100, 1), 500), p.score(make_job(10, 200, 1), 500));
}

TEST(Policies, SjfFallsBackToRuntimeWithoutEstimates) {
  SjfPolicy p;
  swf::Job j = make_job(0, swf::kUnknown, 1);
  j.run_time = 77;
  EXPECT_DOUBLE_EQ(p.score(j, 0), 77.0);
}

TEST(Policies, Wfp3FavorsLongWaiters) {
  Wfp3Policy p;
  // Same job attributes; the one waiting longer must score lower (first).
  EXPECT_LT(p.score(make_job(0, 100, 4), 1000), p.score(make_job(900, 100, 4), 1000));
}

TEST(Policies, Wfp3FavorsShorterJobsAtEqualWait) {
  Wfp3Policy p;
  EXPECT_LT(p.score(make_job(0, 100, 4), 1000), p.score(make_job(0, 10000, 4), 1000));
}

TEST(Policies, Wfp3CubeAmplifiesWaitRatio) {
  Wfp3Policy p;
  const double s1 = p.score(make_job(0, 100, 1), 100);   // wt/rt = 1
  const double s2 = p.score(make_job(0, 100, 1), 200);   // wt/rt = 2
  EXPECT_DOUBLE_EQ(s1, -1.0);
  EXPECT_DOUBLE_EQ(s2, -8.0);
}

TEST(Policies, F1MatchesPublishedFormula) {
  F1Policy p;
  const swf::Job j = make_job(1000, 3600, 8);
  const double expected = std::log10(3600.0) * 8.0 + 870.0 * std::log10(1000.0);
  EXPECT_NEAR(p.score(j, 0), expected, 1e-9);
}

TEST(Policies, F1ClampsZeroSubmitTime) {
  F1Policy p;
  const swf::Job j = make_job(0, 3600, 8);
  EXPECT_NEAR(p.score(j, 0), std::log10(3600.0) * 8.0, 1e-9);
}

TEST(Policies, F1PrefersSmallShortJobs) {
  F1Policy p;
  EXPECT_LT(p.score(make_job(100, 60, 1), 0), p.score(make_job(100, 86400, 128), 0));
}

TEST(Policies, F1ScoreIgnoresNow) {
  // F1 reads only request time, width and submit time, so the simulator
  // may keep its queue sorted across events: the score must be the same
  // bits at every instant, not merely close.
  F1Policy p;
  EXPECT_TRUE(p.time_invariant());
  for (const swf::Job& j : {make_job(0, 3600, 8), make_job(1000, 60, 1),
                            make_job(86400, 1, 128), make_job(7, swf::kUnknown, 3)}) {
    const double at_submit = p.score(j, j.submit_time);
    for (const std::int64_t now : {std::int64_t{0}, j.submit_time + 1,
                                   j.submit_time + 3600, std::int64_t{1} << 40}) {
      EXPECT_EQ(p.score(j, now), at_submit) << "submit " << j.submit_time << " now " << now;
    }
  }
}

TEST(Policies, MakePolicyKnowsAllTable3Names) {
  for (const auto& name : all_policy_names()) {
    const auto p = make_policy(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), name);
  }
}

TEST(Policies, MakePolicyRejectsUnknown) {
  EXPECT_THROW(make_policy("LIFO"), std::invalid_argument);
  EXPECT_THROW(make_policy(""), std::invalid_argument);
}

TEST(Policies, AllNamesListsFourPolicies) {
  const auto names = all_policy_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "FCFS");
  EXPECT_EQ(names[3], "F1");
}

}  // namespace
}  // namespace rlbf::sched
