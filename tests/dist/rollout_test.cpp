// Process-transport tests that need no worker binary: seed-list
// round-tripping, request-fingerprint sensitivity, and ProcessCollector
// construction-time validation (a malformed transport must fail before
// any epoch runs, not at job 7).
#include "dist/rollout.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace rlbf::dist {
namespace {

TEST(SeedListTest, RoundTripsIncludingExtremes) {
  const std::vector<std::uint64_t> seeds = {
      0, 1, 42, std::numeric_limits<std::uint64_t>::max()};
  EXPECT_EQ(parse_seed_list(format_seed_list(seeds)), seeds);
  EXPECT_EQ(format_seed_list({7}), "7");
  EXPECT_EQ(parse_seed_list("7"), (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(format_seed_list({}), "");
  EXPECT_TRUE(parse_seed_list("").empty());
}

TEST(SeedListTest, MalformedListsAreNamedErrors) {
  EXPECT_THROW(parse_seed_list("1,,2"), std::invalid_argument);
  EXPECT_THROW(parse_seed_list("1,2,"), std::invalid_argument);
  try {
    parse_seed_list("1,banana,3");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_seed_list("-1"), std::invalid_argument);
}

TEST(RequestFingerprintTest, BindsEveryPartOfTheRequest) {
  const std::vector<std::string> args = {"--spec=sdsc-tiny", "--seed=1"};
  const std::vector<std::uint64_t> seeds = {10, 20, 30};
  const std::string base = rollout_request_fingerprint(args, 1, 0, seeds);
  EXPECT_FALSE(base.empty());
  // Deterministic: the supervisor (at planning) and the worker response
  // check (at decode) must agree without communicating.
  EXPECT_EQ(rollout_request_fingerprint(args, 1, 0, seeds), base);
  // Any changed request component yields a different fingerprint, so a
  // stale file from epoch N-1, another worker, or another setup can
  // never satisfy this request's check.
  EXPECT_NE(rollout_request_fingerprint(args, 2, 0, seeds), base);
  EXPECT_NE(rollout_request_fingerprint(args, 1, 1, seeds), base);
  EXPECT_NE(rollout_request_fingerprint(args, 1, 0, {10, 20}), base);
  EXPECT_NE(rollout_request_fingerprint(args, 1, 0, {10, 20, 31}), base);
  EXPECT_NE(
      rollout_request_fingerprint({"--spec=sdsc-tiny", "--seed=2"}, 1, 0, seeds),
      base);
}

RolloutTransportOptions valid_options() {
  RolloutTransportOptions options;
  options.worker = "/bin/true";
  options.worker_args = {"--spec=x"};
  options.work_dir = ::testing::TempDir() + "/rollout_ctor_scratch";
  options.workers = 2;
  return options;
}

TEST(ProcessCollectorTest, ConstructionValidatesTheTransport) {
  EXPECT_NO_THROW(ProcessCollector{valid_options()});

  RolloutTransportOptions options = valid_options();
  options.worker.clear();
  EXPECT_THROW(ProcessCollector{options}, std::invalid_argument);

  options = valid_options();
  options.work_dir.clear();
  EXPECT_THROW(ProcessCollector{options}, std::invalid_argument);

  options = valid_options();
  options.workers = 0;
  EXPECT_THROW(ProcessCollector{options}, std::invalid_argument);

  // The launcher is built (and the Transport validated) up front; the
  // pairing and template cases live in TransportTest.
  options = valid_options();
  options.transport.hosts = "h0";
  EXPECT_THROW(ProcessCollector{options}, std::invalid_argument);
  options.transport.command_template = "ssh {host} {qcommand}";
  EXPECT_NO_THROW(ProcessCollector{options});
}

TEST(ProcessCollectorTest, NeverRunsTheSequenceFnInProcess) {
  ProcessCollector collector(valid_options());
  EXPECT_EQ(collector.slots(1), 0u);
  EXPECT_EQ(collector.slots(100), 0u);
}

TEST(ProcessCollectorTest, EmptyPlanIsANoOp) {
  // No model save hook installed, no scratch dir created — an empty
  // epoch must not need either.
  ProcessCollector collector(valid_options());
  const std::vector<rl::SequenceResult> results = collector.collect(
      rl::CollectionPlan{}, [](std::size_t, std::uint64_t, std::size_t) {
        return rl::SequenceResult{};
      });
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(collector.jobs().empty());
}

TEST(ProcessCollectorTest, CollectWithoutAModelWriterIsALogicError) {
  ProcessCollector collector(valid_options());
  rl::CollectionPlan plan;
  plan.seeds = {1};
  plan.epoch = 1;
  EXPECT_THROW(collector.collect(plan,
                                 [](std::size_t, std::uint64_t, std::size_t) {
                                   return rl::SequenceResult{};
                                 }),
               std::logic_error);
}

}  // namespace
}  // namespace rlbf::dist
