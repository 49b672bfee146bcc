#include "core/agent.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "context_fixture.h"

namespace rlbf::core {
namespace {

using testing::ContextFixture;
using testing::make_job;

ContextFixture opportunity() {
  return ContextFixture(
      {make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
       make_job(3, 20, 50, 2, 50), make_job(4, 30, 200, 2, 200)},
      10, {{0, 0}}, {1, 2, 3}, 50);
}

AgentConfig small_config() {
  AgentConfig cfg;
  cfg.obs.max_obsv_size = 16;
  cfg.obs.value_obsv_size = 4;
  return cfg;
}

/// One decision on fresh buffers.
std::optional<std::size_t> greedy(const Agent& agent, const sim::BackfillContext& ctx) {
  GreedyBuffers buffers;
  return agent.choose_greedy(ctx, buffers);
}

TEST(Agent, GreedyChoosesAValidCandidate) {
  const Agent agent(small_config(), 1);
  const ContextFixture fx = opportunity();
  const auto pick = greedy(agent, fx.context());
  ASSERT_TRUE(pick.has_value());
  EXPECT_LT(*pick, fx.candidates.size());
}

TEST(Agent, GreedyIsDeterministic) {
  const Agent agent(small_config(), 1);
  const ContextFixture fx = opportunity();
  const auto first = greedy(agent, fx.context());
  GreedyBuffers reused;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(agent.choose_greedy(fx.context(), reused), first);
}

TEST(Agent, GreedyDeclinesWhenNothingSelectable) {
  AgentConfig cfg = small_config();
  cfg.obs.max_obsv_size = 1;  // only the (masked) rjob is observed
  const Agent agent(cfg, 1);
  const ContextFixture fx = opportunity();
  EXPECT_FALSE(greedy(agent, fx.context()).has_value());
}

TEST(Agent, CloneActsIdentically) {
  const Agent agent(small_config(), 2);
  const Agent copy = agent.clone();
  const ContextFixture fx = opportunity();
  EXPECT_EQ(greedy(copy, fx.context()), greedy(agent, fx.context()));
}

TEST(Agent, DifferentSeedsGiveDifferentModels) {
  const Agent a(small_config(), 1);
  const Agent b(small_config(), 99);
  const auto pa = dynamic_cast<const KernelActorCritic&>(a.model())
                      .policy_net()
                      .parameters();
  const auto pb = dynamic_cast<const KernelActorCritic&>(b.model())
                      .policy_net()
                      .parameters();
  EXPECT_GT(nn::Tensor::max_abs_diff(pa[0]->value, pb[0]->value), 1e-9);
}

TEST(Agent, SaveLoadRoundTripPreservesDecisions) {
  const std::string path = ::testing::TempDir() + "/rlbf_agent_test.model";
  const Agent agent(small_config(), 3);
  ASSERT_TRUE(agent.save(path, {{"trace", "SDSC-SP2"}, {"epochs", "7"}}));

  const Agent loaded = Agent::load(path);
  EXPECT_EQ(loaded.config().obs.max_obsv_size, 16u);
  EXPECT_EQ(loaded.config().obs.value_obsv_size, 4u);
  EXPECT_TRUE(loaded.config().kernel_policy);

  const ContextFixture fx = opportunity();
  EXPECT_EQ(greedy(loaded, fx.context()), greedy(agent, fx.context()));
  std::remove(path.c_str());
}

// Regression: a truncated model file must throw with the offending path
// in the message, never build an agent from a partial bundle.
TEST(Agent, TruncatedModelFileThrowsWithPath) {
  const std::string path = ::testing::TempDir() + "/rlbf_agent_truncated.model";
  const Agent agent(small_config(), 6);
  ASSERT_TRUE(agent.save(path, {{"trace", "SDSC-SP2"}}));
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  std::ofstream(path, std::ios::trunc) << text.substr(0, text.size() / 2);
  try {
    Agent::load(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must name the file: " << e.what();
  }
  std::remove(path.c_str());
}

// Regression: garbled numeric metadata names the file and key instead of
// surfacing as a bare std::stoul exception.
TEST(Agent, CorruptMetaValueThrowsWithPathAndKey) {
  const std::string path = ::testing::TempDir() + "/rlbf_agent_badmeta.model";
  const Agent agent(small_config(), 7);
  ASSERT_TRUE(agent.save(path));
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::string needle = "meta max_obsv_size 16";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "meta max_obsv_size not-a-number");
  std::ofstream(path, std::ios::trunc) << text;
  try {
    Agent::load(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("max_obsv_size"), std::string::npos) << message;
    EXPECT_NE(message.find(path), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

TEST(Agent, SaveStoresMetadata) {
  const std::string path = ::testing::TempDir() + "/rlbf_agent_meta.model";
  const Agent agent(small_config(), 4);
  ASSERT_TRUE(agent.save(path, {{"trace", "HPC2N"}}));
  const auto meta = Agent::load_meta(path);
  EXPECT_EQ(meta.at("trace"), "HPC2N");
  EXPECT_EQ(meta.at("kernel_policy"), "1");
  std::remove(path.c_str());
}

TEST(Agent, FlatVariantRoundTrips) {
  AgentConfig cfg = small_config();
  cfg.kernel_policy = false;
  cfg.obs.pad_policy_obs = true;
  const std::string path = ::testing::TempDir() + "/rlbf_agent_flat.model";
  const Agent agent(cfg, 5);
  ASSERT_TRUE(agent.save(path));
  const Agent loaded = Agent::load(path);
  EXPECT_FALSE(loaded.config().kernel_policy);
  EXPECT_TRUE(loaded.config().obs.pad_policy_obs);
  const ContextFixture fx = opportunity();
  EXPECT_EQ(greedy(loaded, fx.context()), greedy(agent, fx.context()));
  std::remove(path.c_str());
}

TEST(Agent, FlatWithoutPaddingRejected) {
  AgentConfig cfg = small_config();
  cfg.kernel_policy = false;
  cfg.obs.pad_policy_obs = false;
  EXPECT_THROW(Agent(cfg, 1), std::invalid_argument);
}

TEST(Agent, LoadMissingFileThrows) {
  EXPECT_THROW(Agent::load("/nonexistent/agent.model"), std::runtime_error);
}

}  // namespace
}  // namespace rlbf::core
