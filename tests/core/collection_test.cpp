// Collector-parity proof at the trainer level: for each algorithm
// (PPO, DQN, REINFORCE) the epochs produced through the collector seam
// are bit-identical across thread counts — same stats to the last bit,
// same agent parameters byte-for-byte after training. This is the
// determinism contract in rl/collect.h; the cli_series smoke checks
// the same for trained DQN/REINFORCE store files through rlbf_run.
#include "core/collection.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/trainer.h"
#include "util/log.h"
#include "workload/presets.h"

namespace rlbf::core {
namespace {

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  std::ostringstream msg;
  msg.precision(17);
  msg << a << " and " << b << " differ in bits";
  return ::testing::AssertionFailure() << msg.str();
}

/// The agent's full persisted form (parameters in exact %.17g text):
/// equal strings mean the trained models are interchangeable on disk.
std::string agent_bytes(const Agent& agent, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/parity_" + tag + ".model";
  if (!agent.save(path)) ADD_FAILURE() << "cannot save " << path;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class CollectionParityTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override { util::set_log_level(util::LogLevel::Info); }
};

/// Shared shrunken budget: 2 epochs of 6×64-job sequences, evaluation
/// off (held-out evals add wall time but no collection coverage).
TrainerConfig tiny(const std::string& algorithm, std::size_t threads) {
  TrainerConfig cfg;
  cfg.algorithm = algorithm;
  cfg.epochs = 2;
  cfg.trajectories_per_epoch = 6;
  cfg.jobs_per_trajectory = 64;
  cfg.agent.obs.value_obsv_size = 8;
  cfg.seed = 7;
  cfg.threads = threads;
  cfg.eval_every = 0;
  cfg.keep_best = false;
  return cfg;
}

TEST_F(CollectionParityTest, PpoEpochsAreBitIdenticalAcrossThreadCounts) {
  const swf::Trace trace = workload::sdsc_sp2_like(2, 1500);
  auto cfg1 = tiny("ppo", 1);
  cfg1.ppo.train_iters = 5;
  cfg1.ppo.minibatch_size = 128;
  auto cfg2 = cfg1;
  cfg2.threads = 2;
  Trainer a(trace, cfg1);
  Trainer b(trace, cfg2);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    const EpochStats sa = a.run_epoch();
    const EpochStats sb = b.run_epoch();
    EXPECT_EQ(sa.epoch, sb.epoch);
    EXPECT_EQ(sa.steps, sb.steps);
    EXPECT_TRUE(bits_equal(sa.mean_reward, sb.mean_reward));
    EXPECT_TRUE(bits_equal(sa.mean_bsld, sb.mean_bsld));
    EXPECT_TRUE(bits_equal(sa.mean_baseline_bsld, sb.mean_baseline_bsld));
    EXPECT_EQ(sa.ppo.policy_iters, sb.ppo.policy_iters);
    EXPECT_EQ(sa.ppo.value_iters, sb.ppo.value_iters);
  }
  EXPECT_EQ(agent_bytes(a.agent(), "ppo_t1"), agent_bytes(b.agent(), "ppo_t2"));
}

TEST_F(CollectionParityTest, DqnEpochsAreBitIdenticalAcrossThreadCounts) {
  const swf::Trace trace = workload::sdsc_sp2_like(3, 1500);
  const auto cfg1 = tiny("dqn", 1);
  auto cfg2 = cfg1;
  cfg2.threads = 2;
  Trainer a(trace, cfg1);
  Trainer b(trace, cfg2);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    const EpochStats sa = a.run_epoch();
    const EpochStats sb = b.run_epoch();
    EXPECT_EQ(sa.epoch, sb.epoch);
    EXPECT_EQ(sa.steps, sb.steps);
    EXPECT_TRUE(bits_equal(sa.mean_reward, sb.mean_reward));
    EXPECT_TRUE(bits_equal(sa.mean_bsld, sb.mean_bsld));
    EXPECT_TRUE(bits_equal(sa.mean_baseline_bsld, sb.mean_baseline_bsld));
    EXPECT_TRUE(bits_equal(sa.loss, sb.loss));
    EXPECT_TRUE(bits_equal(sa.epsilon, sb.epsilon));
  }
  EXPECT_EQ(agent_bytes(a.agent(), "dqn_t1"), agent_bytes(b.agent(), "dqn_t2"));
}

TEST_F(CollectionParityTest, ReinforceEpochsAreBitIdenticalAcrossThreadCounts) {
  const swf::Trace trace = workload::lublin_1(4, 1200);
  const auto cfg1 = tiny("reinforce", 1);
  auto cfg2 = cfg1;
  cfg2.threads = 2;
  Trainer a(trace, cfg1);
  Trainer b(trace, cfg2);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    const EpochStats sa = a.run_epoch();
    const EpochStats sb = b.run_epoch();
    EXPECT_EQ(sa.epoch, sb.epoch);
    EXPECT_EQ(sa.steps, sb.steps);
    EXPECT_TRUE(bits_equal(sa.mean_reward, sb.mean_reward));
    EXPECT_TRUE(bits_equal(sa.mean_bsld, sb.mean_bsld));
    EXPECT_TRUE(bits_equal(sa.mean_baseline_bsld, sb.mean_baseline_bsld));
    EXPECT_TRUE(bits_equal(sa.loss, sb.loss));
  }
  EXPECT_EQ(agent_bytes(a.agent(), "rf_t1"), agent_bytes(b.agent(), "rf_t2"));
}

TEST_F(CollectionParityTest, SwappingInAnEquivalentCollectorChangesNothing) {
  // set_collector is the seam a wrapping collector plugs into: an
  // externally-supplied ThreadCollector must reproduce the built-in
  // default exactly, and nullptr must restore the default.
  const swf::Trace trace = workload::sdsc_sp2_like(5, 1500);
  auto cfg = tiny("ppo", 2);
  cfg.ppo.train_iters = 5;
  cfg.ppo.minibatch_size = 128;
  Trainer with_default(trace, cfg);
  Trainer with_external(trace, cfg);
  util::ThreadPool external_pool(2);
  rl::ThreadCollector external(external_pool);
  with_external.set_collector(&external);
  const EpochStats sa = with_default.run_epoch();
  const EpochStats sb = with_external.run_epoch();
  EXPECT_EQ(sa.steps, sb.steps);
  EXPECT_TRUE(bits_equal(sa.mean_reward, sb.mean_reward));
  EXPECT_TRUE(bits_equal(sa.mean_bsld, sb.mean_bsld));
  with_external.set_collector(nullptr);  // back to the built-in default
  const EpochStats sa2 = with_default.run_epoch();
  const EpochStats sb2 = with_external.run_epoch();
  EXPECT_TRUE(bits_equal(sa2.mean_bsld, sb2.mean_bsld));
  EXPECT_EQ(agent_bytes(with_default.agent(), "seam_a"),
            agent_bytes(with_external.agent(), "seam_b"));
}

}  // namespace
}  // namespace rlbf::core
