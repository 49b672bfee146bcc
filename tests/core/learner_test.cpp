// The DQN and REINFORCE ablation arms, trained through the one
// core::Trainer loop behind their Learners (the suite keeps its
// historical AltTrainersTest name).
#include "core/learner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/networks.h"
#include "core/trainer.h"
#include "util/log.h"
#include "workload/presets.h"

namespace rlbf::core {
namespace {

TrainerConfig tiny_dqn_config() {
  TrainerConfig cfg;
  cfg.algorithm = "dqn";
  cfg.epochs = 2;
  cfg.trajectories_per_epoch = 8;
  cfg.jobs_per_trajectory = 96;
  cfg.dqn.updates_per_epoch = 5;
  cfg.dqn.batch_size = 32;
  cfg.dqn.min_replay = 32;
  cfg.agent.obs.value_obsv_size = 8;
  cfg.threads = 4;
  cfg.seed = 7;
  return cfg;
}

TrainerConfig tiny_reinforce_config() {
  TrainerConfig cfg;
  cfg.algorithm = "reinforce";
  cfg.epochs = 2;
  cfg.trajectories_per_epoch = 8;
  cfg.jobs_per_trajectory = 96;
  cfg.reinforce.value_iters = 5;
  cfg.agent.obs.value_obsv_size = 8;
  cfg.threads = 4;
  cfg.seed = 7;
  return cfg;
}

class AltTrainersTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override { util::set_log_level(util::LogLevel::Info); }
};

// ---------------------------------------------------------------- DQN --

TEST_F(AltTrainersTest, DqnRejectsDegenerateConfigs) {
  const swf::Trace trace = workload::lublin_1(1, 200);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.jobs_per_trajectory = 500;
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
  cfg = tiny_dqn_config();
  cfg.trajectories_per_epoch = 0;
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
}

TEST_F(AltTrainersTest, DqnEpochProducesSaneStats) {
  const swf::Trace trace = workload::sdsc_sp2_like(2, 1500);
  Trainer trainer(trace, tiny_dqn_config());
  const EpochStats s = trainer.run_epoch();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.mean_bsld, 0.0);
  EXPECT_GT(s.mean_baseline_bsld, 0.0);
  EXPECT_DOUBLE_EQ(s.epsilon, 1.0);  // first epoch of the decay
  EXPECT_TRUE(std::isfinite(s.loss));
}

TEST_F(AltTrainersTest, DqnEpsilonDecaysAcrossEpochs) {
  const swf::Trace trace = workload::lublin_1(3, 1200);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.dqn.epsilon_decay_epochs = 4;
  Trainer trainer(trace, cfg);
  const double e1 = trainer.run_epoch().epsilon;
  const double e2 = trainer.run_epoch().epsilon;
  EXPECT_GT(e1, e2);
}

TEST_F(AltTrainersTest, DqnReplayPersistsAcrossEpochs) {
  const swf::Trace trace = workload::sdsc_sp2_like(4, 1500);
  Trainer trainer(trace, tiny_dqn_config());
  const auto& learner = dynamic_cast<const DqnLearner&>(trainer.learner());
  trainer.run_epoch();
  const std::size_t after_one = learner.dqn().replay().size();
  trainer.run_epoch();
  EXPECT_GT(learner.dqn().replay().size(), after_one);
}

TEST_F(AltTrainersTest, DqnQParametersChangeAfterTraining) {
  const swf::Trace trace = workload::lublin_1(6, 1200);
  Trainer trainer(trace, tiny_dqn_config());
  const auto& model =
      dynamic_cast<const KernelActorCritic&>(trainer.agent().model());
  const nn::Tensor before = model.policy_net().parameters()[0]->value;
  trainer.run_epoch();
  EXPECT_GT(nn::Tensor::max_abs_diff(before,
                                     model.policy_net().parameters()[0]->value),
            0.0);
}

TEST_F(AltTrainersTest, DqnTrainRunsHistoryCallbacksAndEval) {
  const swf::Trace trace = workload::sdsc_sp2_like(8, 1500);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.eval_every = 1;
  cfg.eval_samples = 2;
  cfg.eval_sample_jobs = 256;
  Trainer trainer(trace, cfg);
  std::size_t callbacks = 0;
  const auto history = trainer.train([&](const EpochStats&) { ++callbacks; });
  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(callbacks, 2u);
  for (const auto& h : history) EXPECT_FALSE(std::isnan(h.eval_bsld));
}

TEST_F(AltTrainersTest, DqnDeterministicCollectionInSeed) {
  const swf::Trace trace = workload::sdsc_sp2_like(5, 1500);
  const TrainerConfig cfg = tiny_dqn_config();
  Trainer a(trace, cfg);
  Trainer b(trace, cfg);
  const EpochStats sa = a.run_epoch();
  const EpochStats sb = b.run_epoch();
  EXPECT_DOUBLE_EQ(sa.mean_baseline_bsld, sb.mean_baseline_bsld);
  EXPECT_DOUBLE_EQ(sa.mean_bsld, sb.mean_bsld);
  EXPECT_EQ(sa.steps, sb.steps);
}

TEST_F(AltTrainersTest, DqnWarmStartUsesInitialAgent) {
  const swf::Trace trace = workload::sdsc_sp2_like(9, 1500);
  const TrainerConfig cfg = tiny_dqn_config();
  Trainer source(trace, cfg);
  source.run_epoch();

  Trainer fine_tuned(trace, cfg, source.agent());
  const auto& src =
      dynamic_cast<const KernelActorCritic&>(source.agent().model());
  const auto& dst =
      dynamic_cast<const KernelActorCritic&>(fine_tuned.agent().model());
  EXPECT_EQ(nn::Tensor::max_abs_diff(src.policy_net().parameters()[0]->value,
                                     dst.policy_net().parameters()[0]->value),
            0.0);
}

// ---------------------------------------------------------- REINFORCE --

TEST_F(AltTrainersTest, ReinforceRejectsDegenerateConfigs) {
  const swf::Trace trace = workload::lublin_1(1, 200);
  TrainerConfig cfg = tiny_reinforce_config();
  cfg.jobs_per_trajectory = 500;
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
  cfg = tiny_reinforce_config();
  cfg.base_policy = "BOGUS";
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
}

TEST_F(AltTrainersTest, ReinforceEpochProducesSaneStats) {
  const swf::Trace trace = workload::sdsc_sp2_like(2, 1500);
  Trainer trainer(trace, tiny_reinforce_config());
  const EpochStats s = trainer.run_epoch();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.mean_bsld, 0.0);
  EXPECT_TRUE(std::isfinite(s.loss));
}

TEST_F(AltTrainersTest, ReinforcePolicyParametersChangeAfterEpoch) {
  const swf::Trace trace = workload::lublin_2(6, 1200);
  Trainer trainer(trace, tiny_reinforce_config());
  const auto& model =
      dynamic_cast<const KernelActorCritic&>(trainer.agent().model());
  const nn::Tensor before = model.policy_net().parameters()[0]->value;
  trainer.run_epoch();
  EXPECT_GT(nn::Tensor::max_abs_diff(before,
                                     model.policy_net().parameters()[0]->value),
            0.0);
}

TEST_F(AltTrainersTest, ReinforceTrainReturnsHistory) {
  const swf::Trace trace = workload::lublin_1(4, 1200);
  Trainer trainer(trace, tiny_reinforce_config());
  const auto history = trainer.train();
  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].epoch, 2u);
}

TEST_F(AltTrainersTest, ReinforceDeterministicCollectionInSeed) {
  const swf::Trace trace = workload::sdsc_sp2_like(5, 1500);
  const TrainerConfig cfg = tiny_reinforce_config();
  Trainer a(trace, cfg);
  Trainer b(trace, cfg);
  EXPECT_DOUBLE_EQ(a.run_epoch().mean_bsld, b.run_epoch().mean_bsld);
}

TEST_F(AltTrainersTest, ReinforceSjfBasePolicySupported) {
  const swf::Trace trace = workload::sdsc_sp2_like(8, 1500);
  TrainerConfig cfg = tiny_reinforce_config();
  cfg.base_policy = "SJF";
  Trainer trainer(trace, cfg);
  EXPECT_GT(trainer.run_epoch().steps, 0u);
}

TEST_F(AltTrainersTest, GreedyEvaluationDeterministic) {
  const swf::Trace trace = workload::sdsc_sp2_like(10, 1500);
  TrainerConfig cfg = tiny_reinforce_config();
  cfg.eval_samples = 2;
  cfg.eval_sample_jobs = 256;
  Trainer trainer(trace, cfg);
  const double first = trainer.evaluate_greedy();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(trainer.evaluate_greedy(), first);
}

TEST_F(AltTrainersTest, UnknownAlgorithmRejected) {
  const swf::Trace trace = workload::lublin_1(1, 1200);
  TrainerConfig cfg = tiny_dqn_config();
  cfg.algorithm = "sarsa";
  EXPECT_THROW(Trainer(trace, cfg), std::invalid_argument);
}

// The per-epoch environment every transport reproduces (collect-rollouts
// calls the same prepare_epoch): PPO collects under config.env as given,
// DQN epsilon-greedily at the decayed rate, REINFORCE by softmax sampling.
TEST_F(AltTrainersTest, LearnersForceTheirCollectionEnv) {
  const Agent agent(AgentConfig{}, 3);
  EnvConfig base;
  base.selection = ActionSelection::Greedy;
  base.epsilon = 0.5;
  const auto prepared = [&](const TrainerConfig& cfg, std::size_t epoch) {
    Agent copy = agent.clone();
    EnvConfig env = base;
    rl::CollectionPlan plan;
    plan.epoch = epoch;
    make_learner(cfg, copy.model(), nullptr)->prepare_epoch(env, plan);
    return std::make_pair(env, plan.epsilon);
  };

  TrainerConfig ppo;
  const auto [ppo_env, ppo_eps] = prepared(ppo, 1);
  EXPECT_EQ(ppo_env.selection, ActionSelection::Greedy);
  EXPECT_TRUE(std::isnan(ppo_eps));

  TrainerConfig dqn = tiny_dqn_config();
  dqn.dqn.epsilon_decay_epochs = 4;
  const auto [dqn_env, dqn_eps] = prepared(dqn, 3);
  EXPECT_EQ(dqn_env.selection, ActionSelection::EpsilonGreedy);
  EXPECT_DOUBLE_EQ(dqn_eps, dqn.dqn.epsilon_start +
                                0.5 * (dqn.dqn.epsilon_end - dqn.dqn.epsilon_start));
  EXPECT_EQ(dqn_env.epsilon, dqn_eps);

  const auto [rf_env, rf_eps] = prepared(tiny_reinforce_config(), 1);
  EXPECT_EQ(rf_env.selection, ActionSelection::SampleSoftmax);
  EXPECT_TRUE(std::isnan(rf_eps));
}

// Agents trained by any algorithm share the deployment path: a DQN
// agent's greedy chooser must schedule complete sequences like a PPO
// agent's does.
TEST_F(AltTrainersTest, DqnAgentDeploysThroughTheSameGreedyPath) {
  const swf::Trace trace = workload::sdsc_sp2_like(12, 1500);
  Trainer trainer(trace, tiny_dqn_config());
  trainer.run_epoch();
  const double bsld = trainer.evaluate_greedy();
  EXPECT_GT(bsld, 0.0);
  EXPECT_TRUE(std::isfinite(bsld));
}

}  // namespace
}  // namespace rlbf::core
