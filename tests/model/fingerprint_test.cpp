#include "model/training_spec.h"

#include <gtest/gtest.h>

#include "workload/presets.h"

namespace rlbf::model {
namespace {

TrainingSpec base_spec() {
  TrainingSpec spec;
  spec.name = "test";
  spec.workload.workload = "SDSC-SP2";
  spec.workload.trace_jobs = 1000;
  spec.trainer.epochs = 3;
  spec.trainer.seed = 7;
  return spec;
}

TEST(Fingerprint, EqualSpecsEqualFingerprints) {
  EXPECT_EQ(fingerprint(base_spec()), fingerprint(base_spec()));
}

TEST(Fingerprint, NameAndDescriptionAreNotFingerprinted) {
  TrainingSpec a = base_spec();
  TrainingSpec b = base_spec();
  b.name = "renamed";
  b.description = "different prose, same training run";
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, ThreadCountIsNotFingerprinted) {
  // Training is thread-count independent (fixed gradient shards,
  // pre-drawn trajectory seeds), so worker counts must not fork the
  // content address.
  TrainingSpec a = base_spec();
  TrainingSpec b = base_spec();
  b.trainer.threads = 16;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, EveryTrainingRelevantFieldChangesTheKey) {
  const std::string base = fingerprint(base_spec());
  const auto differs = [&](auto mutate) {
    TrainingSpec spec = base_spec();
    mutate(spec);
    return fingerprint(spec) != base;
  };
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.seed = 8; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.epochs = 4; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.base_policy = "SJF"; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.algorithm = "dqn"; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.workload.workload = "HPC2N"; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.workload.trace_jobs = 2000; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.workload.load_factor = 1.5; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.ppo.policy_lr = 5e-4; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.ppo.grad_shards = 4; }));
  EXPECT_TRUE(differs([](TrainingSpec& s) {
    s.trainer.env.delay_rule = core::DelayRule::EstimatePenalty;
  }));
  EXPECT_TRUE(differs([](TrainingSpec& s) { s.trainer.agent.obs.max_obsv_size = 64; }));
  EXPECT_TRUE(differs(
      [](TrainingSpec& s) { s.trainer.agent.net.policy_hidden = {16, 8}; }));
}

// Cross-process stability: the fingerprint is a pure function of the
// canonical text, with no pointers, locales, or map iteration order
// involved. This golden pins it; an intentional format change (new
// fingerprinted field, enum reorder) should update the constant — that
// is exactly the "old cache entries no longer match" signal the store
// relies on.
TEST(Fingerprint, GoldenValueIsStableAcrossProcesses) {
  EXPECT_EQ(fnv1a_hex("rlbf"), "991df21fea8aaf27");
  const std::string canon = canonical_string(base_spec());
  EXPECT_EQ(canon.substr(0, 21), "rlbf-training-spec v1");
  EXPECT_EQ(fingerprint(base_spec()), fnv1a_hex(canon));
}

// Regression for the ablation-arm spec fields: an env-override that only
// exists for one algorithm must fork that algorithm's fingerprints...
TEST(Fingerprint, AlgorithmHyperparametersAreFingerprintedUnderTheirAlgorithm) {
  TrainingSpec a = base_spec();
  TrainingSpec b = base_spec();
  a.trainer.algorithm = b.trainer.algorithm = "dqn";
  b.trainer.dqn.epsilon_decay_epochs = 40;
  EXPECT_NE(fingerprint(a), fingerprint(b));

  TrainingSpec c = base_spec();
  TrainingSpec d = base_spec();
  c.trainer.algorithm = d.trainer.algorithm = "reinforce";
  d.trainer.reinforce.policy_lr = 3e-3;
  EXPECT_NE(fingerprint(c), fingerprint(d));
}

// ...while leaving every other algorithm's content address untouched: a
// PPO run does not read the DQN/REINFORCE blocks, so they must not
// invalidate existing PPO store entries.
TEST(Fingerprint, ForeignAlgorithmBlocksDoNotForkPpoKeys) {
  TrainingSpec a = base_spec();
  TrainingSpec b = base_spec();
  b.trainer.dqn.epsilon_decay_epochs = 40;
  b.trainer.reinforce.policy_lr = 3e-3;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, WarmStartReferenceIsFingerprinted) {
  TrainingSpec a = base_spec();
  TrainingSpec b = base_spec();
  b.init_agent = "abl-transfer-source";
  EXPECT_NE(fingerprint(a), fingerprint(b));
  TrainingSpec c = base_spec();
  c.init_agent = "0123456789abcdef";
  EXPECT_NE(fingerprint(b), fingerprint(c));
}

TEST(Fingerprint, TraceFingerprintSeparatesTransformedTraces) {
  const swf::Trace trace =
      workload::make_preset(workload::sdsc_sp2_targets(), 200, 1);
  swf::Trace scaled = trace;
  for (auto& job : scaled.mutable_jobs()) job.run_time += 1;
  EXPECT_NE(trace_fingerprint(trace), trace_fingerprint(scaled));
  EXPECT_EQ(trace_fingerprint(trace), trace_fingerprint(swf::Trace(trace)));
}

TEST(TrainingRegistry, BuiltinsArePresentAndDistinct) {
  const auto names = training_spec_names();
  EXPECT_GE(names.size(), 5u);
  EXPECT_TRUE(TrainingRegistry::instance().contains("sdsc-fcfs"));
  EXPECT_TRUE(TrainingRegistry::instance().contains("sdsc-tiny"));
  // Every registered spec maps to a distinct content address.
  std::vector<std::string> keys;
  for (const auto& name : names) {
    keys.push_back(fingerprint(find_training_spec(name)));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(TrainingRegistry, AblationArmsAreRegistered) {
  const auto arms = ablation_arm_names();
  EXPECT_GE(arms.size(), 25u);
  // One representative per family.
  for (const char* name :
       {"abl-control", "abl-delay-est-2", "abl-delay-mask", "abl-obsv-8",
        "abl-net-flat", "abl-feat-no-slack", "abl-obj-wait", "abl-rl-dqn",
        "abl-rl-reinforce", "abl-transfer-finetune"}) {
    EXPECT_TRUE(TrainingRegistry::instance().contains(name)) << name;
  }
  // Family invariants: the DQN arm really is a DQN spec, the fine-tune
  // arm warm-starts from the source arm, knockouts clear exactly one bit.
  EXPECT_EQ(find_training_spec("abl-rl-dqn").trainer.algorithm, "dqn");
  EXPECT_EQ(find_training_spec("abl-rl-reinforce").trainer.reinforce.policy_lr, 3e-3);
  EXPECT_EQ(find_training_spec("abl-transfer-finetune").init_agent,
            "abl-transfer-source");
  EXPECT_EQ(find_training_spec("abl-feat-no-slack").trainer.agent.obs.feature_mask,
            0x3FFu & ~(1u << 5));
  EXPECT_FALSE(find_training_spec("abl-net-flat").trainer.agent.kernel_policy);
  // (Distinct fingerprints across ALL registered specs, arms included,
  // are asserted by BuiltinsArePresentAndDistinct above.)
}

TEST(TrainingRegistry, UnknownNameThrowsWithCatalog) {
  try {
    find_training_spec("no-such-spec");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-spec"), std::string::npos);
    EXPECT_NE(message.find("sdsc-fcfs"), std::string::npos);
  }
}

}  // namespace
}  // namespace rlbf::model
