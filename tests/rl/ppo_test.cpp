#include "rl/ppo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layers.h"

#include "bandit_fixture.h"

namespace rlbf::rl {
namespace {

TEST(MaskedCategorical, SampleRespectsMask) {
  nn::Tensor logits(3, 1);
  logits.at(0, 0) = 100.0;  // masked out: must never be sampled
  logits.at(1, 0) = 0.0;
  logits.at(2, 0) = 0.0;
  util::Rng rng(1);
  std::vector<double> probs;
  for (int i = 0; i < 200; ++i) {
    const auto s = sample_masked(logits, {0, 1, 1}, rng, probs);
    EXPECT_NE(s.action, 0u);
    EXPECT_NEAR(s.log_prob, std::log(0.5), 1e-9);
  }
}

TEST(MaskedCategorical, SampleFrequenciesFollowSoftmax) {
  nn::Tensor logits(2, 1);
  logits.at(0, 0) = std::log(3.0);
  logits.at(1, 0) = 0.0;  // p = [0.75, 0.25]
  util::Rng rng(2);
  std::vector<double> probs;
  int zero = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    zero += sample_masked(logits, {1, 1}, rng, probs).action == 0 ? 1 : 0;
  }
  EXPECT_NEAR(zero / static_cast<double>(n), 0.75, 0.01);
}

TEST(MaskedCategorical, SampleThrowsWhenAllMasked) {
  nn::Tensor logits(2, 1);
  util::Rng rng(1);
  std::vector<double> probs;
  EXPECT_THROW(sample_masked(logits, {0, 0}, rng, probs), std::invalid_argument);
}

TEST(MaskedCategorical, ArgmaxSkipsMasked) {
  nn::Tensor logits(3, 1);
  logits.at(0, 0) = 10.0;
  logits.at(1, 0) = 5.0;
  logits.at(2, 0) = 1.0;
  EXPECT_EQ(argmax_masked(logits, {1, 1, 1}), 0u);
  EXPECT_EQ(argmax_masked(logits, {0, 1, 1}), 1u);
  EXPECT_THROW(argmax_masked(logits, {0, 0, 0}), std::invalid_argument);
}

TEST(MaskedCategorical, ArgmaxNamesALogitSetWithNoFiniteValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  nn::Tensor logits(3, 1);
  logits.at(0, 0) = nan;
  logits.at(1, 0) = -inf;
  logits.at(2, 0) = 3.0;
  try {
    argmax_masked(logits, {1, 1, 0});
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "argmax_masked: no finite logit among 2 selectable rows");
  }
  // A finite logit among NaNs still wins, and +inf beats everything.
  EXPECT_EQ(argmax_masked(logits, {1, 1, 1}), 2u);
  logits.at(1, 0) = inf;
  EXPECT_EQ(argmax_masked(logits, {1, 1, 1}), 1u);
}

/// The message of the std::runtime_error sample_masked throws, or "".
std::string sample_error(const std::vector<double>& values,
                         const std::vector<std::uint8_t>& mask) {
  nn::Tensor logits(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) logits.at(i, 0) = values[i];
  util::Rng rng(1);
  std::vector<double> probs;
  try {
    sample_masked(logits, mask, rng, probs);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MaskedCategorical, SampleNamesANanOrPositiveInfiniteLogit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // All selectable logits NaN: a diverged policy, not an empty action set.
  const std::string all_nan = sample_error({nan, nan}, {1, 1});
  EXPECT_NE(all_nan.find("sample_masked: logit"), std::string::npos) << all_nan;
  EXPECT_NE(all_nan.find("at selectable row 0 is not finite"), std::string::npos)
      << all_nan;
  // One NaN beside a finite logit used to sample with log_prob NaN.
  EXPECT_NE(sample_error({nan, 1.0}, {1, 1}).find("row 0 is not finite"),
            std::string::npos);
  EXPECT_NE(sample_error({1.0, inf}, {1, 1}).find("row 1 is not finite"),
            std::string::npos);
  // Masked rows are never read.
  EXPECT_EQ(sample_error({nan, 1.0, inf}, {0, 1, 0}), "");
}

TEST(MaskedCategorical, SampleNamesALogitSetWithNoFiniteValue) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sample_error({-inf, -inf, 2.0}, {1, 1, 0}),
            "sample_masked: no finite logit among 2 selectable rows");
  // A -inf row next to a finite one simply has probability zero.
  nn::Tensor logits(2, 1);
  logits.at(0, 0) = -inf;
  logits.at(1, 0) = 0.5;
  util::Rng rng(3);
  std::vector<double> probs;
  const CategoricalSample sample = sample_masked(logits, {1, 1}, rng, probs);
  EXPECT_EQ(sample.action, 1u);
  EXPECT_EQ(sample.log_prob, 0.0);
}

TEST(MaskedCategorical, AReusedBufferSamplesLikeFreshOnes) {
  // Masks of shrinking and growing width through one buffer: the stale
  // weights of a wider mask must not leak into a narrower one's draw.
  const std::vector<std::vector<std::uint8_t>> masks = {
      {1, 1, 0, 1, 1, 1}, {0, 1, 1}, {1, 0, 1, 1, 0, 1, 1, 1}, {1}, {1, 1, 1, 1, 1}};
  util::Rng reused_rng(4);
  util::Rng fresh_rng(4);
  std::vector<double> reused;
  for (int round = 0; round < 50; ++round) {
    for (const std::vector<std::uint8_t>& mask : masks) {
      nn::Tensor logits(mask.size(), 1);
      for (std::size_t i = 0; i < mask.size(); ++i) {
        logits.at(i, 0) = 0.3 * static_cast<double>((i * 7 + round) % 5);
      }
      std::vector<double> fresh;
      const CategoricalSample a = sample_masked(logits, mask, reused_rng, reused);
      const CategoricalSample b = sample_masked(logits, mask, fresh_rng, fresh);
      ASSERT_EQ(a.action, b.action);
      ASSERT_EQ(std::memcmp(&a.log_prob, &b.log_prob, sizeof(double)), 0);
      ASSERT_EQ(reused, fresh);
    }
  }
}

TEST(MaskedCategorical, ShapeMismatchThrows) {
  nn::Tensor logits(3, 1);
  util::Rng rng(1);
  std::vector<double> probs;
  EXPECT_THROW(sample_masked(logits, {1, 1}, rng, probs), std::invalid_argument);
  EXPECT_THROW(argmax_masked(logits, {1, 1}), std::invalid_argument);
}

using rlbf::rl::testing::TestActorCritic;
using rlbf::rl::testing::bandit_accuracy;
using rlbf::rl::testing::collect_bandit;

TEST(Ppo, LearnsContextualBandit) {
  TestActorCritic model(7);
  PpoConfig cfg;
  cfg.train_iters = 20;
  cfg.minibatch_size = 0;  // full batch
  cfg.target_kl = 0.0;     // run all iterations
  Ppo ppo(model, cfg);
  util::Rng rng(11);

  const double before = bandit_accuracy(model, rng, 500);
  for (int epoch = 0; epoch < 10; ++epoch) {
    RolloutBuffer buf = collect_bandit(model, rng, 256);
    ppo.update(buf, rng);
  }
  const double after = bandit_accuracy(model, rng, 500);
  EXPECT_GT(after, 0.9) << "before=" << before;
}

TEST(Ppo, ParallelUpdateAlsoLearns) {
  TestActorCritic model(7);
  PpoConfig cfg;
  cfg.train_iters = 20;
  cfg.minibatch_size = 0;
  cfg.target_kl = 0.0;
  util::ThreadPool pool(4);
  Ppo ppo(model, cfg, &pool);
  util::Rng rng(13);
  for (int epoch = 0; epoch < 10; ++epoch) {
    RolloutBuffer buf = collect_bandit(model, rng, 256);
    ppo.update(buf, rng);
  }
  EXPECT_GT(bandit_accuracy(model, rng, 500), 0.9);
}

TEST(Ppo, UpdateReportsStats) {
  TestActorCritic model(3);
  PpoConfig cfg;
  cfg.train_iters = 5;
  cfg.target_kl = 0.0;
  Ppo ppo(model, cfg);
  util::Rng rng(5);
  RolloutBuffer buf = collect_bandit(model, rng, 64);
  const PpoStats stats = ppo.update(buf, rng);
  EXPECT_EQ(stats.policy_iters, 5u);
  EXPECT_EQ(stats.value_iters, 5u);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
}

TEST(Ppo, KlEarlyStoppingLimitsPolicyIterations) {
  TestActorCritic model(3);
  PpoConfig cfg;
  cfg.train_iters = 80;
  cfg.target_kl = 1e-7;  // absurdly tight: stop almost immediately
  cfg.policy_lr = 0.05;  // move fast so KL blows through the target
  Ppo ppo(model, cfg);
  util::Rng rng(5);
  RolloutBuffer buf = collect_bandit(model, rng, 128);
  const PpoStats stats = ppo.update(buf, rng);
  EXPECT_LT(stats.policy_iters, 80u);
  EXPECT_EQ(stats.value_iters, 80u);  // value loop unaffected
}

TEST(Ppo, ValueLossDecreasesOnFixedTargets) {
  TestActorCritic model(9);
  PpoConfig cfg;
  cfg.train_iters = 40;
  cfg.target_kl = 0.0;
  Ppo ppo(model, cfg);
  util::Rng rng(21);
  RolloutBuffer first = collect_bandit(model, rng, 128);
  const double initial_loss = ppo.update(first, rng).value_loss;
  // Re-collect with the (slightly) trained critic: loss should be lower
  // after another pass over similar targets.
  RolloutBuffer second = collect_bandit(model, rng, 128);
  const double later_loss = ppo.update(second, rng).value_loss;
  EXPECT_LT(later_loss, initial_loss * 1.5);
}

TEST(Ppo, UpdateIsDeterministicAtFixedSeeds) {
  // Two identical models + identical buffers + identical rngs must end
  // with bitwise-identical parameters (serial path).
  PpoConfig cfg;
  cfg.train_iters = 8;
  cfg.minibatch_size = 64;
  cfg.target_kl = 0.0;

  std::vector<nn::Tensor> finals[2];
  for (int run = 0; run < 2; ++run) {
    TestActorCritic model(33);
    Ppo ppo(model, cfg);
    util::Rng collect_rng(44);
    RolloutBuffer buf = collect_bandit(model, collect_rng, 128);
    util::Rng update_rng(55);
    ppo.update(buf, update_rng);
    for (const auto& p : model.policy_parameters()) finals[run].push_back(p->value);
    for (const auto& p : model.value_parameters()) finals[run].push_back(p->value);
  }
  ASSERT_EQ(finals[0].size(), finals[1].size());
  for (std::size_t i = 0; i < finals[0].size(); ++i) {
    EXPECT_EQ(finals[0][i], finals[1][i]) << "parameter " << i;
  }
}

TEST(Ppo, CriticLearnsStateDependentValues) {
  // Feed the critic observations whose target is a deterministic
  // function of the input; after training, predictions must correlate.
  TestActorCritic model(17);
  PpoConfig cfg;
  cfg.train_iters = 60;
  cfg.target_kl = 0.0;
  cfg.value_lr = 3e-3;
  Ppo ppo(model, cfg);
  util::Rng rng(18);
  for (int epoch = 0; epoch < 8; ++epoch) {
    RolloutBuffer buf;
    for (int e = 0; e < 128; ++e) {
      Step s;
      s.policy_obs = nn::Tensor(2, 2);
      s.mask = {1, 1};
      s.action = 0;
      s.log_prob = std::log(0.5);
      const double x = rng.uniform(-1.0, 1.0);
      s.value_obs = nn::Tensor(1, 4, x);
      s.value = model.value_nograd(s.value_obs);
      s.reward = 2.0 * x;  // target value = 2x
      Episode ep;
      ep.steps.push_back(std::move(s));
      buf.add_episode(std::move(ep));
    }
    ppo.update(buf, rng);
  }
  const double lo = model.value_nograd(nn::Tensor(1, 4, -0.8));
  const double hi = model.value_nograd(nn::Tensor(1, 4, 0.8));
  EXPECT_GT(hi - lo, 1.0);  // monotone response approximating 2x
  EXPECT_NEAR(hi, 1.6, 0.8);
}

TEST(Ppo, MinibatchSamplingRespectsConfiguredSize) {
  // With a minibatch smaller than the buffer, stats.n per iteration is
  // bounded by the configured size; we can observe this indirectly via a
  // one-iteration update on a large buffer not exploding in time, and
  // directly by the entropy being finite (sanity).
  TestActorCritic model(3);
  PpoConfig cfg;
  cfg.train_iters = 1;
  cfg.minibatch_size = 32;
  cfg.target_kl = 0.0;
  Ppo ppo(model, cfg);
  util::Rng rng(9);
  RolloutBuffer buf = collect_bandit(model, rng, 512);
  const PpoStats stats = ppo.update(buf, rng);
  EXPECT_TRUE(std::isfinite(stats.entropy));
  EXPECT_EQ(stats.policy_iters, 1u);
}

TEST(Ppo, EmptyBufferThrows) {
  TestActorCritic model(1);
  PpoConfig cfg;
  Ppo ppo(model, cfg);
  util::Rng rng(1);
  RolloutBuffer buf;
  buf.finish(1.0, 1.0);
  EXPECT_THROW(ppo.update(buf, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rlbf::rl
