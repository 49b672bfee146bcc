// Parity of the batched PPO update with the per-step reference
// (reference_ppo.h): after one update, every policy and value parameter
// must carry the same value and gradient bytes, and every PpoStats field
// must be byte-equal, for the kernel and flat networks, with and without
// a thread pool, on both the sharded and the small-minibatch paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "core/networks.h"
#include "rl/ppo.h"
#include "util/thread_pool.h"

#include "reference_ppo.h"

namespace rlbf::rl {
namespace {

enum class Net { Kernel, Flat };

struct Case {
  Net net = Net::Kernel;
  bool stop_action = false;
  double entropy_coef = 0.0;
  bool pool = false;
  std::size_t steps = 0;
};

core::ObservationConfig obs_config(const Case& c) {
  core::ObservationConfig obs;
  obs.max_obsv_size = 6;
  obs.value_obsv_size = 3;
  obs.pad_policy_obs = c.net == Net::Flat;
  obs.stop_action = c.stop_action;
  return obs;
}

std::unique_ptr<ActorCritic> make_model(const Case& c, std::uint64_t seed) {
  core::NetworkConfig net;
  // A unit output scale spreads the initial logits, so the softmax, the
  // ratios and the clipping all see non-trivial values.
  net.policy_output_scale = 1.0;
  util::Rng rng(seed);
  if (c.net == Net::Flat) {
    return std::make_unique<core::FlatActorCritic>(obs_config(c), net, rng);
  }
  return std::make_unique<core::KernelActorCritic>(obs_config(c), net, rng);
}

/// Random steps of random width (1-row steps included) with random masks,
/// an optional always-valid stop row, and flat padding. Old log-probs
/// cycle through exact ties (ratio 1) and shifts that clip the ratio
/// below and above; advantages take both signs and sometimes zero.
RolloutBuffer make_buffer(const Case& c, const ActorCritic& model, std::uint64_t seed) {
  const core::ObservationConfig obs = obs_config(c);
  constexpr std::size_t F = core::ObservationConfig::kFeatures;
  util::Rng rng(seed);
  RolloutBuffer buffer;
  Episode episode;
  for (std::size_t i = 0; i < c.steps; ++i) {
    const auto jobs = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(obs.max_obsv_size)));
    const std::size_t rows = jobs + (c.stop_action ? 1 : 0);
    const std::size_t total = c.net == Net::Flat ? obs.padded_policy_rows() : rows;
    Step s;
    s.policy_obs = nn::Tensor(total, F);
    s.mask.assign(total, 0);
    for (std::size_t r = 0; r < jobs; ++r) {
      for (std::size_t f = 0; f < F; ++f) {
        // Zero features exercise the matmul's zero skip.
        s.policy_obs.at(r, f) = rng.bernoulli(0.3) ? 0.0 : rng.normal(0.0, 1.0);
      }
      s.mask[r] = rng.bernoulli(0.6) ? 1 : 0;
    }
    if (c.stop_action) {
      s.policy_obs.at(jobs, 8) = 1.0;
      s.mask[jobs] = 1;
    }
    if (std::find(s.mask.begin(), s.mask.end(), 1) == s.mask.end()) {
      s.mask[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(jobs) - 1))] = 1;
    }
    std::vector<std::size_t> valid;
    for (std::size_t r = 0; r < total; ++r) {
      if (s.mask[r]) valid.push_back(r);
    }
    s.action = valid[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
    const nn::VarPtr logp = nn::masked_log_softmax(
        nn::constant(model.policy_logits_nograd(s.policy_obs)), s.mask);
    const double shift[] = {0.0, 0.5, -0.5, rng.uniform(-0.3, 0.3)};
    s.log_prob = logp->value.at(s.action, 0) + shift[i % 4];
    s.value_obs = nn::Tensor::randn(1, obs.value_feature_dim(), rng);
    episode.steps.push_back(std::move(s));
  }
  buffer.add_episode(std::move(episode));
  buffer.finish(1.0, 0.97, true);
  std::size_t i = 0;
  for (Step* s : buffer.flat_steps()) {
    s->advantage = i % 7 == 3 ? 0.0 : (i % 2 == 0 ? 1.0 : -1.0) * rng.uniform(0.1, 2.0);
    s->ret = rng.normal(0.0, 1.0);
    ++i;
  }
  return buffer;
}

bool same_bytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void expect_same_params(const std::vector<nn::VarPtr>& got,
                        const std::vector<nn::VarPtr>& want, const char* which) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(want[i]->has_grad()) << which << " parameter " << i;
    EXPECT_TRUE(same_bytes(got[i]->value, want[i]->value)) << which << " value " << i;
    EXPECT_TRUE(same_bytes(got[i]->grad, want[i]->grad)) << which << " grad " << i;
  }
}

void expect_parity(const Case& c, const PpoConfig& config, std::uint64_t seed) {
  const std::unique_ptr<ActorCritic> batched = make_model(c, seed);
  const std::unique_ptr<ActorCritic> per_step = batched->clone();
  RolloutBuffer buffer = make_buffer(c, *batched, seed + 1);
  std::unique_ptr<util::ThreadPool> pool;
  if (c.pool) pool = std::make_unique<util::ThreadPool>(2);

  Ppo ppo(*batched, config, pool.get());
  reference::Ppo ref(*per_step, config, pool.get());
  util::Rng rng_a(seed + 2);
  util::Rng rng_b(seed + 2);
  const PpoStats got = ppo.update(buffer, rng_a);
  const PpoStats want = ref.update(buffer, rng_b);

  EXPECT_TRUE(same_bytes(got.policy_loss, want.policy_loss));
  EXPECT_TRUE(same_bytes(got.value_loss, want.value_loss));
  EXPECT_TRUE(same_bytes(got.approx_kl, want.approx_kl));
  EXPECT_TRUE(same_bytes(got.entropy, want.entropy));
  EXPECT_TRUE(same_bytes(got.policy_iters, want.policy_iters));
  EXPECT_TRUE(same_bytes(got.value_iters, want.value_iters));
  EXPECT_TRUE(same_bytes(got.clip_fraction, want.clip_fraction));
  EXPECT_TRUE(same_bytes(got.grad_norm, want.grad_norm));
  expect_same_params(batched->policy_parameters(), per_step->policy_parameters(),
                     "policy");
  expect_same_params(batched->value_parameters(), per_step->value_parameters(),
                     "value");
  // The cases must reach the branches they are meant to: a clipped
  // ratio and an applied policy step.
  EXPECT_GT(want.clip_fraction, 0.0);
  EXPECT_GT(want.policy_iters, 0u);
}

PpoConfig parity_config(const Case& c) {
  PpoConfig config;
  config.train_iters = 3;
  // 200 steps sample 96-step minibatches (the sharded path when a pool
  // exists); 40 steps run as one batch below the 64-step shard floor.
  config.minibatch_size = 96;
  config.entropy_coef = c.entropy_coef;
  config.target_kl = 0.0;
  return config;
}

using Param = std::tuple<Net, bool, double, bool, std::size_t>;

class PpoBatchedParity : public ::testing::TestWithParam<Param> {};

TEST_P(PpoBatchedParity, GradsStatsAndParametersMatchPerStepReference) {
  Case c;
  std::tie(c.net, c.stop_action, c.entropy_coef, c.pool, c.steps) = GetParam();
  expect_parity(c, parity_config(c), 11 + c.steps);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, PpoBatchedParity,
    ::testing::Combine(::testing::Values(Net::Kernel, Net::Flat), ::testing::Bool(),
                       ::testing::Values(0.0, 0.01), ::testing::Bool(),
                       ::testing::Values(std::size_t{40}, std::size_t{200})),
    [](const ::testing::TestParamInfo<Param>& info) {
      const Param& p = info.param;
      return std::string(std::get<0>(p) == Net::Kernel ? "Kernel" : "Flat") +
             (std::get<1>(p) ? "_Stop" : "_NoStop") +
             (std::get<2>(p) > 0.0 ? "_Entropy" : "_NoEntropy") +
             (std::get<3>(p) ? "_Pool" : "_NoPool") + "_" +
             std::to_string(std::get<4>(p)) + "Steps";
    });

TEST(PpoBatchedParityEdges, EarlyStopAndFullBatchMatchPerStepReference) {
  // Approximate-KL early stopping on, full-batch minibatches and more
  // shards than the pool has threads.
  Case c;
  c.net = Net::Kernel;
  c.stop_action = true;
  c.entropy_coef = 0.01;
  c.pool = true;
  c.steps = 150;
  PpoConfig config = parity_config(c);
  config.minibatch_size = 0;
  config.target_kl = 0.05;
  config.train_iters = 6;
  expect_parity(c, config, 5);
}

}  // namespace
}  // namespace rlbf::rl
