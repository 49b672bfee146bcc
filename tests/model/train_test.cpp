#include "model/train.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/scenario.h"

namespace rlbf::model {
namespace {

namespace fs = std::filesystem;

// Micro training budget: real PPO epochs, seconds not minutes.
TrainingSpec micro_spec(std::uint64_t seed = 5) {
  TrainingSpec spec;
  spec.name = "micro";
  spec.workload.workload = "SDSC-SP2";
  spec.workload.trace_jobs = 500;
  spec.trainer.epochs = 2;
  spec.trainer.trajectories_per_epoch = 3;
  spec.trainer.jobs_per_trajectory = 96;
  spec.trainer.ppo.train_iters = 5;
  spec.trainer.ppo.minibatch_size = 128;
  spec.trainer.eval_every = 1;
  spec.trainer.eval_samples = 2;
  spec.trainer.eval_sample_jobs = 128;
  spec.trainer.agent.obs.max_obsv_size = 24;
  spec.trainer.agent.obs.value_obsv_size = 8;
  spec.trainer.seed = seed;
  return spec;
}

std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/rlbf_train_" + name;
  fs::remove_all(root);
  return root;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TrainSpec, TrainsCommitsAndReportsProgress) {
  Store store(fresh_root("commit"));
  TrainOptions options;
  options.threads = 2;
  std::size_t progress_calls = 0;
  options.on_progress = [&](const TrainingSpec& spec, const core::EpochStats& p) {
    EXPECT_EQ(spec.name, "micro");
    EXPECT_EQ(p.epoch, progress_calls + 1);
    ++progress_calls;
  };
  const TrainOutcome outcome = train_spec(micro_spec(), store, options);

  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(outcome.epochs_run, 2u);
  EXPECT_EQ(progress_calls, 2u);
  EXPECT_FALSE(std::isnan(outcome.best_eval_bsld));
  EXPECT_TRUE(store.contains(outcome.entry.key));
  EXPECT_EQ(outcome.entry.meta.at("algorithm"), "ppo");
  EXPECT_EQ(outcome.entry.meta.at("workload"), "SDSC-SP2");
  // The best-so-far checkpoint is superseded by the committed entry.
  EXPECT_FALSE(fs::exists(store.checkpoint_path(outcome.entry.key)));
  EXPECT_TRUE(fs::exists(store.spec_path(outcome.entry.key)));
  EXPECT_EQ(file_bytes(store.spec_path(outcome.entry.key)),
            canonical_string(micro_spec()));
}

TEST(TrainSpec, SecondInvocationIsACacheHitAndSkipsRetraining) {
  Store store(fresh_root("cachehit"));
  TrainOptions options;
  options.threads = 2;
  const TrainOutcome first = train_spec(micro_spec(), store, options);
  ASSERT_FALSE(first.cache_hit);
  const std::string bytes_after_first = file_bytes(first.entry.path);

  std::size_t progress_calls = 0;
  options.on_progress = [&](const TrainingSpec&, const core::EpochStats&) {
    ++progress_calls;
  };
  const TrainOutcome second = train_spec(micro_spec(), store, options);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.epochs_run, 0u);
  EXPECT_EQ(progress_calls, 0u) << "cache hit must not run any epoch";
  EXPECT_EQ(second.entry.key, first.entry.key);
  EXPECT_EQ(file_bytes(second.entry.path), bytes_after_first);

  // --force retrains (and, deterministically, rewrites identical bytes).
  options.force = true;
  const TrainOutcome forced = train_spec(micro_spec(), store, options);
  EXPECT_FALSE(forced.cache_hit);
  EXPECT_EQ(forced.epochs_run, 2u);
}

TEST(TrainSpec, DifferentSeedsGetDifferentStoreEntries) {
  Store store(fresh_root("seeds"));
  TrainOptions options;
  options.threads = 2;
  const TrainOutcome a = train_spec(micro_spec(5), store, options);
  const TrainOutcome b = train_spec(micro_spec(6), store, options);
  EXPECT_NE(a.entry.key, b.entry.key);
  EXPECT_EQ(store.list().size(), 2u);
}

TEST(TrainSpecs, MasterSeedPreSplitsPerSpecSeeds) {
  Store store(fresh_root("presplit"));
  TrainOptions options;
  options.threads = 2;
  const std::vector<TrainingSpec> specs = {micro_spec(), micro_spec()};
  const auto outcomes = train_specs(specs, store, options, /*master_seed=*/9);
  ASSERT_EQ(outcomes.size(), 2u);
  // Spec 0 runs at the master seed itself; spec 1 at a split seed — two
  // distinct entries even though the specs were identical.
  EXPECT_NE(outcomes[0].entry.key, outcomes[1].entry.key);
  TrainingSpec at_master = micro_spec(9);
  EXPECT_EQ(outcomes[0].entry.key, fingerprint(at_master));
}

// The acceptance contract: a train+run pipeline is byte-identical across
// thread counts. Gradient shards are fixed, trajectory seeds are
// pre-drawn, reduction order is shard-indexed — so 1 worker and 4
// workers must produce the same model file bytes and the same evaluation
// metrics.
TEST(TrainDeterminism, TrainAndRunAreByteIdenticalAcrossThreadCounts) {
  Store store1(fresh_root("det1"));
  Store store4(fresh_root("det4"));
  TrainOptions options1;
  options1.threads = 1;
  TrainOptions options4;
  options4.threads = 4;
  const TrainOutcome one = train_spec(micro_spec(), store1, options1);
  const TrainOutcome four = train_spec(micro_spec(), store4, options4);

  EXPECT_EQ(one.entry.key, four.entry.key);
  EXPECT_EQ(one.best_eval_bsld, four.best_eval_bsld);
  ASSERT_FALSE(one.cache_hit);
  ASSERT_FALSE(four.cache_hit);
  EXPECT_EQ(file_bytes(one.entry.path), file_bytes(four.entry.path))
      << "trained model bytes depend on the worker count";

  // And the deployment half: run a trained-agent scenario against each
  // store; metrics must match exactly.
  exp::ScenarioSpec scenario;
  scenario.name = "det";
  scenario.workload = "SDSC-SP2";
  scenario.trace_jobs = 400;
  scenario.scheduler.agent = one.entry.key;

  set_default_store_root(store1.root());
  clear_agent_cache();
  const exp::ScenarioRun run1 = exp::run_scenario(scenario, 11);
  set_default_store_root(store4.root());
  clear_agent_cache();
  scenario.scheduler.agent = four.entry.key;
  const exp::ScenarioRun run4 = exp::run_scenario(scenario, 11);

  EXPECT_EQ(run1.metrics.avg_bounded_slowdown, run4.metrics.avg_bounded_slowdown);
  EXPECT_EQ(run1.metrics.avg_wait_time, run4.metrics.avg_wait_time);
  EXPECT_EQ(run1.metrics.backfilled_jobs, run4.metrics.backfilled_jobs);
}

TEST(ResolveAgent, ResolvesSpecNamesKeysAndPaths) {
  const std::string root = fresh_root("resolve");
  set_default_store_root(root);
  clear_agent_cache();
  Store& store = default_store();

  // An untrained registered spec name names the fix in its error.
  try {
    resolve_agent("sdsc-tiny");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("sdsc-tiny"), std::string::npos);
    EXPECT_NE(message.find("rlbf_run train"), std::string::npos);
  }

  const TrainOutcome outcome = train_spec(micro_spec(), store, {});
  // By raw store key.
  const auto by_key = resolve_agent(outcome.entry.key);
  ASSERT_NE(by_key, nullptr);
  // By model file path.
  const auto by_path = resolve_agent(outcome.entry.path);
  ASSERT_NE(by_path, nullptr);
  // The resolution cache hands back the same instance per reference.
  EXPECT_EQ(by_key.get(), resolve_agent(outcome.entry.key).get());

  // Unknown references list the registered spec catalog.
  try {
    resolve_agent("garbage-ref");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sdsc-fcfs"), std::string::npos);
  }
}

TEST(TrainOnTrace, ContentHashSeparatesTransformedTraces) {
  Store store(fresh_root("ontrace"));
  const std::shared_ptr<const swf::Trace> trace =
      exp::build_trace_cached(micro_spec().workload, 5);
  swf::Trace longer = *trace;
  for (auto& job : longer.mutable_jobs()) job.run_time += 10;

  TrainOptions options;
  options.threads = 2;
  const TrainOutcome a = train_on_trace(*trace, micro_spec(), store, options);
  const TrainOutcome b = train_on_trace(longer, micro_spec(), store, options);
  EXPECT_NE(a.entry.key, b.entry.key);
  // Identical (trace, spec) -> cache hit.
  EXPECT_TRUE(train_on_trace(*trace, micro_spec(), store, options).cache_hit);
}

// The training stats persisted with every entry let benches reproduce
// their tables from a cache hit (final-epoch stats, per-epoch eval
// curve) without retraining.
TEST(TrainSpec, PersistsTrainingStatsRecoverableOnCacheHit) {
  Store store(fresh_root("stats"));
  TrainOptions options;
  options.threads = 2;
  const TrainOutcome first = train_spec(micro_spec(), store, options);
  const TrainOutcome hit = train_spec(micro_spec(), store, options);
  ASSERT_TRUE(hit.cache_hit);
  for (const char* key :
       {"final_reward", "final_train_bsld", "final_steps", "eval_curve"}) {
    ASSERT_TRUE(first.entry.meta.count(key)) << key;
    EXPECT_EQ(hit.entry.meta.at(key), first.entry.meta.at(key)) << key;
  }
  // eval_every=1 -> one comma-separated value per epoch.
  const std::string curve = first.entry.meta.at("eval_curve");
  EXPECT_EQ(std::count(curve.begin(), curve.end(), ','), 1);  // 2 epochs
}

// Warm starting (TrainingSpec::init_agent): training resumes from a
// stored agent, the reference is part of the content address, and a
// missing prerequisite is an actionable error, not a silent cold start.
TEST(TrainSpec, WarmStartResolvesStoreKeyAndForksTheFingerprint) {
  Store store(fresh_root("warm"));
  TrainOptions options;
  options.threads = 2;
  const TrainOutcome source = train_spec(micro_spec(5), store, options);

  TrainingSpec fine = micro_spec(6);
  fine.name = "micro-finetune";
  fine.init_agent = source.entry.key;
  const TrainOutcome tuned = train_spec(fine, store, options);
  EXPECT_FALSE(tuned.cache_hit);
  EXPECT_NE(tuned.entry.key, source.entry.key);
  EXPECT_NE(tuned.entry.key, fingerprint(micro_spec(6)));
  EXPECT_EQ(tuned.entry.meta.at("init_agent"), source.entry.key);
  // Second invocation: cache hit, no retraining.
  EXPECT_TRUE(train_spec(fine, store, options).cache_hit);

  // An unresolvable init reference names itself in the error.
  TrainingSpec broken = fine;
  broken.init_agent = "feedfacefeedface";
  try {
    train_spec(broken, store, options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("feedfacefeedface"), std::string::npos);
  }

  // A registered-but-untrained spec name points at the fix.
  TrainingSpec by_name = fine;
  by_name.init_agent = "abl-transfer-source";
  try {
    train_spec(by_name, store, options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rlbf_run train"), std::string::npos);
  }
}

// CLI budget overrides change a source arm's content address but keep
// its spec name; a warm-start reference by name must then fall back to
// the unique same-name entry instead of demanding the registered
// fingerprint (the `rlbf_run train --ablations --epochs=N` path).
TEST(TrainSpec, WarmStartFallsBackToUniqueSameNameEntry) {
  Store store(fresh_root("warmname"));
  TrainOptions options;
  options.threads = 2;
  TrainingSpec source = micro_spec(5);
  source.name = "abl-transfer-source";  // registered name, overridden budget
  const TrainOutcome src = train_spec(source, store, options);
  ASSERT_NE(src.entry.key, fingerprint(find_training_spec("abl-transfer-source")));

  TrainingSpec fine = micro_spec(6);
  fine.name = "micro-ft-by-name";
  fine.init_agent = "abl-transfer-source";
  EXPECT_FALSE(train_spec(fine, store, options).cache_hit);
}

TEST(UnknownAlgorithm, Throws) {
  Store store(fresh_root("alg"));
  TrainingSpec spec = micro_spec();
  spec.trainer.algorithm = "sarsa";
  EXPECT_THROW(train_spec(spec, store, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rlbf::model
