// Plan-builder and partition tests: jobs are pure functions of their
// options, shard flags and output directories are exactly where the
// collector will look, and the training partition keeps warm-start
// consumers with their sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "dist/job.h"
#include "model/train.h"

namespace rlbf {
namespace {

bool has_arg(const dist::JobSpec& job, const std::string& arg) {
  return std::find(job.argv.begin(), job.argv.end(), arg) != job.argv.end();
}

dist::PlanOptions sweep_options() {
  dist::PlanOptions options;
  options.worker = "/usr/bin/rlbf_run";
  options.args = {"--scenario=sdsc-easy", "--seed=7"};
  options.workers = 3;
  options.work_dir = "scratch";
  return options;
}

TEST(PlanTest, SweepPlanPartitionsIntoShardJobs) {
  const std::vector<dist::JobSpec> jobs = dist::plan_sweep_jobs(sweep_options());
  ASSERT_EQ(jobs.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
    EXPECT_EQ(jobs[i].name,
              "sweep-shard" + std::to_string(i) + "/3");
    EXPECT_EQ(jobs[i].argv[0], "/usr/bin/rlbf_run");
    EXPECT_EQ(jobs[i].argv[1], "sweep");
    EXPECT_TRUE(has_arg(jobs[i], "--scenario=sdsc-easy"));
    EXPECT_TRUE(has_arg(jobs[i], "--seed=7"));
    EXPECT_TRUE(has_arg(jobs[i], "--shard=" + std::to_string(i) + "/3"));
    EXPECT_EQ(jobs[i].output_dir, "scratch/shard" + std::to_string(i));
    EXPECT_TRUE(has_arg(jobs[i], "--out_dir=" + jobs[i].output_dir));
  }
}

TEST(PlanTest, SweepPlanIsDeterministic) {
  const auto a = dist::plan_sweep_jobs(sweep_options());
  const auto b = dist::plan_sweep_jobs(sweep_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].argv, b[i].argv);
    EXPECT_EQ(a[i].output_dir, b[i].output_dir);
  }
}

TEST(PlanTest, TrainPlanGivesEachWorkerAPrivateStoreAndBundle) {
  dist::PlanOptions options;
  options.worker = "rlbf_run";
  options.args = {"--ablations", "--epochs=1"};
  options.workers = 2;
  options.work_dir = "w";
  const std::vector<dist::JobSpec> jobs = dist::plan_train_jobs(options);
  ASSERT_EQ(jobs.size(), 2u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string worker_dir = "w/worker" + std::to_string(i);
    EXPECT_EQ(jobs[i].argv[1], "train");
    EXPECT_TRUE(has_arg(jobs[i], "--ablations"));
    EXPECT_TRUE(has_arg(jobs[i], "--shard=" + std::to_string(i) + "/2"));
    EXPECT_TRUE(has_arg(jobs[i], "--store=" + worker_dir + "/store"));
    EXPECT_TRUE(has_arg(jobs[i], "--export_bundle=" + worker_dir + "/bundle"));
    EXPECT_EQ(jobs[i].output_dir, worker_dir + "/bundle");
  }
}

TEST(PlanTest, MalformedPlanOptionsAreNamedErrors) {
  dist::PlanOptions options = sweep_options();
  options.workers = 0;
  EXPECT_THROW(dist::plan_sweep_jobs(options), std::invalid_argument);
  options = sweep_options();
  options.worker = "";
  EXPECT_THROW(dist::plan_sweep_jobs(options), std::invalid_argument);
  options = sweep_options();
  options.work_dir = "";
  EXPECT_THROW(dist::plan_train_jobs(options), std::invalid_argument);
}

TEST(PlanTest, SidecarsLiveAtTheWorkDirRootNamedByJobId) {
  dist::PlanOptions options = sweep_options();
  options.sidecars.metrics = true;
  options.sidecars.series = true;
  const std::vector<dist::JobSpec> jobs = dist::plan_sweep_jobs(options);
  ASSERT_EQ(jobs.size(), 3u);
  const dist::JobSpec& job = jobs[2];
  EXPECT_EQ(job.metrics_path, "scratch/worker2.metrics.json");
  EXPECT_EQ(job.trace_path, "");  // not requested
  EXPECT_EQ(job.series_path, "scratch/worker2.series.jsonl");
  EXPECT_TRUE(has_arg(job, "--metrics_out=scratch/worker2.metrics.json"));
  EXPECT_TRUE(has_arg(job, "--series_out=scratch/worker2.series.jsonl"));
  // No sidecars requested: no paths, no flags.
  const dist::JobSpec bare = dist::plan_sweep_jobs(sweep_options())[2];
  EXPECT_EQ(bare.argv.size() + 2, job.argv.size());
  EXPECT_TRUE(bare.metrics_path.empty() && bare.series_path.empty());
  // The collector-side helper lays out the same files by job id.
  dist::JobSpec rollout;
  rollout.id = 7;
  dist::add_sidecars(rollout, {false, true, false}, "w");
  EXPECT_EQ(rollout.trace_path, "w/worker7.trace.json");
  EXPECT_EQ(rollout.argv,
            (std::vector<std::string>{"--trace_out=w/worker7.trace.json"}));
}

TEST(PlanTest, CommandLineQuotesEveryArgument) {
  dist::JobSpec job;
  job.argv = {"bin", "--flag=a b"};
  EXPECT_EQ(job.command_line(), "'bin' '--flag=a b'");
}

// ---- the train-grid partition (model::train_shard_indices) ----

std::vector<model::TrainingSpec> specs_named(
    const std::vector<std::string>& names) {
  std::vector<model::TrainingSpec> specs;
  for (const std::string& name : names) {
    model::TrainingSpec spec;
    spec.name = name;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(TrainShardTest, PlainRoundRobinWithoutWarmStarts) {
  const auto specs = specs_named({"a", "b", "c", "d", "e"});
  EXPECT_EQ(model::train_shard_indices(specs, 0, 2),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(model::train_shard_indices(specs, 1, 2),
            (std::vector<std::size_t>{1, 3}));
  // 0/1 is "everything", matching the unsharded default.
  EXPECT_EQ(model::train_shard_indices(specs, 0, 1),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TrainShardTest, ShardsBeyondTheGridAreEmpty) {
  const auto specs = specs_named({"a", "b"});
  EXPECT_TRUE(model::train_shard_indices(specs, 2, 4).empty());
  EXPECT_TRUE(model::train_shard_indices(specs, 0, 3).size() == 1);
}

TEST(TrainShardTest, WarmStartConsumerSharesItsSourcesShard) {
  auto specs = specs_named({"source", "b", "c", "finetune", "d"});
  specs[3].init_agent = "source";
  // Groups in first-member order: {source, finetune}=0, {b}=1, {c}=2,
  // {d}=3 — round-robin over groups keeps the chain together on shard 0
  // and wraps group 3 back onto shard 0.
  const auto shard0 = model::train_shard_indices(specs, 0, 3);
  const auto shard1 = model::train_shard_indices(specs, 1, 3);
  const auto shard2 = model::train_shard_indices(specs, 2, 3);
  EXPECT_EQ(shard0, (std::vector<std::size_t>{0, 3, 4}));  // chain + d
  EXPECT_EQ(shard1, (std::vector<std::size_t>{1}));        // b
  EXPECT_EQ(shard2, (std::vector<std::size_t>{2}));        // c
  // The union over all shards is the whole grid, disjointly.
  std::vector<std::size_t> all;
  for (const auto* shard : {&shard0, &shard1, &shard2}) {
    all.insert(all.end(), shard->begin(), shard->end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TrainShardTest, TransitiveWarmStartChainsStayTogether) {
  auto specs = specs_named({"a", "b", "c"});
  specs[1].init_agent = "a";  // b warm-starts from a
  specs[2].init_agent = "b";  // c from b: one 3-spec group
  EXPECT_EQ(model::train_shard_indices(specs, 0, 2),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(model::train_shard_indices(specs, 1, 2).empty());
}

TEST(TrainShardTest, ExternalWarmStartReferencesDoNotGroup) {
  // init_agent naming a store key / file path (not a spec in the list)
  // leaves the spec an independent group.
  auto specs = specs_named({"a", "b"});
  specs[1].init_agent = "0123456789abcdef";
  EXPECT_EQ(model::train_shard_indices(specs, 0, 2),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(model::train_shard_indices(specs, 1, 2),
            (std::vector<std::size_t>{1}));
}

TEST(TrainShardTest, MalformedShardsAreNamedErrors) {
  const auto specs = specs_named({"a"});
  EXPECT_THROW(model::train_shard_indices(specs, 0, 0), std::invalid_argument);
  EXPECT_THROW(model::train_shard_indices(specs, 2, 2), std::invalid_argument);
  try {
    model::train_shard_indices(specs, 3, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard index 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rlbf
