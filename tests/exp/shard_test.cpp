#include "exp/shard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exp/sweep.h"
#include "obs/json.h"

namespace rlbf::exp {
namespace {

namespace fs = std::filesystem;

TEST(ParseShard, ParsesValidSpecs) {
  const ShardSpec all = parse_shard("0/1");
  EXPECT_EQ(all.index, 0u);
  EXPECT_EQ(all.count, 1u);
  EXPECT_TRUE(all.is_all());
  const ShardSpec two = parse_shard("2/5");
  EXPECT_EQ(two.index, 2u);
  EXPECT_EQ(two.count, 5u);
  EXPECT_FALSE(two.is_all());
  EXPECT_EQ(two.label(), "2/5");
}

TEST(ParseShard, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_shard(""), std::invalid_argument);
  EXPECT_THROW(parse_shard("3"), std::invalid_argument);        // no '/'
  EXPECT_THROW(parse_shard("x/y"), std::invalid_argument);      // junk
  EXPECT_THROW(parse_shard("1.5/3"), std::invalid_argument);    // non-integer
  EXPECT_THROW(parse_shard("-1/3"), std::invalid_argument);     // negative
  EXPECT_THROW(parse_shard("0/0"), std::invalid_argument);      // count 0
  EXPECT_THROW(parse_shard("3/3"), std::invalid_argument);      // out of range
  EXPECT_THROW(parse_shard("1/2/3"), std::invalid_argument);    // extra field
}

TEST(ShardIndices, SingleShardOwnsEverythingInOrder) {
  const auto indices = shard_instance_indices(5, parse_shard("0/1"));
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ShardIndices, PartitionIsDisjointCompleteAndOrdered) {
  const std::size_t total = 11;
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < 3; ++i) {
    ShardSpec shard;
    shard.index = i;
    shard.count = 3;
    const auto indices = shard_instance_indices(total, shard);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      EXPECT_LT(indices[k], total);
      if (k > 0) EXPECT_LT(indices[k - 1], indices[k]);  // ascending
      EXPECT_TRUE(seen.insert(indices[k]).second)
          << "instance " << indices[k] << " owned by two shards";
    }
  }
  EXPECT_EQ(seen.size(), total);  // no gaps
}

TEST(ShardIndices, ShardsBeyondInstanceCountComeBackEmpty) {
  ShardSpec last;
  last.index = 4;
  last.count = 5;
  EXPECT_TRUE(shard_instance_indices(3, last).empty());
  EXPECT_TRUE(shard_instance_indices(0, last).empty());
}

TEST(RunSweepInstances, RejectsBadShardConfigurations) {
  SweepOptions options;
  options.shard_count = 0;
  EXPECT_THROW(run_sweep_instances(4, options), std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(run_sweep_instances(4, options), std::invalid_argument);
}

TEST(RunSweepInstances, CoversTheReplicatedGrid) {
  SweepOptions options;
  options.replications = 3;
  options.shard_index = 1;
  options.shard_count = 2;
  // 2 specs x 3 replications = 6 instances; shard 1/2 owns the odd ones.
  EXPECT_EQ(run_sweep_instances(2, options),
            (std::vector<std::size_t>{1, 3, 5}));
}

// The distributed-execution contract: running every shard and stitching
// the results back together in global order reproduces the unsharded
// sweep byte for byte (the seeds are fixed before partitioning).
TEST(RunSweep, ShardUnionIsByteIdenticalToUnshardedRun) {
  ScenarioSpec base = find_scenario("sdsc-easy");
  base.trace_jobs = 200;
  const auto specs = expand_grid(base, parse_sweep("policy=FCFS,SJF"));

  SweepOptions options;
  options.seed = 11;
  options.threads = 2;
  options.replications = 2;
  const std::vector<ScenarioRun> full = run_sweep(specs, options);
  ASSERT_EQ(full.size(), 4u);

  std::vector<std::string> stitched(full.size());
  for (std::size_t i = 0; i < 3; ++i) {
    SweepOptions shard_options = options;
    shard_options.shard_index = i;
    shard_options.shard_count = 3;
    const auto instances = run_sweep_instances(specs.size(), shard_options);
    const auto runs = run_sweep(specs, shard_options);
    ASSERT_EQ(runs.size(), instances.size());
    for (std::size_t k = 0; k < runs.size(); ++k) {
      stitched[instances[k]] = summary_csv_row(summarize(runs[k]));
    }
  }
  for (std::size_t g = 0; g < full.size(); ++g) {
    EXPECT_EQ(stitched[g], summary_csv_row(summarize(full[g])))
        << "instance " << g << " differs between sharded and unsharded runs";
  }
}

// ---- shard file round trip + merge ----

SummaryRow row_for(std::size_t g) {
  SummaryRow row;
  row.scenario = "scn/load=" + std::to_string(g);
  // Hostile labels: commas and quotes everywhere, and (on odd rows) an
  // embedded newline — csv_escape quotes it across physical lines, and
  // the shard reader must reassemble the logical row.
  row.label = "label, with \"quotes\"" + std::string(g % 2 ? "\nline2" : "") +
              " #" + std::to_string(g);
  row.seed = 7;
  row.jobs = 100 + g;
  row.bsld = 1.5 * static_cast<double>(g + 1);
  row.avg_wait = 3.25;
  row.utilization = 0.5;
  row.backfilled = static_cast<double>(g);
  row.killed = 0.0;
  return row;
}

struct ShardSet {
  std::string dir;
  std::vector<SummaryRow> all_rows;
  std::vector<std::string> csv_paths;
  std::vector<std::string> json_paths;
};

/// Write `total` synthetic rows as a complete `count`-way shard set.
ShardSet write_shard_set(const std::string& name, std::size_t total,
                         std::size_t count) {
  ShardSet set;
  set.dir = ::testing::TempDir() + "/rlbf_shard_" + name;
  fs::remove_all(set.dir);
  fs::create_directories(set.dir);
  for (std::size_t g = 0; g < total; ++g) set.all_rows.push_back(row_for(g));
  for (std::size_t i = 0; i < count; ++i) {
    ShardSummary summary;
    summary.shard.index = i;
    summary.shard.count = count;
    summary.total_instances = total;
    summary.instances = shard_instance_indices(total, summary.shard);
    for (const std::size_t g : summary.instances) {
      summary.rows.push_back(set.all_rows[g]);
    }
    const std::string csv =
        set.dir + "/" + shard_summary_filename(summary.shard, "csv");
    const std::string json =
        set.dir + "/" + shard_summary_filename(summary.shard, "json");
    EXPECT_TRUE(obs::write_file(
        csv, [&](std::ostream& os) { write_shard_summary_csv(os, summary); }));
    EXPECT_TRUE(obs::write_file(
        json, [&](std::ostream& os) { write_shard_summary_json(os, summary); }));
    set.csv_paths.push_back(csv);
    set.json_paths.push_back(json);
  }
  return set;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string canonical_csv(const std::vector<SummaryRow>& rows) {
  std::ostringstream os;
  write_summary_csv(os, rows);
  return os.str();
}

std::string canonical_json(const std::vector<SummaryRow>& rows) {
  std::ostringstream os;
  write_summary_json(os, rows);
  return os.str();
}

TEST(MergeShards, RestoresTheCanonicalFilesByteForByte) {
  const ShardSet set = write_shard_set("roundtrip", 7, 3);
  const std::string out_csv = set.dir + "/summary.csv";
  const std::string out_json = set.dir + "/summary.json";
  merge_shard_summaries_csv(set.csv_paths, out_csv);
  merge_shard_summaries_json(set.json_paths, out_json);
  EXPECT_EQ(read_file(out_csv), canonical_csv(set.all_rows));
  EXPECT_EQ(read_file(out_json), canonical_json(set.all_rows));
}

TEST(MergeShards, AcceptsEmptyShardsWhenCountExceedsInstances) {
  // 2 instances across 4 shards: shards 2 and 3 are empty but valid.
  const ShardSet set = write_shard_set("empty", 2, 4);
  const std::string out_csv = set.dir + "/summary.csv";
  merge_shard_summaries_csv(set.csv_paths, out_csv);
  EXPECT_EQ(read_file(out_csv), canonical_csv(set.all_rows));
}

/// EXPECT a merge failure whose message contains `needle`.
template <typename Fn>
void expect_merge_error(const Fn& merge_call, const std::string& needle) {
  try {
    merge_call();
    FAIL() << "expected a merge error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error '" << e.what() << "' does not mention '" << needle << "'";
  }
}

TEST(MergeShards, NamesMissingShards) {
  const ShardSet set = write_shard_set("missingshard", 6, 3);
  const std::vector<std::string> partial = {set.csv_paths[0], set.csv_paths[2]};
  expect_merge_error(
      [&] { merge_shard_summaries_csv(partial, set.dir + "/out.csv"); },
      "missing shard 1/3");
}

TEST(MergeShards, NamesDuplicateShards) {
  const ShardSet set = write_shard_set("dupshard", 6, 3);
  std::vector<std::string> inputs = set.csv_paths;
  inputs.push_back(set.csv_paths[1]);
  expect_merge_error(
      [&] { merge_shard_summaries_csv(inputs, set.dir + "/out.csv"); },
      "duplicate shard 1/3");
}

/// Overwrite shard 1 of a 2-way, 4-instance set with the given claimed
/// instances (rows are synthesized to match).
void rewrite_shard1(const ShardSet& set, const std::vector<std::size_t>& owns) {
  ShardSummary summary;
  summary.shard.index = 1;
  summary.shard.count = 2;
  summary.total_instances = 4;
  summary.instances = owns;
  for (const std::size_t g : owns) summary.rows.push_back(row_for(g));
  ASSERT_TRUE(obs::write_file(set.csv_paths[1], [&](std::ostream& os) {
    write_shard_summary_csv(os, summary);
  }));
}

TEST(MergeShards, NamesDuplicateInstances) {
  const ShardSet set = write_shard_set("dupinstance", 4, 2);
  // Shard 1 claims instance 0, which shard 0 also owns.
  rewrite_shard1(set, {0, 3});
  expect_merge_error(
      [&] { merge_shard_summaries_csv(set.csv_paths, set.dir + "/out.csv"); },
      "duplicate instance 0");
}

TEST(MergeShards, NamesGapsInTheInstanceSet) {
  const ShardSet set = write_shard_set("gap", 4, 2);
  // Shard 1 lost instance 1's row: a gap, not a missing shard.
  rewrite_shard1(set, {3});
  expect_merge_error(
      [&] { merge_shard_summaries_csv(set.csv_paths, set.dir + "/out.csv"); },
      "missing instance 1");
}

TEST(MergeShards, NamesInconsistentShardSets) {
  const ShardSet a = write_shard_set("mixed_a", 4, 2);
  const ShardSet b = write_shard_set("mixed_b", 6, 2);
  const std::vector<std::string> inputs = {a.csv_paths[0], b.csv_paths[1]};
  expect_merge_error(
      [&] { merge_shard_summaries_csv(inputs, a.dir + "/out.csv"); },
      "inconsistent shard set");
}

TEST(MergeShards, RejectsFilesWithoutShardHeaders) {
  const std::string dir = ::testing::TempDir() + "/rlbf_shard_noheader";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir + "/summary-shard0of1.csv") << "scenario,label\nplain,row\n";
  expect_merge_error(
      [&] {
        merge_shard_summaries_csv({dir + "/summary-shard0of1.csv"},
                                  dir + "/out.csv");
      },
      "not a shard summary");
}

TEST(MergeShardDirs, MergesBothFamiliesAndReportsCounts) {
  const ShardSet set = write_shard_set("dirs", 5, 2);
  // Split the files across two "machines" plus a per-job artifact each —
  // named as the instances' runs would have named them (scenario + seed).
  const std::string dir_a = set.dir + "/a";
  const std::string dir_b = set.dir + "/b";
  fs::create_directories(dir_a);
  fs::create_directories(dir_b);
  for (const std::string& path : {set.csv_paths[0], set.json_paths[0]}) {
    fs::copy_file(path, dir_a + "/" + fs::path(path).filename().string());
  }
  for (const std::string& path : {set.csv_paths[1], set.json_paths[1]}) {
    fs::copy_file(path, dir_b + "/" + fs::path(path).filename().string());
  }
  // Each shard's instances contribute their per-job file (0,2,4 landed
  // on shard 0 in dir_a; 1,3 on shard 1 in dir_b).
  for (const std::size_t g : {0u, 2u, 4u}) {
    std::ofstream(dir_a + "/" + per_job_filename(row_for(g).scenario, 7))
        << "job_index\n" << g << "\n";
  }
  for (const std::size_t g : {1u, 3u}) {
    std::ofstream(dir_b + "/" + per_job_filename(row_for(g).scenario, 7))
        << "job_index\n" << g << "\n";
  }

  const std::string merged = set.dir + "/merged";
  const MergeReport report = merge_shard_dirs({dir_a, dir_b}, merged);
  EXPECT_EQ(report.shard_count, 2u);
  EXPECT_EQ(report.total_instances, 5u);
  EXPECT_TRUE(report.csv_merged);
  EXPECT_TRUE(report.json_merged);
  EXPECT_EQ(report.per_job_files_copied, 5u);
  EXPECT_EQ(read_file(merged + "/summary.csv"), canonical_csv(set.all_rows));
  EXPECT_EQ(read_file(merged + "/summary.json"), canonical_json(set.all_rows));
  for (std::size_t g = 0; g < 5; ++g) {
    EXPECT_TRUE(
        fs::exists(merged + "/" + per_job_filename(row_for(g).scenario, 7)))
        << g;
  }

  // Re-running the merge into the same directory is idempotent.
  const MergeReport again = merge_shard_dirs({dir_a, dir_b}, merged);
  EXPECT_EQ(again.per_job_files_copied, 5u);
  EXPECT_EQ(read_file(merged + "/summary.csv"), canonical_csv(set.all_rows));

  // Dropping one instance's per-job file (a lost transfer) is a named
  // error once any per-job output exists; dropping ALL of them means
  // the sweep ran without per-job output and stays valid.
  fs::remove(dir_b + "/" + per_job_filename(row_for(3).scenario, 7));
  expect_merge_error(
      [&] { merge_shard_dirs({dir_a, dir_b}, set.dir + "/merged2"); },
      "missing per-job file");
  for (const std::size_t g : {0u, 2u, 4u}) {
    fs::remove(dir_a + "/" + per_job_filename(row_for(g).scenario, 7));
  }
  fs::remove(dir_b + "/" + per_job_filename(row_for(1).scenario, 7));
  const MergeReport no_jobs = merge_shard_dirs({dir_a, dir_b}, set.dir + "/m3");
  EXPECT_EQ(no_jobs.per_job_files_copied, 0u);
}

TEST(MergeShardDirs, RejectsPerJobFilesFromAnotherSweep) {
  const ShardSet set = write_shard_set("stalejobs", 3, 1);
  const std::string dir = set.dir + "/m";
  fs::create_directories(dir);
  fs::copy_file(set.csv_paths[0],
                dir + "/" + fs::path(set.csv_paths[0]).filename().string());
  // A leftover per-job file no instance of this sweep writes (different
  // scenario/seed — e.g. the directory was reused across sweeps).
  std::ofstream(dir + "/jobs-other-sweep-s99.csv") << "job_index\n0\n";
  expect_merge_error([&] { merge_shard_dirs({dir}, set.dir + "/out"); },
                     "unexpected per-job file");
}

TEST(MergeShardDirs, FailsWhenNoShardSummariesExist) {
  const std::string dir = ::testing::TempDir() + "/rlbf_shard_none";
  fs::remove_all(dir);
  fs::create_directories(dir);
  expect_merge_error([&] { merge_shard_dirs({dir}, dir + "/out"); },
                     "no shard summaries");
}

}  // namespace
}  // namespace rlbf::exp
