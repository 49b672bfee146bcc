#include "exp/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
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

// ---- shard summary round trip + merge ----

SummaryRow row_for(std::size_t g) {
  SummaryRow row;
  row.scenario = "scn/load=" + std::to_string(g);
  // Hostile labels: commas, quotes and a control byte everywhere, and
  // (on odd rows) an embedded newline. The CSV rendering quotes them
  // across physical lines, the JSON one escapes them, and both must
  // travel through the shard summary's strings unchanged.
  row.label = "label, with \"quotes\" \x02" +
              std::string(g % 2 ? "\nline2" : "") + " #" + std::to_string(g);
  row.seed = 7;
  row.jobs = 100 + g;
  row.bsld = 1.5 * static_cast<double>(g + 1);
  row.avg_wait = 3.25;
  row.utilization = 0.5;
  row.backfilled = static_cast<double>(g);
  row.killed = 0.0;
  return row;
}

std::string per_job_name(std::size_t g) {
  return per_job_filename(row_for(g).scenario, row_for(g).seed);
}

/// Shard `index` of a `count`-way split of `total` synthetic rows.
ShardSummary shard_of(std::size_t index, std::size_t count, std::size_t total,
                      const std::string& format, bool per_job) {
  ShardSummary summary;
  summary.shard.index = index;
  summary.shard.count = count;
  summary.total_instances = total;
  summary.format = format;
  summary.instances = shard_instance_indices(total, summary.shard);
  for (const std::size_t g : summary.instances) {
    summary.rows.push_back(row_for(g));
    if (per_job) summary.per_job.push_back(per_job_name(g));
  }
  return summary;
}

void write_shard(const std::string& path, const ShardSummary& summary) {
  ASSERT_TRUE(obs::write_file(
      path, [&](std::ostream& os) { write_shard_summary(os, summary); }));
}

struct ShardSet {
  std::string dir;     // scratch root of this set
  std::string in;      // dir/in: the shard summaries (and per-job files)
  std::string out;     // dir/out: the default merge destination
  std::vector<SummaryRow> all_rows;
  std::vector<std::string> paths;  // one summary per shard, by index
};

/// Write `total` synthetic rows as a complete `count`-way shard set into
/// one directory; with `per_job`, every shard lists and writes its
/// instances' per-job files as a run does.
ShardSet write_shard_set(const std::string& name, std::size_t total,
                         std::size_t count, const std::string& format = "both",
                         bool per_job = false) {
  ShardSet set;
  set.dir = ::testing::TempDir() + "/rlbf_shard_" + name;
  set.in = set.dir + "/in";
  set.out = set.dir + "/out";
  fs::remove_all(set.dir);
  fs::create_directories(set.in);
  for (std::size_t g = 0; g < total; ++g) set.all_rows.push_back(row_for(g));
  for (std::size_t i = 0; i < count; ++i) {
    const ShardSummary summary = shard_of(i, count, total, format, per_job);
    const std::string path = set.in + "/" + shard_summary_filename(summary.shard);
    write_shard(path, summary);
    for (const std::string& file : summary.per_job) {
      std::ofstream(set.in + "/" + file) << "job_index\n" << file << "\n";
    }
    set.paths.push_back(path);
  }
  return set;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
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
  const MergeReport report = merge_shard_dirs({set.in}, set.out);
  EXPECT_EQ(report.shard_count, 3u);
  EXPECT_EQ(report.total_instances, 7u);
  EXPECT_EQ(read_file(set.out + "/summary.csv"), canonical_csv(set.all_rows));
  EXPECT_EQ(read_file(set.out + "/summary.json"), canonical_json(set.all_rows));
}

// The shard summary is one document of the shared JSON reader's grammar,
// and its rows carry the canonical renderings verbatim.
TEST(MergeShards, ShardSummaryIsOneJsonDocument) {
  const ShardSet set = write_shard_set("document", 4, 2, "csv", true);
  const obs::json::Value doc =
      obs::json::parse(read_file(set.paths[1]), set.paths[1]);
  EXPECT_EQ(doc.string_at("shard"), "1/2");
  EXPECT_EQ(doc.number_at("total"), 4.0);
  EXPECT_EQ(doc.string_at("format"), "csv");
  ASSERT_EQ(doc.at("per_job").items.size(), 2u);
  EXPECT_EQ(doc.at("per_job").items[1].text, per_job_name(3));
  const std::vector<obs::json::Value>& rows = doc.at("rows").items;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].number_at("instance"), 1.0);
  EXPECT_EQ(rows[0].string_at("csv"), summary_csv_row(row_for(1)));
  EXPECT_EQ(rows[0].string_at("json"), summary_json_row(row_for(1)));
}

TEST(MergeShards, AcceptsEmptyShardsWhenCountExceedsInstances) {
  // 2 instances across 4 shards: shards 2 and 3 are empty but valid.
  const ShardSet set = write_shard_set("empty", 2, 4);
  merge_shard_dirs({set.in}, set.out);
  EXPECT_EQ(read_file(set.out + "/summary.csv"), canonical_csv(set.all_rows));
  EXPECT_EQ(read_file(set.out + "/summary.json"), canonical_json(set.all_rows));
}

/// EXPECT a merge failure whose message starts "merge:" and contains
/// `needle`.
template <typename Fn>
void expect_merge_error(const Fn& merge_call, const std::string& needle) {
  try {
    merge_call();
    FAIL() << "expected a merge error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("merge:", 0), 0u) << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << "error '" << what << "' does not mention '" << needle << "'";
  }
}

void expect_merge_error(const ShardSet& set, const std::string& needle) {
  expect_merge_error([&] { merge_shard_dirs({set.in}, set.out); }, needle);
}

TEST(MergeShards, NamesMissingShards) {
  const ShardSet set = write_shard_set("missingshard", 6, 3);
  fs::remove(set.paths[1]);
  expect_merge_error(set, "missing shard 1/3");
  fs::remove(set.paths[2]);
  expect_merge_error(set, "missing shard 1/3");
}

TEST(MergeShards, NamesDuplicateShards) {
  const ShardSet set = write_shard_set("dupshard", 6, 3);
  const std::string again = set.dir + "/again";
  fs::create_directories(again);
  fs::copy_file(set.paths[1], again + "/" + fs::path(set.paths[1]).filename().string());
  expect_merge_error([&] { merge_shard_dirs({set.in, again}, set.out); },
                     "duplicate shard 1/3");
}

/// Overwrite shard 1 of a 2-way, 4-instance set with the given claimed
/// instances (rows are synthesized to match).
void rewrite_shard1(const ShardSet& set, const std::vector<std::size_t>& owns) {
  ShardSummary summary = shard_of(1, 2, 4, "both", false);
  summary.instances = owns;
  summary.rows.clear();
  for (const std::size_t g : owns) summary.rows.push_back(row_for(g));
  write_shard(set.paths[1], summary);
}

TEST(MergeShards, NamesDuplicateInstances) {
  const ShardSet set = write_shard_set("dupinstance", 4, 2);
  // Shard 1 claims instance 0, which shard 0 also owns.
  rewrite_shard1(set, {0, 3});
  expect_merge_error(set, "duplicate instance 0");
}

TEST(MergeShards, NamesGapsInTheInstanceSet) {
  const ShardSet set = write_shard_set("gap", 4, 2);
  // Shard 1 lost instance 1's row: a gap, not a missing shard.
  rewrite_shard1(set, {3});
  expect_merge_error(set, "missing instance 1");
  // The last row lost is a gap too.
  rewrite_shard1(set, {1});
  expect_merge_error(set, "missing instance 3");
}

TEST(MergeShards, NamesOutOfRangeInstances) {
  const ShardSet set = write_shard_set("outofrange", 4, 2);
  rewrite_shard1(set, {1, 3, 4});
  expect_merge_error(set, "instance 4 in " + set.paths[1] + " is out of range");
}

TEST(MergeShards, NamesInconsistentShardSets) {
  const ShardSet a = write_shard_set("mixed_a", 4, 2);
  const ShardSet b = write_shard_set("mixed_b", 6, 2);
  fs::remove(a.paths[1]);
  fs::copy_file(b.paths[1], a.paths[1]);
  expect_merge_error(a, "inconsistent shard set");
}

// Shards run with different --format values would merge into a summary
// set no single run writes.
TEST(MergeShards, NamesMixedFormatsAsInconsistent) {
  const ShardSet set = write_shard_set("mixed_format", 4, 2, "csv");
  write_shard(set.paths[1], shard_of(1, 2, 4, "json", false));
  expect_merge_error(set, "inconsistent shard set");
  expect_merge_error(set, "--format=json");
}

TEST(MergeShards, RejectsFilesWithoutShardHeaders) {
  const ShardSet set = write_shard_set("noheader", 2, 1);
  // A plain summary, a CSV, an empty file, and a shard summary missing
  // its envelope keys.
  for (const std::string& bytes :
       {std::string("[{\"scenario\": \"plain\"}]\n"),
        std::string("scenario,label\nplain,row\n"), std::string(),
        std::string("{\"shard\": \"0/1\", \"total\": 2}\n")}) {
    write_bytes(set.paths[0], bytes);
    expect_merge_error(set, "is not a shard summary");
  }
}

// Counts travel as JSON numbers, so only whole values in [0, 2^53]
// (where a double is exact) name an instance or a total.
TEST(MergeShards, NamesCountsThatAreNotWholeNumbers) {
  const ShardSet set = write_shard_set("counts", 2, 1);
  const std::string valid = read_file(set.paths[0]);
  for (const char* total :
       {"2.5", "-1", "1e300", "9007199254740994", "\"2\"", "null"}) {
    std::string bytes = valid;
    const std::string key = "\"total\": 2,";
    bytes.replace(bytes.find(key), key.size(), std::string("\"total\": ") + total + ",");
    write_bytes(set.paths[0], bytes);
    expect_merge_error(set, "total");
  }
  std::string bytes = valid;
  const std::string key = "\"instance\": 1,";
  bytes.replace(bytes.find(key), key.size(), "\"instance\": 0.5,");
  write_bytes(set.paths[0], bytes);
  expect_merge_error(set, "'instance' is not a whole number");
}

TEST(MergeShardDirs, MergesBothFamiliesAndReportsCounts) {
  const ShardSet set = write_shard_set("dirs", 5, 2, "both", true);
  // Split the set across two "machines": each shard's summary travels
  // with the per-job files it lists (0,2,4 on shard 0; 1,3 on shard 1).
  const std::string dir_a = set.dir + "/a";
  const std::string dir_b = set.dir + "/b";
  fs::create_directories(dir_a);
  fs::create_directories(dir_b);
  for (const std::size_t g : {0u, 1u, 2u, 3u, 4u}) {
    const std::string name = per_job_name(g);
    fs::rename(set.in + "/" + name, (g % 2 ? dir_b : dir_a) + "/" + name);
  }
  fs::rename(set.paths[0], dir_a + "/" + fs::path(set.paths[0]).filename().string());
  fs::rename(set.paths[1], dir_b + "/" + fs::path(set.paths[1]).filename().string());

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
    EXPECT_TRUE(fs::exists(merged + "/" + per_job_name(g))) << g;
  }

  // Re-running the merge into the same directory is idempotent.
  const MergeReport again = merge_shard_dirs({dir_a, dir_b}, merged);
  EXPECT_EQ(again.per_job_files_copied, 5u);
  EXPECT_EQ(read_file(merged + "/summary.csv"), canonical_csv(set.all_rows));

  // Each shard lists the per-job files it wrote, so losing one of them
  // in transit — or all of them — is a named error.
  fs::remove(dir_b + "/" + per_job_name(3));
  expect_merge_error(
      [&] { merge_shard_dirs({dir_a, dir_b}, set.dir + "/merged2"); },
      "missing per-job file " + per_job_name(3));
  for (const std::size_t g : {0u, 2u, 4u}) fs::remove(dir_a + "/" + per_job_name(g));
  fs::remove(dir_b + "/" + per_job_name(1));
  expect_merge_error(
      [&] { merge_shard_dirs({dir_a, dir_b}, set.dir + "/merged3"); },
      "missing per-job file");
  EXPECT_FALSE(fs::exists(set.dir + "/merged3"));
}

// A shard run with --per_job=0 (or --samples) lists no per-job files,
// and --format picks the summaries the merge writes.
TEST(MergeShardDirs, WritesTheSummariesOfTheShardsFormat) {
  const ShardSet set = write_shard_set("csvonly", 3, 2, "csv");
  const MergeReport report = merge_shard_dirs({set.in}, set.out);
  EXPECT_TRUE(report.csv_merged);
  EXPECT_FALSE(report.json_merged);
  EXPECT_EQ(report.per_job_files_copied, 0u);
  EXPECT_EQ(read_file(set.out + "/summary.csv"), canonical_csv(set.all_rows));
  EXPECT_FALSE(fs::exists(set.out + "/summary.json"));

  const ShardSet json = write_shard_set("jsononly", 3, 2, "json");
  merge_shard_dirs({json.in}, json.out);
  EXPECT_FALSE(fs::exists(json.out + "/summary.csv"));
  EXPECT_EQ(read_file(json.out + "/summary.json"), canonical_json(json.all_rows));
}

TEST(MergeShardDirs, RejectsPerJobFilesFromAnotherSweep) {
  const ShardSet set = write_shard_set("stalejobs", 3, 1, "csv", true);
  // A leftover per-job file no shard of this sweep lists (different
  // scenario/seed — e.g. the directory was reused across sweeps).
  std::ofstream(set.in + "/jobs-other-sweep-s99.csv") << "job_index\n0\n";
  expect_merge_error(set, "unexpected per-job file");
  EXPECT_FALSE(fs::exists(set.out));
}

// Merging into one of the inputs would overwrite what it reads; it is
// refused before anything is written, whatever the path spelling.
TEST(MergeShardDirs, RejectsAnOutputDirThatIsAnInput) {
  const ShardSet set = write_shard_set("selfmerge", 3, 1, "both", true);
  for (const std::string& out : {set.in, set.in + "/.", set.dir + "/../" +
                                     fs::path(set.dir).filename().string() + "/in"}) {
    expect_merge_error([&] { merge_shard_dirs({set.in}, out); },
                       "is the input directory");
  }
  EXPECT_FALSE(fs::exists(set.in + "/summary.csv"));
  EXPECT_FALSE(fs::exists(set.in + "/summary.json"));
}

TEST(MergeShardDirs, FailsWhenNoShardSummariesExist) {
  const std::string dir = ::testing::TempDir() + "/rlbf_shard_none";
  fs::remove_all(dir);
  fs::create_directories(dir);
  expect_merge_error([&] { merge_shard_dirs({dir}, dir + "/out"); },
                     "no shard summaries");
  // A CSV shard summary is not one.
  std::ofstream(dir + "/summary-shard0of1.csv") << "# rlbf-shard 0/1 total=1\n";
  expect_merge_error([&] { merge_shard_dirs({dir}, dir + "/out"); },
                     "no shard summaries");
}

// ---- seeded mutation suite for the shard reader ----

/// Merge the set with `path` holding `bytes`: it must succeed or throw a
/// std::runtime_error starting "merge:". Returns whether it merged.
bool merges_or_names_the_error(const ShardSet& set, const std::string& path,
                               const std::string& bytes,
                               const std::string& what) {
  write_bytes(path, bytes);
  try {
    merge_shard_dirs({set.in}, set.out);
    return true;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("merge:", 0), 0u)
        << what << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a named merge error: " << e.what();
  }
  return false;
}

TEST(ShardMutation, EveryMutantMergesOrFailsWithANamedError) {
  const ShardSet set = write_shard_set("mutants", 5, 3, "both", true);
  std::vector<std::string> originals;
  for (const std::string& path : set.paths) originals.push_back(read_file(path));
  ASSERT_TRUE(merges_or_names_the_error(set, set.paths[0], originals[0], "valid"));

  std::size_t mutants = 0;
  std::size_t rejected = 0;
  const auto check = [&](std::size_t k, const std::string& bytes,
                         const std::string& what) {
    ++mutants;
    if (!merges_or_names_the_error(set, set.paths[k], bytes, what)) ++rejected;
  };
  std::mt19937_64 rng(25);
  for (int flip = 0; flip < 300; ++flip) {
    const std::size_t k = rng() % originals.size();
    std::string bytes = originals[k];
    const std::size_t at = rng() % bytes.size();
    bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
    check(k, bytes, "bit flip at byte " + std::to_string(at) + " of shard " +
                        std::to_string(k));
    write_bytes(set.paths[k], originals[k]);
  }
  // A truncated summary never merges: only the trailing newline may go.
  for (std::size_t k = 0; k < originals.size(); ++k) {
    for (std::size_t cut = 0; cut < originals[k].size(); cut += 7) {
      const std::string what =
          "shard " + std::to_string(k) + " truncated at " + std::to_string(cut);
      const std::size_t before = rejected;
      check(k, originals[k].substr(0, cut), what);
      if (cut + 1 < originals[k].size()) {
        EXPECT_EQ(rejected, before + 1) << what;
      }
    }
    write_bytes(set.paths[k], originals[k]);
  }
  for (std::size_t a = 0; a < originals.size(); ++a) {
    for (std::size_t b = 0; b < originals.size(); ++b) {
      if (a == b) continue;
      const std::size_t shorter = std::min(originals[a].size(), originals[b].size());
      for (std::size_t cut = 0; cut < shorter; cut += 11) {
        check(a, originals[a].substr(0, cut) + originals[b].substr(cut),
              "shard " + std::to_string(a) + " spliced with shard " +
                  std::to_string(b) + " at " + std::to_string(cut));
      }
      write_bytes(set.paths[a], originals[a]);
    }
  }
  // Both outcomes occur: a flip inside a row payload still merges.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, mutants);
}

}  // namespace
}  // namespace rlbf::exp
