// Sharded sweep execution and shard-output merging.
//
// A sweep's expanded instance list is fully determined by (specs, seed)
// before any worker starts, so distributing it across machines is a
// deterministic partition of instance indices: shard i of N owns every
// global index g with g % N == i. Each shard writes one summary
// ("summary-shard<i>of<N>.json") whose rows carry their global instance
// index, and merge_shard_dirs() recombines a complete shard set into
// the canonical unsharded files — byte-identical to a single-machine
// run at the same seed, because rows are rendered once (exp/sink.h) and
// merged as opaque text, never re-parsed and re-formatted.
//
//   machine A: rlbf_run sweep --scenario=... --sweep=... --shard=0/2 --out_dir=sa
//   machine B: rlbf_run sweep --scenario=... --sweep=... --shard=1/2 --out_dir=sb
//   anywhere:  rlbf_run merge --inputs=sa,sb --out_dir=merged
//
// Incomplete or inconsistent shard sets (a missing shard, duplicate or
// out-of-range instances, mixed shard counts) fail with named
// std::runtime_error diagnostics — never a silently wrong merge.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "exp/sink.h"

namespace rlbf::exp {

/// One shard of an N-way partition. The default (0/1) is "everything":
/// an unsharded run is shard 0 of 1.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  bool is_all() const { return count == 1; }
  std::string label() const;  // "0/3"
};

/// Parse "INDEX/COUNT" ("0/3"). Throws std::invalid_argument naming the
/// malformed spec on junk, COUNT == 0, or INDEX >= COUNT.
ShardSpec parse_shard(const std::string& text);

/// The global instance indices shard `shard` owns out of `total`
/// (ascending). Round-robin: g % count == index, so shard workloads stay
/// balanced even when expensive instances cluster at one end of the
/// grid. Shards beyond the instance count come back empty — a valid,
/// mergeable result.
std::vector<std::size_t> shard_instance_indices(std::size_t total,
                                                const ShardSpec& shard);

/// A shard's slice of a sweep summary: row k of `rows` is global
/// instance `instances[k]` of a `total_instances`-instance sweep run
/// with --format=`format` (csv | json | both), and `per_job` names the
/// per-job CSVs the shard wrote beside its summary.
struct ShardSummary {
  ShardSpec shard;
  std::size_t total_instances = 0;
  std::string format = "csv";
  std::vector<std::size_t> instances;
  std::vector<SummaryRow> rows;
  std::vector<std::string> per_job;
};

/// "summary-shard0of3.json".
std::string shard_summary_filename(const ShardSpec& shard);

/// The shard summary, one JSON document laid out by obs::json::Writer:
///
///   {"shard": "i/N", "total": T, "format": "both",
///    "per_job": ["jobs-….csv", …],
///    "rows": [{"instance": g, "csv": "<row>", "json": "<row>"}, …]}
///
/// Each row carries both canonical sink renderings (summary_csv_row,
/// summary_json_row) as JSON strings, so the merge moves them as opaque
/// bytes and never re-parses a metric or a 64-bit seed.
void write_shard_summary(std::ostream& os, const ShardSummary& summary);

struct MergeReport {
  std::size_t shard_count = 0;
  std::size_t total_instances = 0;
  bool csv_merged = false;
  bool json_merged = false;
  std::size_t per_job_files_copied = 0;
};

/// Scan `input_dirs` for shard summaries (summary-shard*of*.json),
/// write the canonical summary.csv and/or summary.json (as the shards'
/// --format says) into `out_dir`, and copy the shards' per-job CSVs
/// alongside them, so the merged directory diffs clean against an
/// unsharded --out_dir. Every check runs before anything is written;
/// each failure is a std::runtime_error starting "merge:" — no shard
/// summaries, an unreadable or malformed one, an inconsistent set
/// (shard count, instance total or format differ), a duplicate or
/// missing shard, a duplicate, out-of-range or missing instance, a
/// jobs-*.csv no shard lists, a listed one that is missing, and an
/// `out_dir` that is one of the inputs.
MergeReport merge_shard_dirs(const std::vector<std::string>& input_dirs,
                             const std::string& out_dir);

}  // namespace rlbf::exp
