// Sharded sweep execution and shard-output merging.
//
// A sweep's expanded instance list is fully determined by (specs, seed)
// before any worker starts, so distributing it across machines is a
// deterministic partition of instance indices: shard i of N owns every
// global index g with g % N == i. Each shard writes a shard-tagged
// summary ("summary-shard<i>of<N>.csv/json") whose rows carry their
// global instance index, and merge_shard_dirs() recombines a complete
// shard set into the canonical unsharded files — byte-identical to a
// single-machine run at the same seed, because rows are rendered once
// (exp/sink.h) and merged as opaque text, never re-parsed and
// re-formatted.
//
//   machine A: rlbf_run sweep --scenario=... --sweep=... --shard=0/2 --out_dir=sa
//   machine B: rlbf_run sweep --scenario=... --sweep=... --shard=1/2 --out_dir=sb
//   anywhere:  rlbf_run merge --inputs=sa,sb --out_dir=merged
//
// Incomplete or inconsistent shard sets (a missing shard, duplicate or
// out-of-range instances, mixed shard counts) fail with named
// std::runtime_error diagnostics — never a silently wrong merge.
#pragma once

#include <cstdint>
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
/// instance `instances[k]` of a `total_instances`-instance sweep.
struct ShardSummary {
  ShardSpec shard;
  std::size_t total_instances = 0;
  std::vector<std::size_t> instances;
  std::vector<SummaryRow> rows;
};

/// "summary-shard0of3" + ext ("csv"/"json").
std::string shard_summary_filename(const ShardSpec& shard,
                                   const std::string& ext);

/// Shard-tagged renderings: the CSV carries a "# rlbf-shard i/N
/// total=T" header line and a leading `instance` column; the JSON wraps
/// the row objects (each with an extra "instance" key) in a
/// {"shard": ..., "total": ..., "rows": [...]} envelope. Row payloads
/// are the canonical sink renderings, byte for byte.
void write_shard_summary_csv(std::ostream& os, const ShardSummary& summary);
void write_shard_summary_json(std::ostream& os, const ShardSummary& summary);

/// The validated shape of a merged shard set.
struct ShardSetInfo {
  std::size_t shard_count = 0;
  std::size_t total_instances = 0;
};

/// Merge a complete set of shard summary files (all CSV or all JSON,
/// one per shard) into the canonical unsharded file at `out_path`:
/// global order restored, the shard tagging stripped. Throws
/// std::runtime_error with a named diagnostic on unreadable or
/// malformed inputs, inconsistent shard sets (mixed counts/totals),
/// duplicate or missing shards, and duplicate, out-of-range, or missing
/// (gap) instances. Rows are moved as opaque text, so the output is
/// byte-identical to what the unsharded run would have written.
ShardSetInfo merge_shard_summaries_csv(const std::vector<std::string>& inputs,
                                       const std::string& out_path);
ShardSetInfo merge_shard_summaries_json(const std::vector<std::string>& inputs,
                                        const std::string& out_path);

struct MergeReport {
  std::size_t shard_count = 0;
  std::size_t total_instances = 0;
  bool csv_merged = false;
  bool json_merged = false;
  std::size_t per_job_files_copied = 0;
};

/// Directory-level merge: scan `input_dirs` for shard summary files
/// (summary-shard*of*.csv/.json), merge each family present into
/// `out_dir`/summary.csv|json, and copy the shards' per-job CSVs
/// (jobs-*.csv, disjoint across shards by construction) alongside them,
/// so the merged directory diffs clean against an unsharded --out_dir.
/// Throws std::runtime_error (named) when no shard summaries are found,
/// on any merge inconsistency above, or when two inputs carry the same
/// per-job file.
MergeReport merge_shard_dirs(const std::vector<std::string>& input_dirs,
                             const std::string& out_dir);

}  // namespace rlbf::exp
