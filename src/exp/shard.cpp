#include "exp/shard.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "exp/config.h"
#include "obs/json.h"

namespace rlbf::exp {

namespace fs = std::filesystem;

namespace {

/// One shard summary as read back: its tag, the per-job files it wrote,
/// and its rows' two renderings, kept as the opaque bytes the canonical
/// sink produced.
struct ShardFile {
  struct Row {
    std::size_t instance = 0;
    std::string csv;
    std::string json;
  };
  std::string path;
  ShardSpec shard;
  std::size_t total = 0;
  std::string format;
  std::vector<std::string> per_job;
  std::vector<Row> rows;
};

/// A count the shard wrote as a JSON number: whole, >= 0, and at most
/// 2^53, so the double that carried it held it exactly.
std::size_t whole_number_at(const obs::json::Value& object,
                            const std::string& key) {
  const double value = object.number_at(key);
  if (!(value >= 0.0 && value <= 9007199254740992.0) ||
      value != std::floor(value)) {
    throw std::runtime_error("'" + key + "' is not a whole number in [0, 2^53]");
  }
  return static_cast<std::size_t>(value);
}

const std::vector<obs::json::Value>& array_at(const obs::json::Value& object,
                                              const std::string& key) {
  const obs::json::Value& value = object.at(key);
  if (!value.is_array()) {
    throw std::runtime_error("JSON member '" + key + "' is not an array");
  }
  return value.items;
}

ShardFile read_shard(const std::string& path) {
  const auto not_a_shard = [&path](const std::exception& e) {
    return std::runtime_error("merge: " + path + " is not a shard summary: " +
                              e.what());
  };
  ShardFile file;
  file.path = path;
  try {
    const obs::json::Value doc =
        obs::json::parse(obs::read_file(path, "shard summary"), path);
    file.shard = parse_shard(doc.string_at("shard"));
    file.total = whole_number_at(doc, "total");
    file.format = doc.string_at("format");
    if (file.format != "csv" && file.format != "json" && file.format != "both") {
      throw std::runtime_error("unknown format '" + file.format + "'");
    }
    for (const obs::json::Value& name : array_at(doc, "per_job")) {
      if (!name.is_string()) {
        throw std::runtime_error("a 'per_job' entry is not a string");
      }
      file.per_job.push_back(name.text);
    }
    for (const obs::json::Value& row : array_at(doc, "rows")) {
      file.rows.push_back({whole_number_at(row, "instance"),
                           row.string_at("csv"), row.string_at("json")});
    }
  } catch (const std::runtime_error& e) {
    throw not_a_shard(e);
  } catch (const std::invalid_argument& e) {  // parse_shard
    throw not_a_shard(e);
  }
  return file;
}

/// Validate a shard set and return its rows in global instance order.
/// Every check sorts what the files hold instead of allocating by a
/// count the files claim, so a corrupt total cannot exhaust memory.
std::vector<const ShardFile::Row*> merge_rows(
    const std::vector<ShardFile>& files) {
  const ShardFile& first = files[0];
  for (const ShardFile& file : files) {
    if (file.shard.count != first.shard.count || file.total != first.total ||
        file.format != first.format) {
      const auto describe = [](const ShardFile& f) {
        return f.path + " is shard " + f.shard.label() + " of a " +
               std::to_string(f.total) + "-instance --format=" + f.format +
               " sweep";
      };
      throw std::runtime_error("merge: inconsistent shard set: " +
                               describe(file) + ", but " + describe(first));
    }
  }
  std::vector<const ShardFile*> by_index;
  for (const ShardFile& file : files) by_index.push_back(&file);
  std::stable_sort(by_index.begin(), by_index.end(),
                   [](const ShardFile* a, const ShardFile* b) {
                     return a->shard.index < b->shard.index;
                   });
  for (std::size_t k = 0; k < by_index.size(); ++k) {
    if (k > 0 && by_index[k]->shard.index == by_index[k - 1]->shard.index) {
      throw std::runtime_error("merge: duplicate shard " +
                               by_index[k]->shard.label() + " (" +
                               by_index[k - 1]->path + " and " +
                               by_index[k]->path + ")");
    }
  }
  const std::size_t count = first.shard.count;
  for (std::size_t i = 0; i < count; ++i) {
    if (i >= by_index.size() || by_index[i]->shard.index != i) {
      throw std::runtime_error("merge: missing shard " + std::to_string(i) +
                               "/" + std::to_string(count));
    }
  }

  struct Placed {
    const ShardFile::Row* row;
    const ShardFile* file;
  };
  std::vector<Placed> placed;
  for (const ShardFile& file : files) {
    for (const ShardFile::Row& row : file.rows) {
      if (row.instance >= first.total) {
        throw std::runtime_error(
            "merge: instance " + std::to_string(row.instance) + " in " +
            file.path + " is out of range (sweep has " +
            std::to_string(first.total) + " instances)");
      }
      placed.push_back({&row, &file});
    }
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const Placed& a, const Placed& b) {
                     return a.row->instance < b.row->instance;
                   });
  std::vector<const ShardFile::Row*> ordered;
  for (const Placed& p : placed) {
    if (!ordered.empty() && ordered.back()->instance == p.row->instance) {
      throw std::runtime_error("merge: duplicate instance " +
                               std::to_string(p.row->instance) +
                               " (second copy in " + p.file->path + ")");
    }
    if (p.row->instance != ordered.size()) break;
    ordered.push_back(p.row);
  }
  if (ordered.size() != first.total) {
    throw std::runtime_error("merge: missing instance " +
                             std::to_string(ordered.size()) +
                             " (gap in the shard outputs)");
  }
  return ordered;
}

void write_or_throw(const std::string& out_path,
                    const std::function<void(std::ostream&)>& write) {
  if (!obs::write_file(out_path, write)) {
    throw std::runtime_error("merge: cannot write " + out_path);
  }
}

}  // namespace

std::string ShardSpec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

ShardSpec parse_shard(const std::string& text) {
  const auto malformed = [&text]() {
    return std::invalid_argument("shard: malformed shard spec '" + text +
                                 "' (want INDEX/COUNT, e.g. 0/3)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) throw malformed();
  ShardSpec shard;
  if (!parse_number(text.substr(0, slash), &shard.index) ||
      !parse_number(text.substr(slash + 1), &shard.count)) {
    throw malformed();
  }
  if (shard.count == 0) {
    throw std::invalid_argument("shard: shard count must be >= 1 in '" + text +
                                "'");
  }
  if (shard.index >= shard.count) {
    throw std::invalid_argument(
        "shard: shard index " + std::to_string(shard.index) +
        " out of range for shard count " + std::to_string(shard.count));
  }
  return shard;
}

std::vector<std::size_t> shard_instance_indices(std::size_t total,
                                                const ShardSpec& shard) {
  std::vector<std::size_t> indices;
  if (shard.count == 0) return indices;  // parse_shard rejects this upstream
  indices.reserve(total / shard.count + 1);
  for (std::size_t g = shard.index; g < total; g += shard.count) {
    indices.push_back(g);
  }
  return indices;
}

std::string shard_summary_filename(const ShardSpec& shard) {
  return "summary-shard" + std::to_string(shard.index) + "of" +
         std::to_string(shard.count) + ".json";
}

void write_shard_summary(std::ostream& os, const ShardSummary& summary) {
  if (summary.instances.size() != summary.rows.size()) {
    throw std::invalid_argument("shard: instance/row count mismatch");
  }
  obs::json::Writer json(os);
  json.object(true)
      .key("shard").value(summary.shard.label())
      .key("total").value(summary.total_instances)
      .key("format").value(summary.format)
      .key("per_job").array(true);
  for (const std::string& name : summary.per_job) json.value(name);
  json.end().key("rows").array(true);
  for (std::size_t k = 0; k < summary.rows.size(); ++k) {
    json.object()
        .key("instance").value(summary.instances[k])
        .key("csv").value(summary_csv_row(summary.rows[k]))
        .key("json").value(summary_json_row(summary.rows[k]))
        .end();
  }
  json.end().end();
  os << '\n';
}

MergeReport merge_shard_dirs(const std::vector<std::string>& input_dirs,
                             const std::string& out_dir) {
  // Merging into an input would overwrite the summaries it reads and
  // copy per-job files onto themselves half-way through.
  for (const std::string& dir : input_dirs) {
    std::error_code ec;
    if (fs::equivalent(out_dir, dir, ec)) {
      throw std::runtime_error("merge: output directory '" + out_dir +
                               "' is the input directory '" + dir +
                               "' (merge into a directory of its own)");
    }
  }
  std::vector<std::string> inputs;
  std::vector<std::string> per_job;
  for (const std::string& dir : input_dirs) {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      throw std::runtime_error("merge: cannot read input directory '" + dir +
                               "': " + ec.message());
    }
    for (const auto& dirent : it) {
      if (!dirent.is_regular_file()) continue;
      const std::string name = dirent.path().filename().string();
      const std::string ext = dirent.path().extension().string();
      if (name.rfind("summary-shard", 0) == 0 && ext == ".json") {
        inputs.push_back(dirent.path().string());
      } else if (name.rfind("jobs-", 0) == 0 && ext == ".csv") {
        per_job.push_back(dirent.path().string());
      }
    }
  }
  // Directory iteration order is filesystem-dependent; sort so error
  // messages and copy order are stable.
  std::sort(inputs.begin(), inputs.end());
  std::sort(per_job.begin(), per_job.end());
  if (inputs.empty()) {
    std::string joined;
    for (const std::string& dir : input_dirs) {
      joined += (joined.empty() ? "" : ", ") + dir;
    }
    throw std::runtime_error("merge: no shard summaries found under " + joined);
  }
  std::vector<ShardFile> files;
  for (const std::string& path : inputs) files.push_back(read_shard(path));
  const std::vector<const ShardFile::Row*> ordered = merge_rows(files);

  // The per-job files must be exactly those the shards list: a stray
  // jobs-*.csv in a reused shard directory would otherwise ride into the
  // merged output, and a lost one would silently stop it matching an
  // unsharded run. Duplicate basenames among the sources mean two
  // shards produced the same instance.
  std::set<std::string> listed;
  for (const ShardFile& file : files) {
    listed.insert(file.per_job.begin(), file.per_job.end());
  }
  std::map<std::string, std::string> seen;
  for (const std::string& src : per_job) {
    const std::string basename = fs::path(src).filename().string();
    if (listed.count(basename) == 0) {
      throw std::runtime_error(
          "merge: unexpected per-job file " + src +
          " (no shard of this set lists it — stale file from an earlier "
          "sweep?)");
    }
    const auto [it, inserted] = seen.emplace(basename, src);
    if (!inserted) {
      throw std::runtime_error("merge: duplicate per-job file " + basename +
                               " (" + it->second + " and " + src +
                               " — two shards produced the same instance?)");
    }
  }
  for (const std::string& name : listed) {
    if (seen.count(name) == 0) {
      throw std::runtime_error("merge: missing per-job file " + name +
                               " (a shard wrote it, but it did not reach the "
                               "inputs)");
    }
  }

  // Everything validated; write the merged artifacts. The destination is
  // fair game to overwrite: re-running a merge into the same out_dir
  // (a retry, or after re-running one shard) must be idempotent.
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    throw std::runtime_error("merge: cannot create output directory '" +
                             out_dir + "': " + ec.message());
  }
  MergeReport report;
  report.shard_count = files[0].shard.count;
  report.total_instances = files[0].total;
  report.csv_merged = files[0].format != "json";
  report.json_merged = files[0].format != "csv";
  if (report.csv_merged) {
    std::vector<std::string> rows;
    for (const ShardFile::Row* row : ordered) rows.push_back(row->csv);
    write_or_throw(out_dir + "/summary.csv", [&](std::ostream& os) {
      write_rendered_summary_csv(os, rows);
    });
  }
  if (report.json_merged) {
    std::vector<std::string> rows;
    for (const ShardFile::Row* row : ordered) rows.push_back(row->json);
    write_or_throw(out_dir + "/summary.json", [&](std::ostream& os) {
      write_rendered_summary_json(os, rows);
    });
  }
  for (const std::string& src : per_job) {
    const std::string dest = out_dir + "/" + fs::path(src).filename().string();
    fs::copy_file(src, dest, fs::copy_options::overwrite_existing, ec);
    if (ec) {
      throw std::runtime_error("merge: cannot copy " + src + " to " + dest +
                               ": " + ec.message());
    }
    ++report.per_job_files_copied;
  }
  return report;
}

}  // namespace rlbf::exp
