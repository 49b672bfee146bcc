#include "exp/shard.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <locale>
#include <map>
#include <stdexcept>

#include "exp/config.h"
#include "obs/json.h"

namespace rlbf::exp {

namespace fs = std::filesystem;

namespace {

constexpr const char* kCsvHeaderPrefix = "# rlbf-shard ";

std::size_t parse_size_or_throw(const std::string& text,
                                const std::string& context) {
  std::size_t value = 0;
  if (!parse_number(text, &value)) {
    throw std::runtime_error("merge: bad number '" + text + "' in " + context);
  }
  return value;
}

/// One shard file reduced to its tag plus opaque row payloads: the text
/// between the shard decoration and the end of each row, exactly as the
/// canonical sink writer produced it. Merging moves these payloads
/// without re-parsing numbers, so the merged file cannot drift from the
/// unsharded rendering by even one byte.
struct ShardFile {
  std::string path;
  ShardSpec shard;
  std::size_t total = 0;
  std::vector<std::pair<std::size_t, std::string>> rows;  // (global g, payload)
};

ShardFile read_shard_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("merge: cannot read shard file " + path);
  ShardFile file;
  file.path = path;
  std::string line;
  if (!std::getline(in, line) || line.rfind(kCsvHeaderPrefix, 0) != 0) {
    throw std::runtime_error("merge: " + path +
                             " is not a shard summary (missing '# rlbf-shard' "
                             "header line)");
  }
  const std::string tag = line.substr(std::string(kCsvHeaderPrefix).size());
  const std::size_t space = tag.find(' ');
  if (space == std::string::npos || tag.compare(space, 7, " total=") != 0) {
    throw std::runtime_error("merge: malformed shard header in " + path + ": '" +
                             line + "'");
  }
  try {
    file.shard = parse_shard(tag.substr(0, space));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("merge: " + path + ": " + e.what());
  }
  file.total = parse_size_or_throw(tag.substr(space + 7), path + " header");
  if (!std::getline(in, line) ||
      line != "instance," + summary_csv_header()) {
    throw std::runtime_error("merge: unexpected CSV column header in " + path);
  }
  // A quoted CSV field may legitimately contain newlines (obs::csv_field
  // quotes them), so logical rows are accumulated until the quote count
  // is even. The instance column is always an unquoted number before the
  // first comma, so splitting the logical row there stays safe.
  std::string row;
  while (std::getline(in, line)) {
    if (row.empty()) {
      if (line.empty()) continue;
      row = line;
    } else {
      row += '\n';
      row += line;
    }
    if (std::count(row.begin(), row.end(), '"') % 2 != 0) continue;
    const std::size_t comma = row.find(',');
    if (comma == std::string::npos) {
      throw std::runtime_error("merge: malformed row in " + path + ": '" + row +
                               "'");
    }
    file.rows.emplace_back(
        parse_size_or_throw(row.substr(0, comma), path + " instance column"),
        row.substr(comma + 1));
    row.clear();
  }
  if (!row.empty()) {
    throw std::runtime_error("merge: unterminated quoted field in " + path);
  }
  return file;
}

ShardFile read_shard_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("merge: cannot read shard file " + path);
  ShardFile file;
  file.path = path;
  std::string line;
  const std::string shard_prefix = "{\"shard\": \"";
  const std::string total_marker = "\", \"total\": ";
  const std::string rows_marker = ", \"rows\": [";
  if (!std::getline(in, line) || line.rfind(shard_prefix, 0) != 0) {
    throw std::runtime_error("merge: " + path +
                             " is not a shard summary (missing shard envelope)");
  }
  const std::size_t total_at = line.find(total_marker);
  const std::size_t rows_at = line.find(rows_marker);
  if (total_at == std::string::npos || rows_at == std::string::npos ||
      rows_at < total_at || line.substr(rows_at + rows_marker.size()) != "") {
    throw std::runtime_error("merge: malformed shard envelope in " + path +
                             ": '" + line + "'");
  }
  try {
    file.shard =
        parse_shard(line.substr(shard_prefix.size(), total_at - shard_prefix.size()));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("merge: " + path + ": " + e.what());
  }
  file.total = parse_size_or_throw(
      line.substr(total_at + total_marker.size(),
                  rows_at - total_at - total_marker.size()),
      path + " envelope");
  const std::string row_prefix = "  {\"instance\": ";
  bool closed = false;
  while (std::getline(in, line)) {
    if (line == "]}") {
      closed = true;
      break;
    }
    if (line.rfind(row_prefix, 0) != 0) {
      throw std::runtime_error("merge: malformed row in " + path + ": '" + line +
                               "'");
    }
    std::string rest = line.substr(row_prefix.size());
    const std::size_t sep = rest.find(", ");
    if (sep == std::string::npos) {
      throw std::runtime_error("merge: malformed row in " + path + ": '" + line +
                               "'");
    }
    const std::size_t g =
        parse_size_or_throw(rest.substr(0, sep), path + " instance key");
    rest = rest.substr(sep + 2);
    if (!rest.empty() && rest.back() == ',') rest.pop_back();
    if (rest.empty() || rest.back() != '}') {
      throw std::runtime_error("merge: malformed row in " + path + ": '" + line +
                               "'");
    }
    rest.pop_back();
    file.rows.emplace_back(g, std::move(rest));
  }
  if (!closed) {
    throw std::runtime_error("merge: truncated shard summary " + path +
                             " (missing ']}' terminator)");
  }
  return file;
}

/// Validate a shard set and return the row payloads in global instance
/// order. All the named merge errors live here, shared by both formats.
std::vector<std::string> merge_rows(const std::vector<ShardFile>& files) {
  if (files.empty()) {
    throw std::runtime_error("merge: no shard summaries to merge");
  }
  const std::size_t count = files[0].shard.count;
  const std::size_t total = files[0].total;
  for (const ShardFile& file : files) {
    if (file.shard.count != count || file.total != total) {
      throw std::runtime_error(
          "merge: inconsistent shard set: " + file.path + " is shard " +
          file.shard.label() + " of a " + std::to_string(file.total) +
          "-instance sweep, but " + files[0].path + " is shard " +
          files[0].shard.label() + " of " + std::to_string(total) +
          " instances");
    }
  }
  std::vector<const ShardFile*> by_index(count, nullptr);
  for (const ShardFile& file : files) {
    const ShardFile*& slot = by_index[file.shard.index];
    if (slot != nullptr) {
      throw std::runtime_error("merge: duplicate shard " + file.shard.label() +
                               " (" + slot->path + " and " + file.path + ")");
    }
    slot = &file;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (by_index[i] == nullptr) {
      throw std::runtime_error("merge: missing shard " + std::to_string(i) +
                               "/" + std::to_string(count));
    }
  }
  std::vector<std::string> ordered(total);
  std::vector<bool> filled(total, false);
  for (const ShardFile& file : files) {
    for (const auto& [g, payload] : file.rows) {
      if (g >= total) {
        throw std::runtime_error("merge: instance " + std::to_string(g) +
                                 " in " + file.path + " is out of range (sweep "
                                 "has " + std::to_string(total) + " instances)");
      }
      if (filled[g]) {
        throw std::runtime_error("merge: duplicate instance " +
                                 std::to_string(g) + " (second copy in " +
                                 file.path + ")");
      }
      filled[g] = true;
      ordered[g] = payload;
    }
  }
  for (std::size_t g = 0; g < total; ++g) {
    if (!filled[g]) {
      throw std::runtime_error("merge: missing instance " + std::to_string(g) +
                               " (gap in the shard outputs)");
    }
  }
  return ordered;
}

void write_or_throw(const std::string& out_path, const std::string& content) {
  if (!obs::write_file(out_path, [&](std::ostream& os) { os << content; })) {
    throw std::runtime_error("merge: cannot write " + out_path);
  }
}

struct MergedSet {
  std::vector<std::string> ordered;  // row payloads in global order
  ShardSetInfo info;
};

template <typename Reader>
MergedSet merge_inputs(const std::vector<std::string>& inputs,
                       const Reader& read) {
  std::vector<ShardFile> files;
  files.reserve(inputs.size());
  for (const std::string& path : inputs) files.push_back(read(path));
  MergedSet merged;
  merged.ordered = merge_rows(files);
  merged.info = {files[0].shard.count, files[0].total};
  return merged;
}

std::string csv_content(const std::vector<std::string>& ordered) {
  std::string content = summary_csv_header() + "\n";
  for (const std::string& payload : ordered) content += payload + "\n";
  return content;
}

std::string json_content(const std::vector<std::string>& ordered) {
  std::string content = "[\n";
  for (std::size_t g = 0; g < ordered.size(); ++g) {
    content += "  {" + ordered[g] + "}" + (g + 1 < ordered.size() ? "," : "") + "\n";
  }
  content += "]\n";
  return content;
}

/// Quote-aware split of a CSV row's first `max_fields` fields.
std::vector<std::string> csv_head_fields(const std::string& row,
                                         std::size_t max_fields) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < row.size() && row[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"' && cur.empty()) {
      quoted = true;
    } else if (c == ',') {
      out.push_back(cur);
      cur.clear();
      if (out.size() == max_fields) return out;
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

/// Undo obs::json::escape (short escapes + \u00XX).
std::string json_unescape(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    const char escape = text[++i];
    switch (escape) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u':
        if (i + 4 < text.size()) {
          char* end = nullptr;
          const std::string hex = text.substr(i + 1, 4);
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end == hex.c_str() + hex.size()) {
            out += static_cast<char>(code);
            i += 4;
          }
        }
        break;
      default: out += escape;  // \" and backslash
    }
  }
  return out;
}

/// The value of a top-level string key in a JSON row payload.
std::string json_string_value(const std::string& payload,
                              const std::string& key) {
  const std::string marker = "\"" + key + "\": \"";
  const std::size_t at = payload.find(marker);
  if (at == std::string::npos) return "";
  std::string raw;
  for (std::size_t i = at + marker.size(); i < payload.size(); ++i) {
    if (payload[i] == '\\' && i + 1 < payload.size()) {
      raw += payload[i];
      raw += payload[i + 1];
      ++i;
      continue;
    }
    if (payload[i] == '"') break;
    raw += payload[i];
  }
  return json_unescape(raw);
}

/// The per-job files this shard set's instances would have written:
/// scenario + seed per row, through the same per_job_filename() the CLI
/// writer uses. `is_json` selects the payload syntax.
std::vector<std::string> expected_per_job_files(
    const std::vector<std::string>& ordered, bool is_json) {
  std::vector<std::string> expected;
  for (const std::string& row : ordered) {
    std::string scenario;
    std::string seed_text;
    if (is_json) {
      scenario = json_string_value(row, "scenario");
      const std::string marker = "\"seed\": ";
      const std::size_t at = row.find(marker);
      if (at == std::string::npos) continue;
      std::size_t i = at + marker.size();
      while (i < row.size() && row[i] >= '0' && row[i] <= '9') {
        seed_text += row[i++];
      }
    } else {
      const std::vector<std::string> fields = csv_head_fields(row, 3);
      if (fields.size() < 3) continue;
      scenario = fields[0];
      seed_text = fields[2];
    }
    std::uint64_t seed = 0;
    if (!parse_number(seed_text, &seed)) continue;
    expected.push_back(per_job_filename(scenario, seed));
  }
  return expected;
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

std::string shard_summary_filename(const ShardSpec& shard,
                                   const std::string& ext) {
  return "summary-shard" + std::to_string(shard.index) + "of" +
         std::to_string(shard.count) + "." + ext;
}

void write_shard_summary_csv(std::ostream& os, const ShardSummary& summary) {
  if (summary.instances.size() != summary.rows.size()) {
    throw std::invalid_argument("shard: instance/row count mismatch");
  }
  // Classic locale: instance indices and totals must never pick up
  // digit grouping from an embedding process's std::locale::global.
  const std::locale prev = os.imbue(std::locale::classic());
  os << kCsvHeaderPrefix << summary.shard.label()
     << " total=" << summary.total_instances << '\n';
  os << "instance," << summary_csv_header() << '\n';
  for (std::size_t k = 0; k < summary.rows.size(); ++k) {
    os << summary.instances[k] << ',' << summary_csv_row(summary.rows[k]) << '\n';
  }
  os.imbue(prev);
}

void write_shard_summary_json(std::ostream& os, const ShardSummary& summary) {
  if (summary.instances.size() != summary.rows.size()) {
    throw std::invalid_argument("shard: instance/row count mismatch");
  }
  const std::locale prev = os.imbue(std::locale::classic());
  os << "{\"shard\": \"" << summary.shard.label()
     << "\", \"total\": " << summary.total_instances << ", \"rows\": [\n";
  for (std::size_t k = 0; k < summary.rows.size(); ++k) {
    os << "  {\"instance\": " << summary.instances[k] << ", "
       << summary_json_row(summary.rows[k]) << "}"
       << (k + 1 < summary.rows.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  os.imbue(prev);
}

ShardSetInfo merge_shard_summaries_csv(const std::vector<std::string>& inputs,
                                       const std::string& out_path) {
  const MergedSet merged = merge_inputs(inputs, read_shard_csv);
  write_or_throw(out_path, csv_content(merged.ordered));
  return merged.info;
}

ShardSetInfo merge_shard_summaries_json(const std::vector<std::string>& inputs,
                                        const std::string& out_path) {
  const MergedSet merged = merge_inputs(inputs, read_shard_json);
  write_or_throw(out_path, json_content(merged.ordered));
  return merged.info;
}

MergeReport merge_shard_dirs(const std::vector<std::string>& input_dirs,
                             const std::string& out_dir) {
  std::vector<std::string> csv_inputs;
  std::vector<std::string> json_inputs;
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
      if (name.rfind("summary-shard", 0) == 0 &&
          name.find("of") != std::string::npos) {
        if (dirent.path().extension() == ".csv") {
          csv_inputs.push_back(dirent.path().string());
        } else if (dirent.path().extension() == ".json") {
          json_inputs.push_back(dirent.path().string());
        }
      } else if (name.rfind("jobs-", 0) == 0 &&
                 dirent.path().extension() == ".csv") {
        per_job.push_back(dirent.path().string());
      }
    }
  }
  // Directory iteration order is filesystem-dependent; sort so error
  // messages and copy order are stable.
  std::sort(csv_inputs.begin(), csv_inputs.end());
  std::sort(json_inputs.begin(), json_inputs.end());
  std::sort(per_job.begin(), per_job.end());
  if (csv_inputs.empty() && json_inputs.empty()) {
    std::string joined;
    for (const std::string& dir : input_dirs) {
      joined += (joined.empty() ? "" : ", ") + dir;
    }
    throw std::runtime_error("merge: no shard summaries found under " + joined);
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    throw std::runtime_error("merge: cannot create output directory '" +
                             out_dir + "': " + ec.message());
  }

  MergeReport report;
  std::vector<std::string> expected_per_job;
  MergedSet csv_set;
  if (!csv_inputs.empty()) {
    csv_set = merge_inputs(csv_inputs, read_shard_csv);
    report.csv_merged = true;
    report.shard_count = csv_set.info.shard_count;
    report.total_instances = csv_set.info.total_instances;
    expected_per_job = expected_per_job_files(csv_set.ordered, false);
  }
  MergedSet json_set;
  if (!json_inputs.empty()) {
    json_set = merge_inputs(json_inputs, read_shard_json);
    // Both families must describe the same sweep — a mismatch means a
    // stale summary-shard*.json (or .csv) from an earlier run is mixed
    // into a reused output directory.
    if (report.csv_merged &&
        (json_set.info.shard_count != csv_set.info.shard_count ||
         json_set.info.total_instances != csv_set.info.total_instances)) {
      throw std::runtime_error(
          "merge: CSV and JSON shard families disagree (" +
          std::to_string(csv_set.info.shard_count) + " shards/" +
          std::to_string(csv_set.info.total_instances) + " instances vs " +
          std::to_string(json_set.info.shard_count) + " shards/" +
          std::to_string(json_set.info.total_instances) +
          " instances) — stale shard files from an earlier sweep in the "
          "inputs?");
    }
    report.json_merged = true;
    report.shard_count = json_set.info.shard_count;
    report.total_instances = json_set.info.total_instances;
    if (expected_per_job.empty()) {
      expected_per_job = expected_per_job_files(json_set.ordered, true);
    }
  }
  // Per-job files must belong to this shard set's instances (a stray
  // jobs-*.csv in a reused shard directory would otherwise ride into
  // the merged output and break its equivalence to an unsharded run),
  // and duplicate basenames among the SOURCES mean two shards produced
  // the same instance. All checks run before anything is written, so a
  // failing merge never leaves valid-looking partial output behind.
  std::sort(expected_per_job.begin(), expected_per_job.end());
  expected_per_job.erase(
      std::unique(expected_per_job.begin(), expected_per_job.end()),
      expected_per_job.end());
  std::map<std::string, std::string> seen_basenames;
  for (const std::string& src : per_job) {
    const std::string basename = fs::path(src).filename().string();
    if (!std::binary_search(expected_per_job.begin(), expected_per_job.end(),
                            basename)) {
      throw std::runtime_error(
          "merge: unexpected per-job file " + src +
          " (no instance of this shard set writes it — stale file from an "
          "earlier sweep?)");
    }
    const auto [it, inserted] = seen_basenames.emplace(basename, src);
    if (!inserted) {
      throw std::runtime_error("merge: duplicate per-job file " + basename +
                               " (" + it->second + " and " + src +
                               " — two shards produced the same instance?)");
    }
  }
  // The converse, only when the shards produced per-job output at all
  // (running with --per_job=false or --samples legitimately writes
  // none): once any jobs-*.csv is present, every instance's file must
  // be — a partial set means a shard's output was lost in transit, and
  // the merged directory would silently stop matching an unsharded run.
  if (!per_job.empty()) {
    for (const std::string& name : expected_per_job) {
      if (seen_basenames.find(name) == seen_basenames.end()) {
        throw std::runtime_error(
            "merge: missing per-job file " + name +
            " (this shard set's instances wrote per-job output, but not all "
            "of it reached the inputs)");
      }
    }
  }

  // Everything validated; write the merged artifacts. The destination is
  // fair game to overwrite: re-running a merge into the same out_dir
  // (a retry, or after re-running one shard) must be idempotent.
  if (report.csv_merged) {
    write_or_throw(out_dir + "/summary.csv", csv_content(csv_set.ordered));
  }
  if (report.json_merged) {
    write_or_throw(out_dir + "/summary.json", json_content(json_set.ordered));
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
