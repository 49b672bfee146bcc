#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/json.h"

namespace rlbf::obs {

namespace {

/// Per-name aggregate under construction. The histogram (the registry's
/// duration layout) feeds the deterministic percentile estimates.
struct Agg {
  Agg() : hist(duration_buckets()) {}
  Histogram hist;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};

std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// The span columns every profile CSV row ends with.
void write_csv_row(std::ostream& os, const ProfileRow& r) {
  os << csv_field(r.name) << "," << r.count << "," << fixed6(r.self_seconds)
     << "," << fixed6(r.total_seconds) << "," << fixed6(r.mean_seconds) << ","
     << fixed6(r.p50_seconds) << "," << fixed6(r.p95_seconds) << ","
     << fixed6(r.p99_seconds) << "\n";
}

}  // namespace

std::vector<ProfileRow> profile_report(
    const std::vector<PidTraceEvent>& events) {
  // Group per (pid, tid): nesting only means something within one
  // thread of one process.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>>
      lanes;
  for (std::size_t i = 0; i < events.size(); ++i) {
    lanes[{events[i].pid, events[i].event.tid}].push_back(i);
  }

  // self[i] starts as the event's own duration; each nested child
  // subtracts its (overlapping) duration from its immediate parent.
  std::vector<std::int64_t> self_us(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    self_us[i] = events[i].event.dur_us;
  }

  for (auto& [lane, indices] : lanes) {
    // Start ascending; on a tie the longer span first, so a parent
    // precedes children starting the same microsecond. The final name
    // tiebreak makes the sweep independent of input order.
    std::sort(indices.begin(), indices.end(),
              [&](std::size_t a, std::size_t b) {
                const TraceEvent& ea = events[a].event;
                const TraceEvent& eb = events[b].event;
                if (ea.ts_us != eb.ts_us) return ea.ts_us < eb.ts_us;
                if (ea.dur_us != eb.dur_us) return ea.dur_us > eb.dur_us;
                return ea.name < eb.name;
              });
    struct Open {
      std::int64_t end_us;
      std::size_t index;
    };
    std::vector<Open> stack;
    for (const std::size_t i : indices) {
      const TraceEvent& ev = events[i].event;
      while (!stack.empty() && stack.back().end_us <= ev.ts_us) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const Open& parent = stack.back();
        // Only the part inside the parent counts against its self
        // time; clock-alignment skew across merged traces can make a
        // child spill past its parent's end.
        const std::int64_t overlap =
            std::min(ev.dur_us, parent.end_us - ev.ts_us);
        if (overlap > 0) self_us[parent.index] -= overlap;
      }
      if (ev.dur_us > 0) stack.push_back({ev.ts_us + ev.dur_us, i});
    }
  }

  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i].event;
    Agg& agg = by_name.try_emplace(ev.name).first->second;
    const double dur_s = static_cast<double>(ev.dur_us) * 1e-6;
    agg.count += 1;
    agg.total_seconds += dur_s;
    agg.self_seconds +=
        static_cast<double>(std::max<std::int64_t>(self_us[i], 0)) * 1e-6;
    agg.hist.observe(dur_s);
  }

  std::vector<ProfileRow> rows;
  rows.reserve(by_name.size());
  for (const auto& [name, agg] : by_name) {
    ProfileRow row;
    row.name = name;
    row.count = agg.count;
    row.total_seconds = agg.total_seconds;
    row.self_seconds = agg.self_seconds;
    row.mean_seconds =
        agg.count > 0 ? agg.total_seconds / static_cast<double>(agg.count)
                      : 0.0;
    const Histogram::Snapshot snap = agg.hist.snapshot();
    row.p50_seconds = percentile(snap, 0.50);
    row.p95_seconds = percentile(snap, 0.95);
    row.p99_seconds = percentile(snap, 0.99);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              if (a.self_seconds != b.self_seconds) {
                return a.self_seconds > b.self_seconds;
              }
              if (a.total_seconds != b.total_seconds) {
                return a.total_seconds > b.total_seconds;
              }
              return a.name < b.name;
            });
  return rows;
}

void write_profile_table(std::ostream& os, const std::vector<ProfileRow>& rows,
                         std::size_t top) {
  const std::size_t shown =
      top == 0 ? rows.size() : std::min(top, rows.size());
  static const char* const headers[] = {"span",   "count", "self_s", "total_s",
                                        "mean_s", "p50_s", "p95_s",  "p99_s"};
  constexpr std::size_t kCols = 8;
  std::vector<std::vector<std::string>> cells;
  cells.reserve(shown);
  for (std::size_t i = 0; i < shown; ++i) {
    const ProfileRow& r = rows[i];
    cells.push_back({r.name, std::to_string(r.count), fixed6(r.self_seconds),
                     fixed6(r.total_seconds), fixed6(r.mean_seconds),
                     fixed6(r.p50_seconds), fixed6(r.p95_seconds),
                     fixed6(r.p99_seconds)});
  }
  std::size_t width[kCols];
  for (std::size_t c = 0; c < kCols; ++c) {
    width[c] = std::string(headers[c]).size();
    for (const auto& row : cells) width[c] = std::max(width[c], row[c].size());
  }
  for (std::size_t c = 0; c < kCols; ++c) {
    if (c > 0) os << "  ";
    // Name column left-aligned, numbers right-aligned.
    const std::string& h = headers[c];
    if (c == 0) {
      os << h << std::string(width[c] - h.size(), ' ');
    } else {
      os << std::string(width[c] - h.size(), ' ') << h;
    }
  }
  os << "\n";
  for (const auto& row : cells) {
    for (std::size_t c = 0; c < kCols; ++c) {
      if (c > 0) os << "  ";
      if (c == 0) {
        os << row[c] << std::string(width[c] - row[c].size(), ' ');
      } else {
        os << std::string(width[c] - row[c].size(), ' ') << row[c];
      }
    }
    os << "\n";
  }
  if (shown < rows.size()) {
    os << "(" << rows.size() - shown << " more span name"
       << (rows.size() - shown == 1 ? "" : "s") << " below --top=" << top
       << ")\n";
  }
}

void write_profile_csv(std::ostream& os, const std::vector<ProfileRow>& rows) {
  os << "span,count,self_s,total_s,mean_s,p50_s,p95_s,p99_s\n";
  for (const ProfileRow& r : rows) write_csv_row(os, r);
}

std::vector<WorkerProfile> profile_report_by_worker(
    const std::vector<PidTraceEvent>& events,
    const std::map<std::uint32_t, std::string>& process_names) {
  std::map<std::uint32_t, std::vector<PidTraceEvent>> by_pid;
  for (const PidTraceEvent& ev : events) by_pid[ev.pid].push_back(ev);
  std::vector<WorkerProfile> workers;
  workers.reserve(by_pid.size());
  for (auto& [pid, slice] : by_pid) {
    WorkerProfile worker;
    worker.pid = pid;
    const auto it = process_names.find(pid);
    worker.name =
        it != process_names.end() ? it->second : "pid" + std::to_string(pid);
    worker.rows = profile_report(slice);
    workers.push_back(std::move(worker));
  }
  return workers;
}

void write_worker_profile_table(std::ostream& os,
                                const std::vector<WorkerProfile>& workers,
                                std::size_t top) {
  bool first = true;
  for (const WorkerProfile& worker : workers) {
    if (!first) os << "\n";
    first = false;
    os << "== " << worker.name << " (pid " << worker.pid << ") ==\n";
    write_profile_table(os, worker.rows, top);
  }
}

void write_worker_profile_csv(std::ostream& os,
                              const std::vector<WorkerProfile>& workers) {
  os << "pid,worker,span,count,self_s,total_s,mean_s,p50_s,p95_s,p99_s\n";
  for (const WorkerProfile& worker : workers) {
    for (const ProfileRow& r : worker.rows) {
      os << worker.pid << "," << csv_field(worker.name) << ",";
      write_csv_row(os, r);
    }
  }
}

}  // namespace rlbf::obs
