#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

namespace sim = rlbf::sim;
namespace swf = rlbf::swf;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

std::optional<double> tail_percentile(const std::vector<double>& samples, double q,
                                      std::size_t min_beyond) {
  // Samples above the lower order statistic percentile(q) interpolates from.
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const auto lo = static_cast<std::size_t>(std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1));
  if (n - 1 - lo < min_beyond) return std::nullopt;
  return percentile(samples, q);
}

std::string check_schedule(const swf::Trace& trace,
                           const std::vector<sim::JobResult>& results) {
  std::ostringstream err;
  if (results.size() != trace.size()) {
    err << results.size() << " results for " << trace.size() << " jobs";
    return err.str();
  }
  std::vector<std::uint8_t> seen(trace.size(), 0);
  // (time, +procs at a start / -procs at an end); ends sort first at equal
  // times because a job may start the instant another releases its nodes.
  std::vector<std::pair<std::int64_t, std::int64_t>> events;
  events.reserve(2 * results.size());
  for (const sim::JobResult& r : results) {
    if (r.job_index >= trace.size() || seen[r.job_index]++ != 0) {
      err << "job index " << r.job_index << " out of range or scheduled twice";
      return err.str();
    }
    const swf::Job& job = trace[r.job_index];
    const std::int64_t runtime = r.killed ? job.request_time() : job.run_time;
    if (r.submit_time != job.submit_time || r.start_time < job.submit_time) {
      err << "job " << r.job_index << " starts at " << r.start_time
          << " before its submission at " << job.submit_time;
      return err.str();
    }
    if (r.end_time != r.start_time + runtime) {
      err << "job " << r.job_index << " ends at " << r.end_time << ", expected "
          << r.start_time + runtime;
      return err.str();
    }
    if (r.procs != job.procs()) {
      err << "job " << r.job_index << " holds " << r.procs << " processors, requested "
          << job.procs();
      return err.str();
    }
    events.emplace_back(r.start_time, r.procs);
    events.emplace_back(r.end_time, -r.procs);
  }
  std::sort(events.begin(), events.end());
  std::int64_t in_use = 0;
  for (const auto& [time, delta] : events) {
    in_use += delta;
    if (in_use > trace.machine_procs()) {
      err << in_use << " processors in use at t=" << time << " on a "
          << trace.machine_procs() << "-processor machine";
      return err.str();
    }
  }
  return "";
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

std::uint64_t schedule_digest(const std::vector<sim::JobResult>& results) {
  std::uint64_t h = kFnvOffset;
  for (const sim::JobResult& r : results) {
    h = fnv_mix(h, r.job_index);
    h = fnv_mix(h, static_cast<std::uint64_t>(r.start_time));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.end_time));
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' ||
           c == '-';
  });
}

void Tally::count(UnitResult& r, const std::string& label, const std::uint64_t* expected) {
  constexpr std::uint64_t kMaxPrinted = 10;
  ++attempted;
  if (r.error.empty() && expected != nullptr && *expected != r.digest) {
    r.error = label + ": digest " + hex64(r.digest) + " differs from " + hex64(*expected);
  }
  if (r.error.empty()) return;
  if (++failed <= kMaxPrinted) std::printf("# FAILED %s\n", r.error.c_str());
}

namespace {

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> names;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !names.insert(m.name).second) {
      throw std::invalid_argument("invalid or repeated metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value for metric " + m.name);
    }
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"jobs_per_s", "1/s"},   {"unit_p50_ms", "ms"},
      {"unit_p95_ms", "ms"},    {"peak_rss_mb", "MB"},   {"bsld", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"workload.generate_s", "s"},
      {"swf.sample_s", "s"},
      {"model.train_s", "s"},
      {"model.load_s", "s"},
      {"model.bytes", "bytes"},
      {"setup.residual_s", "s"},
      {"trace.rounds", "count"},
      {"trace.overhead", "ratio"},
      {"unit.traced_s", "s"},
      {"unit.residual_s", "s"},
      {"sim.run_s", "s"},
      {"sim.run_calls", "count"},
      {"sim.self_s", "s"},
      {"sim.score_calls", "count"},
      {"sim.estimate_calls", "count"},
      {"sim.events_processed", "count"},
      {"sim.schedule_recomputations", "count"},
      {"sim.queue_incremental_inserts", "count"},
      {"sim.backfill_opportunities", "count"},
      {"sim.backfill_decisions", "count"},
      {"sim.jobs_backfilled", "count"},
      {"sched.choose_calls", "count"},
      {"sched.choose_s", "s"},
      {"sched.choose_p50_us", "us"},
      {"sched.choose_p99_us", "us"},
      {"sched.pick_ratio", "ratio"},
      {"sched.queue_len_p50", "count"},
      {"sched.queue_len_p99", "count"},
      {"core.choose_calls", "count"},
      {"core.choose_s", "s"},
      {"core.choose_p50_us", "us"},
      {"core.choose_p99_us", "us"},
      {"core.obs_build_s", "s"},
      {"core.obs_rows", "count"},
      {"nn.policy_forward_s", "s"},
      {"nn.forward_calls", "count"},
      {"nn.batched_forward_calls", "count"},
      {"nn.batched_forward_rows", "count"},
      {"nn.backward_calls", "count"},
      {"rl.collect_s", "s"},
      {"rl.sequence_calls", "count"},
      {"rl.sequence_p50_ms", "ms"},
      {"rl.collect_efficiency", "ratio"},
      {"rl.update_s", "s"},
      {"rl.steps", "count"},
      {"rl.policy_iters", "count"},
      {"rl.value_iters", "count"},
      {"core.evaluate_s", "s"},
      {"proc.cpu_s", "s"},
      {"proc.cpu_util", "ratio"},
      {"proc.nivcsw", "count"},
  };
  return specs;
}

std::vector<Metric> ordered_metrics(const std::vector<MetricSpec>& specs,
                                    const std::map<std::string, double>& values,
                                    bool zero_missing) {
  std::vector<Metric> out;
  std::size_t used = 0;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() && !zero_missing) {
      throw std::invalid_argument(std::string("no value for metric ") + spec.name);
    }
    used += it != values.end() ? 1 : 0;
    out.push_back({spec.name, it != values.end() ? it->second : 0.0, spec.unit});
  }
  if (used != values.size()) {
    for (const auto& [name, value] : values) {
      const bool known = std::any_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
        return name == s.name;
      });
      if (!known) throw std::invalid_argument("unlisted metric " + name);
    }
  }
  return out;
}

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.nivcsw = ru.ru_nivcsw;
  return u;
}

double TracedPolicy::score(const swf::Job& job, std::int64_t now) const {
  ++trace_->score_calls;
  return inner_.score(job, now);
}

std::int64_t TracedEstimator::estimate(const swf::Job& job) const {
  ++trace_->estimate_calls;
  return inner_.estimate(job);
}

std::optional<std::size_t> TracedChooser::choose(const sim::BackfillContext& ctx) {
  ++trace_.choose_calls;
  trace_.queue_len.push_back(static_cast<double>(ctx.queue.size()));
  std::optional<std::size_t> pick;
  if (timed_) {
    const auto t0 = Clock::now();
    pick = inner_.choose(ctx);
    trace_.choose.add(seconds_since(t0));
  } else {
    pick = inner_.choose(ctx);
  }
  if (pick.has_value()) ++trace_.picks;
  if (shadow_ != nullptr) shadow_split(ctx);
  return pick;
}

void TracedChooser::shadow_split(const sim::BackfillContext& ctx) {
  const bool registry_on = rlbf::obs::enabled();
  rlbf::obs::set_enabled(false);
  const auto t0 = Clock::now();
  const rlbf::core::PolicyObservation po = shadow_->observer().build_policy(ctx);
  trace_.obs_build.add(seconds_since(t0));
  trace_.obs_rows += po.obs.rows();
  if (po.any_selectable()) {
    const auto t1 = Clock::now();
    const rlbf::nn::Tensor logits = shadow_->model().policy_logits_nograd(po.obs);
    trace_.policy_forward.add(seconds_since(t1));
    (void)logits;
  }
  rlbf::obs::set_enabled(registry_on);
}

std::vector<rlbf::rl::SequenceResult> TracedCollector::collect(
    const rlbf::rl::CollectionPlan& plan, const rlbf::rl::SequenceFn& fn) {
  std::vector<double> seconds(plan.seeds.size(), 0.0);
  const rlbf::rl::SequenceFn timed = [&](std::size_t index, std::uint64_t seed,
                                         std::size_t slot) {
    const auto t0 = Clock::now();
    rlbf::rl::SequenceResult result = fn(index, seed, slot);
    seconds[index] = seconds_since(t0);
    return result;
  };
  const auto t0 = Clock::now();
  std::vector<rlbf::rl::SequenceResult> results = inner_.collect(plan, timed);
  trace_.collect.add(seconds_since(t0));
  for (const double s : seconds) trace_.sequence.add(s);
  return results;
}

}  // namespace perfbench
