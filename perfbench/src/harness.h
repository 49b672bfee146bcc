// Benchmark-side building blocks shared by every workload: timing and
// percentile helpers, the independent schedule check and digest, the
// result-line writer, process usage, and the tracing wrappers that the
// traced run installs on the library's public seams.
//
// Nothing here adds instrumentation inside the library. The wrappers
// forward every call to the object they wrap, so a traced schedule is
// bit-identical to an untraced one; they only count and time calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/agent.h"
#include "rl/collect.h"
#include "sim/event_sim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ statistics

/// Linear-interpolation percentile (q in [0, 1]) of `samples`; 0 when
/// empty.
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// percentile(q) only when at least `min_beyond` samples lie beyond it
/// (the reporting rule for tail latencies); nullopt otherwise.
std::optional<double> tail_percentile(const std::vector<double>& samples, double q,
                                      std::size_t min_beyond = 10);

// ----------------------------------------------------------- correctness

/// Independent check of one schedule of `trace`. Returns "" when valid,
/// else the first violation: a job missing or scheduled twice, a start
/// before submission, an end other than start + (killed ? request :
/// actual runtime), a width other than the job's, or processors in use
/// exceeding the machine at any instant (event sweep).
std::string check_schedule(const rlbf::swf::Trace& trace,
                           const std::vector<rlbf::sim::JobResult>& results);

/// FNV-1a 64 over each job's (index, start, end).
std::uint64_t schedule_digest(const std::vector<rlbf::sim::JobResult>& results);

/// Fold one 64-bit word into an FNV-1a 64 hash.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Bit pattern of a double, for digests of floating-point results.
std::uint64_t double_bits(double value);

std::string hex64(std::uint64_t value);

/// Outcome of one unit. wall_s times the library calls only; the output
/// check and digest run after the clock stops.
struct UnitResult {
  double wall_s = 0.0;
  std::uint64_t digest = kFnvOffset;
  double bsld_sum = 0.0;       // sum of per-schedule average bsld
  std::size_t schedules = 0;   // schedules the unit produced
  std::size_t jobs = 0;        // jobs scheduled
  std::string error;           // first failed check; empty when valid
};

/// Counts attempted and failed units.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count `r`, first failing it when `expected` names another digest.
  /// The first few failures are printed as '# FAILED' lines.
  void count(UnitResult& r, const std::string& label, const std::uint64_t* expected);
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Names of the form [A-Za-z0-9_.-]+ starting with a letter or digit,
/// at most 64 characters.
bool valid_metric_name(std::string_view name);

/// The final result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}. Throws
/// std::invalid_argument on an invalid or repeated metric name or a
/// non-finite value.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a --trace 0 run reports, in output order (BENCHMARK.json
/// end_to_end).
const std::vector<MetricSpec>& end_to_end_specs();

/// What a --trace 1 run reports, in output order (BENCHMARK.json
/// per_layer). Layers a workload does not exercise read 0.
const std::vector<MetricSpec>& per_layer_specs();

/// `values` in the order of `specs`. Throws std::invalid_argument on a
/// value whose name `specs` lacks, and, unless `zero_missing`, on a spec
/// without a value.
std::vector<Metric> ordered_metrics(const std::vector<MetricSpec>& specs,
                                    const std::map<std::string, double>& values,
                                    bool zero_missing);

// --------------------------------------------------------------- process

struct ProcUsage {
  double cpu_s = 0.0;       // user + system CPU time of the process
  double max_rss_mb = 0.0;  // peak resident set size
  long nivcsw = 0;          // involuntary context switches
};
ProcUsage proc_usage();

// --------------------------------------------------------------- tracing

/// Accumulated durations of one traced seam.
struct DurationStat {
  double total_s = 0.0;
  std::uint64_t calls = 0;
  std::vector<double> samples;  // seconds, one per call

  void add(double seconds) {
    total_s += seconds;
    ++calls;
    samples.push_back(seconds);
  }
};

/// Everything the wrappers record during traced units.
struct LayerTrace {
  DurationStat run;  // sched::run_schedule calls
  std::uint64_t score_calls = 0;
  std::uint64_t estimate_calls = 0;

  // BackfillChooser seam. Untimed choosers only count.
  DurationStat choose;
  std::uint64_t choose_calls = 0;
  std::uint64_t picks = 0;
  std::vector<double> queue_len;

  // Shadow split of an agent decision (outside the choose timing).
  DurationStat obs_build;
  DurationStat policy_forward;
  std::uint64_t obs_rows = 0;

  // Collector seam: one collect() per epoch, one sequence per trajectory.
  DurationStat collect;
  DurationStat sequence;
};

/// Counts score() calls; forwards name() and time_invariant(), which
/// selects the simulator's incremental queue upkeep. Single-threaded.
class TracedPolicy final : public rlbf::sim::PriorityPolicy {
 public:
  TracedPolicy(const rlbf::sim::PriorityPolicy& inner, LayerTrace& trace)
      : inner_(inner), trace_(&trace) {}
  double score(const rlbf::swf::Job& job, std::int64_t now) const override;
  std::string name() const override { return inner_.name(); }
  bool time_invariant() const override { return inner_.time_invariant(); }

 private:
  const rlbf::sim::PriorityPolicy& inner_;
  LayerTrace* trace_;
};

/// Counts estimate() calls. Single-threaded.
class TracedEstimator final : public rlbf::sim::RuntimeEstimator {
 public:
  TracedEstimator(const rlbf::sim::RuntimeEstimator& inner, LayerTrace& trace)
      : inner_(inner), trace_(&trace) {}
  std::int64_t estimate(const rlbf::swf::Job& job) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const rlbf::sim::RuntimeEstimator& inner_;
  LayerTrace* trace_;
};

/// Counts every decision, its queue length and whether it picked.
/// With `timed`, also times each choose(); with `shadow`, re-runs the
/// agent's observation build and policy forward on the same context,
/// outside that timing and with the metrics registry paused, to split
/// the decision approximately. Forwards name() and the episode hooks.
class TracedChooser final : public rlbf::sim::BackfillChooser {
 public:
  TracedChooser(rlbf::sim::BackfillChooser& inner, LayerTrace& trace, bool timed,
                const rlbf::core::Agent* shadow = nullptr)
      : inner_(inner), trace_(trace), timed_(timed), shadow_(shadow) {}

  std::optional<std::size_t> choose(const rlbf::sim::BackfillContext& ctx) override;
  std::string name() const override { return inner_.name(); }
  void episode_begin(const rlbf::swf::Trace& trace) override {
    inner_.episode_begin(trace);
  }
  void episode_end(const std::vector<rlbf::sim::JobResult>& results) override {
    inner_.episode_end(results);
  }

 private:
  void shadow_split(const rlbf::sim::BackfillContext& ctx);

  rlbf::sim::BackfillChooser& inner_;
  LayerTrace& trace_;
  bool timed_;
  const rlbf::core::Agent* shadow_;
};

/// Times each collect() and, through a wrapped SequenceFn, each
/// sequence. Sequence timings land in per-index slots, so the wrapper is
/// safe under the inner collector's threads.
class TracedCollector final : public rlbf::rl::Collector {
 public:
  TracedCollector(rlbf::rl::Collector& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::size_t slots(std::size_t n_sequences) const override {
    return inner_.slots(n_sequences);
  }
  std::vector<rlbf::rl::SequenceResult> collect(const rlbf::rl::CollectionPlan& plan,
                                                const rlbf::rl::SequenceFn& fn) override;

 private:
  rlbf::rl::Collector& inner_;
  LayerTrace& trace_;
};

}  // namespace perfbench
