// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// One process, one client, one unit after another. The run sets the
// workload up several times (setup_s is their median), runs one untimed
// warm-up pass over the seed's unit list, then times whole passes over
// the same list. Every schedule is checked, and every unit's digest must
// repeat the warm-up's. --trace 0 prints the end-to-end metrics;
// --trace 1 alternates untraced and traced passes (train-ppo: two twin
// trainers, epoch by epoch) and prints the per-layer metrics, averaged
// per traced round. The last stdout line is the JSON result; lines
// before it are '#' diagnostics and 'digest' lines to diff across runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "util/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median. train-ppo's set-up takes
/// about 15 ms, too short for a median of five to repeat across runs.
constexpr int kSetupRepeats = 5;
constexpr int kTrainSetupRepeats = 25;
/// train-ppo trains round(--seconds / this) timed epochs, a count fixed
/// by the arguments so equal arguments always train the same epochs. An
/// epoch takes about 5 s at one thread on a shared 4-core machine, so a
/// run lasts about twice --seconds: with seconds-long units it needs that
/// many to average over the machine's slow phases. The traced run trains
/// half as many epoch pairs, since its per-layer metrics have no bound.
constexpr double kSecondsPerEpoch = 2.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".bench_build/scratch";
};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload easy-sweep|planner-sweep|rlbf-infer|train-ppo"
               " --seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--scratch") {
      a.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

/// Timed units of one or more passes.
struct Timing {
  std::vector<double> unit_s;
  double wall_s = 0.0;
  std::size_t jobs = 0;

  void add(const UnitResult& r) {
    if (!r.error.empty()) return;
    unit_s.push_back(r.wall_s);
    wall_s += r.wall_s;
    jobs += r.jobs;
  }
};

/// num / den, or 0 when nothing was measured (every unit failed).
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double registry_count(const char* name) {
  return static_cast<double>(rlbf::obs::counter(name).value());
}

void add_registry_counts(std::map<std::string, double>& v, double rounds) {
  for (const char* name :
       {"sim.events_processed", "sim.schedule_recomputations",
        "sim.queue_incremental_inserts", "sim.backfill_opportunities",
        "sim.backfill_decisions", "sim.jobs_backfilled", "nn.forward_calls",
        "nn.batched_forward_calls", "nn.batched_forward_rows", "nn.backward_calls"}) {
    v[name] = registry_count(name) / rounds;
  }
}

void add_setup_layers(std::map<std::string, double>& v, const std::vector<SetupTimes>& s) {
  std::vector<double> gen, sample, train, load, residual;
  for (const SetupTimes& t : s) {
    gen.push_back(t.generate_s);
    sample.push_back(t.sample_s);
    train.push_back(t.train_s);
    load.push_back(t.load_s);
    residual.push_back(t.total_s - t.generate_s - t.sample_s - t.train_s - t.load_s);
  }
  v["workload.generate_s"] = median(gen);
  v["swf.sample_s"] = median(sample);
  v["model.train_s"] = median(train);
  v["model.load_s"] = median(load);
  v["model.bytes"] = s.back().model_bytes;
  v["setup.residual_s"] = median(residual);
}

double setup_median(const std::vector<SetupTimes>& s) {
  std::vector<double> total;
  for (const SetupTimes& t : s) total.push_back(t.total_s);
  return median(total);
}

void add_proc(std::map<std::string, double>& v, Clock::time_point t_start) {
  const ProcUsage u = proc_usage();
  const double wall = seconds_since(t_start);
  v["proc.cpu_s"] = u.cpu_s;
  v["proc.cpu_util"] = ratio(u.cpu_s, wall);
  v["proc.nivcsw"] = static_cast<double>(u.nivcsw);
}

/// Noise diagnostics, printed on every run.
void print_diagnostics(Clock::time_point t_start, double warmup_s,
                       const std::vector<double>& round_s) {
  const ProcUsage u = proc_usage();
  const double wall = seconds_since(t_start);
  std::printf("# proc wall_s=%.3f cpu_s=%.3f cpu_util=%.3f nivcsw=%ld peak_rss_mb=%.1f\n",
              wall, u.cpu_s, u.cpu_s / wall, u.nivcsw, u.max_rss_mb);
  std::printf("# warmup_s=%.4f rounds_s=", warmup_s);
  for (std::size_t i = 0; i < round_s.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ",", round_s[i]);
  }
  std::printf("\n");
}

void add_unit_percentiles(std::map<std::string, double>& v, const Timing& t) {
  v["unit_p50_ms"] = percentile(t.unit_s, 0.5) * 1e3;
  // Reported where ten units lie beyond it; train-ppo's few epochs cannot
  // meet that, and there the figure is the interpolated p95 of its epochs.
  const std::optional<double> p95 = tail_percentile(t.unit_s, 0.95);
  v["unit_p95_ms"] = p95.value_or(percentile(t.unit_s, 0.95)) * 1e3;
  std::printf("# units=%zu unit_p50_ms=%.4f unit_p95_ms=%.4f%s\n", t.unit_s.size(),
              v["unit_p50_ms"], v["unit_p95_ms"],
              p95.has_value() ? "" : " (fewer than ten units beyond p95)");
}

int finish(const Tally& tally, bool deterministic, const std::vector<MetricSpec>& specs,
           const std::map<std::string, double>& values, bool zero_missing) {
  const bool correct = tally.failed == 0 && deterministic;
  std::cout << result_json(correct, tally.attempted, tally.failed,
                           ordered_metrics(specs, values, zero_missing))
            << std::endl;
  return 0;
}

// ---------------------------------------------------------------- sweeps

std::vector<UnitResult> run_pass(SweepWorkload& w, LayerTrace* trace, Tally& tally,
                                 const std::vector<UnitResult>* reference) {
  std::vector<UnitResult> out;
  out.reserve(w.unit_count());
  for (std::size_t i = 0; i < w.unit_count(); ++i) {
    UnitResult r;
    try {
      r = w.run_unit(i, trace);
    } catch (const std::exception& e) {
      r.error = w.unit_label(i) + ": " + e.what();
    }
    tally.count(r, w.unit_label(i), reference != nullptr ? &(*reference)[i].digest : nullptr);
    out.push_back(std::move(r));
  }
  return out;
}

double pass_wall(const std::vector<UnitResult>& pass) {
  double s = 0.0;
  for (const UnitResult& r : pass) s += r.wall_s;
  return s;
}

int run_sweep(const Args& a, Clock::time_point t_start) {
  std::vector<SetupTimes> setups;
  std::unique_ptr<SweepWorkload> w;
  for (int r = 0; r < kSetupRepeats; ++r) {
    w.reset();
    w = std::make_unique<SweepWorkload>(a.workload, a.seed, a.scratch);
    setups.push_back(w->setup_times());
  }

  Tally tally;
  const std::vector<UnitResult> ref = run_pass(*w, nullptr, tally, nullptr);
  const double warmup_s = pass_wall(ref);
  std::uint64_t all = kFnvOffset;
  double bsld_sum = 0.0;
  std::size_t schedules = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("digest %s %s bsld=%.6f\n", w->unit_label(i).c_str(),
                hex64(ref[i].digest).c_str(),
                ref[i].bsld_sum / static_cast<double>(std::max<std::size_t>(ref[i].schedules, 1)));
    all = fnv_mix(all, ref[i].digest);
    bsld_sum += ref[i].bsld_sum;
    schedules += ref[i].schedules;
  }
  const double bsld = bsld_sum / static_cast<double>(std::max<std::size_t>(schedules, 1));
  std::printf("digest all %s bsld=%.6f units=%zu\n", hex64(all).c_str(), bsld, ref.size());

  std::map<std::string, double> v;
  std::vector<double> round_s;
  if (a.trace == 0) {
    const long passes = std::max(2L, std::lround(ratio(a.seconds, warmup_s)));
    Timing t;
    for (long p = 0; p < passes; ++p) {
      const std::vector<UnitResult> pass = run_pass(*w, nullptr, tally, &ref);
      for (const UnitResult& r : pass) t.add(r);
      round_s.push_back(pass_wall(pass));
    }
    v["setup_s"] = setup_median(setups);
    v["jobs_per_s"] = ratio(static_cast<double>(t.jobs), t.wall_s);
    add_unit_percentiles(v, t);
    v["peak_rss_mb"] = proc_usage().max_rss_mb;
    v["bsld"] = bsld;
    print_diagnostics(t_start, warmup_s, round_s);
    return finish(tally, true, end_to_end_specs(), v, false);
  }

  // Traced: untraced and traced passes alternate, so the overhead ratio
  // compares passes that ran under the same machine conditions.
  const long pairs = std::max(1L, std::lround(ratio(a.seconds, 2.0 * warmup_s)));
  LayerTrace lt;
  double untraced_s = 0.0, traced_s = 0.0;
  rlbf::obs::Registry::instance().reset();
  for (long p = 0; p < pairs; ++p) {
    untraced_s += pass_wall(run_pass(*w, nullptr, tally, &ref));
    rlbf::obs::set_enabled(true);
    const double s = pass_wall(run_pass(*w, &lt, tally, &ref));
    rlbf::obs::set_enabled(false);
    traced_s += s;
    round_s.push_back(s);
  }
  const auto n = static_cast<double>(pairs);
  add_setup_layers(v, setups);
  v["trace.rounds"] = n;
  v["trace.overhead"] = ratio(traced_s, untraced_s);
  v["unit.traced_s"] = traced_s / n;
  v["unit.residual_s"] = (traced_s - lt.run.total_s) / n;
  v["sim.run_s"] = lt.run.total_s / n;
  v["sim.run_calls"] = static_cast<double>(lt.run.calls) / n;
  // The shadow split runs inside run_schedule but outside choose timing.
  v["sim.self_s"] = (lt.run.total_s - lt.choose.total_s - lt.obs_build.total_s -
                     lt.policy_forward.total_s) /
                    n;
  v["sim.score_calls"] = static_cast<double>(lt.score_calls) / n;
  v["sim.estimate_calls"] = static_cast<double>(lt.estimate_calls) / n;
  add_registry_counts(v, n);
  const bool agent = w->chooser_tracing() == ChooserTracing::Agent;
  const std::string chooser = agent ? "core" : "sched";
  v[chooser + ".choose_calls"] = static_cast<double>(lt.choose_calls) / n;
  if (w->chooser_tracing() != ChooserTracing::CountOnly) {
    v[chooser + ".choose_s"] = lt.choose.total_s / n;
    v[chooser + ".choose_p50_us"] = percentile(lt.choose.samples, 0.5) * 1e6;
    v[chooser + ".choose_p99_us"] = percentile(lt.choose.samples, 0.99) * 1e6;
  }
  v["sched.pick_ratio"] =
      ratio(static_cast<double>(lt.picks), static_cast<double>(lt.choose_calls));
  v["sched.queue_len_p50"] = percentile(lt.queue_len, 0.5);
  v["sched.queue_len_p99"] = percentile(lt.queue_len, 0.99);
  v["core.obs_build_s"] = lt.obs_build.total_s / n;
  v["core.obs_rows"] = static_cast<double>(lt.obs_rows) / n;
  v["nn.policy_forward_s"] = lt.policy_forward.total_s / n;
  add_proc(v, t_start);
  print_diagnostics(t_start, warmup_s, round_s);
  return finish(tally, true, per_layer_specs(), v, true);
}

// ------------------------------------------------------------- train-ppo

UnitResult run_epoch(TrainWorkload& w, LayerTrace* trace, Tally& tally, Timing* timing,
                     const std::uint64_t* expected) {
  UnitResult r;
  try {
    r = w.run_epoch(trace);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  const rlbf::core::EpochStats& s = w.last_epoch();
  const std::string label = "epoch#" + std::to_string(s.epoch);
  tally.count(r, label, expected);
  std::printf("digest %s %s steps=%zu policy_iters=%zu value_iters=%zu bsld=%.6f\n",
              label.c_str(), hex64(r.digest).c_str(), s.steps, s.ppo.policy_iters,
              s.ppo.value_iters, s.mean_bsld);
  if (timing != nullptr) timing->add(r);
  return r;
}

int run_train(const Args& a, Clock::time_point t_start) {
  std::vector<SetupTimes> setups;
  std::unique_ptr<TrainWorkload> w;
  for (int r = 0; r < kTrainSetupRepeats; ++r) {
    w.reset();
    w = std::make_unique<TrainWorkload>(a.seed);
    setups.push_back(w->setup_times());
  }
  const long timed_epochs = std::max(2L, std::lround(a.seconds / kSecondsPerEpoch));
  const long epochs = a.trace == 0 ? timed_epochs : std::max(2L, timed_epochs / 2);
  const double jobs_per_epoch = static_cast<double>(w->config().trajectories_per_epoch *
                                                    w->config().jobs_per_trajectory);

  Tally tally;
  std::map<std::string, double> v;
  std::vector<double> round_s;
  bool deterministic = true;
  if (a.trace == 0) {
    const double warmup_s = run_epoch(*w, nullptr, tally, nullptr, nullptr).wall_s;
    Timing t;
    for (long e = 0; e < epochs; ++e) {
      round_s.push_back(run_epoch(*w, nullptr, tally, &t, nullptr).wall_s);
    }
    const double bsld = w->evaluate_greedy();
    std::printf("digest eval bsld=%.17g epochs=%ld\n", bsld, epochs + 1);
    v["setup_s"] = setup_median(setups);
    v["jobs_per_s"] = ratio(jobs_per_epoch * static_cast<double>(t.unit_s.size()), t.wall_s);
    add_unit_percentiles(v, t);
    v["peak_rss_mb"] = proc_usage().max_rss_mb;
    v["bsld"] = bsld;
    print_diagnostics(t_start, warmup_s, round_s);
    return finish(tally, true, end_to_end_specs(), v, false);
  }

  // Traced: a twin trainer with identical set-up runs each epoch traced
  // right after the untraced one; their statistics must agree exactly.
  TrainWorkload twin(a.seed);
  const UnitResult warm = run_epoch(*w, nullptr, tally, nullptr, nullptr);
  run_epoch(twin, nullptr, tally, nullptr, &warm.digest);
  LayerTrace lt;
  Timing untraced, traced;
  double update_s = 0.0, epoch_stats_s = 0.0, steps = 0.0, policy_iters = 0.0,
         value_iters = 0.0;
  rlbf::obs::Registry::instance().reset();
  for (long e = 0; e < epochs; ++e) {
    const UnitResult plain = run_epoch(*w, nullptr, tally, &untraced, nullptr);
    const double collect_before = lt.collect.total_s;
    rlbf::obs::set_enabled(true);
    round_s.push_back(run_epoch(twin, &lt, tally, &traced, &plain.digest).wall_s);
    rlbf::obs::set_enabled(false);
    const rlbf::core::EpochStats& s = twin.last_epoch();
    update_s += s.wall_seconds - (lt.collect.total_s - collect_before);
    epoch_stats_s += s.wall_seconds;
    steps += static_cast<double>(s.steps);
    policy_iters += static_cast<double>(s.ppo.policy_iters);
    value_iters += static_cast<double>(s.ppo.value_iters);
  }
  const double bsld = w->evaluate_greedy();
  const auto t_eval = Clock::now();
  const double twin_bsld = twin.evaluate_greedy();
  const double evaluate_s = seconds_since(t_eval);
  std::printf("digest eval bsld=%.17g epochs=%ld\n", bsld, epochs + 1);
  if (double_bits(bsld) != double_bits(twin_bsld)) {
    std::printf("# FAILED traced eval bsld %.17g differs from %.17g\n", twin_bsld, bsld);
    deterministic = false;
  }

  const auto n = static_cast<double>(epochs);
  add_setup_layers(v, setups);
  v["trace.rounds"] = n;
  v["trace.overhead"] = ratio(traced.wall_s, untraced.wall_s);
  v["unit.traced_s"] = traced.wall_s / n;
  v["unit.residual_s"] = (traced.wall_s - epoch_stats_s) / n;
  add_registry_counts(v, n);
  v["rl.collect_s"] = lt.collect.total_s / n;
  v["rl.sequence_calls"] = static_cast<double>(lt.sequence.calls) / n;
  v["rl.sequence_p50_ms"] = percentile(lt.sequence.samples, 0.5) * 1e3;
  v["rl.collect_efficiency"] =
      ratio(lt.sequence.total_s,
            lt.collect.total_s * static_cast<double>(TrainWorkload::kThreads));
  v["rl.update_s"] = update_s / n;
  v["rl.steps"] = steps / n;
  v["rl.policy_iters"] = policy_iters / n;
  v["rl.value_iters"] = value_iters / n;
  v["core.evaluate_s"] = evaluate_s;
  add_proc(v, t_start);
  print_diagnostics(t_start, warm.wall_s, round_s);
  return finish(tally, deterministic, per_layer_specs(), v, true);
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  Args a;
  try {
    if (!parse_args(argc, argv, a)) return usage("bad arguments");
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!is_sweep_workload(a.workload) && a.workload != "train-ppo") {
    return usage("unknown workload '" + a.workload + "'");
  }
  rlbf::util::set_log_level(rlbf::util::LogLevel::Warn);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  try {
    std::filesystem::create_directories(a.scratch);
    return a.workload == "train-ppo" ? run_train(a, t_start) : run_sweep(a, t_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
