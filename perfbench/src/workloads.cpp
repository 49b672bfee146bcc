#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "core/rl_backfill.h"
#include "exp/scenario.h"
#include "model/train.h"
#include "model/training_spec.h"
#include "workload/presets.h"

namespace perfbench {

namespace core = rlbf::core;
namespace sched = rlbf::sched;
namespace swf = rlbf::swf;

namespace {

/// Unit-list shape per sweep. Windows per preset are sized so one pass
/// takes a few seconds; bsld and cost vary several-fold between windows
/// (HPC2N's deep queues dominate the planner tail), so a pass must cover
/// each preset densely for its totals and tail to repeat across seeds.
struct SweepShape {
  const char* name;
  std::size_t windows_per_preset;
  std::size_t window_jobs;
};

constexpr SweepShape kSweeps[] = {
    {"easy-sweep", 64, 1024},
    {"planner-sweep", 256, 256},
    {"rlbf-infer", 128, 1024},
};

const SweepShape& sweep_shape(const std::string& name) {
  for (const SweepShape& s : kSweeps) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown sweep workload: " + name);
}

/// The agent rlbf-infer deploys: the registry's smallest PPO spec, so
/// training it fits in set-up.
constexpr const char* kAgentSpec = "sdsc-tiny";

}  // namespace

bool is_sweep_workload(const std::string& name) {
  for (const SweepShape& s : kSweeps) {
    if (name == s.name) return true;
  }
  return false;
}

SweepWorkload::SweepWorkload(const std::string& name, std::uint64_t seed,
                             const std::string& scratch_dir) {
  const SweepShape& shape = sweep_shape(name);
  const auto t_setup = Clock::now();

  // The presets are fixed traces (their library-default generator
  // seeds), standing in for the paper's archive logs; the workload seed
  // chooses which windows of them the units schedule.
  auto t0 = Clock::now();
  const std::vector<swf::Trace> presets = rlbf::workload::all_presets();
  setup_.generate_s = seconds_since(t0);
  for (const swf::Trace& p : presets) preset_names_.push_back(p.name());

  // Stratified sampling: window k of a preset starts at a seed-drawn
  // offset inside the k-th of windows_per_preset equal strata of the
  // possible starts. Every seed then covers each trace evenly, which keeps
  // the bursts that make windows expensive equally represented; simple
  // random windows (Trace::sample) let the planner tail move by a quarter
  // between seeds.
  t0 = Clock::now();
  rlbf::util::Rng rng(seed);
  const double strata = static_cast<double>(shape.windows_per_preset);
  windows_.reserve(shape.windows_per_preset * presets.size());
  for (std::size_t k = 0; k < shape.windows_per_preset; ++k) {
    for (std::size_t p = 0; p < presets.size(); ++p) {
      const std::size_t starts = presets[p].size() - shape.window_jobs + 1;
      const auto start = static_cast<std::size_t>((static_cast<double>(k) + rng.uniform()) *
                                                  static_cast<double>(starts) / strata);
      windows_.push_back(
          {p, k, presets[p].window(std::min(start, starts - 1), shape.window_jobs)});
    }
  }
  setup_.sample_s = seconds_since(t0);

  if (name == "easy-sweep") {
    tracing_ = ChooserTracing::CountOnly;
    const std::uint64_t noise_seed = fnv_mix(kFnvOffset, seed);
    for (const std::string& policy : sched::all_policy_names()) {
      for (const sched::EstimateKind estimate :
           {sched::EstimateKind::RequestTime, sched::EstimateKind::ActualRuntime,
            sched::EstimateKind::Noisy}) {
        schedulers_.push_back(std::make_unique<sched::ConfiguredScheduler>(
            sched::SchedulerSpec(policy, sched::BackfillKind::Easy, estimate, 0.2,
                                 noise_seed)));
      }
    }
  } else if (name == "planner-sweep") {
    tracing_ = ChooserTracing::Timed;
    for (const sched::BackfillKind kind :
         {sched::BackfillKind::Conservative, sched::BackfillKind::Slack}) {
      schedulers_.push_back(std::make_unique<sched::ConfiguredScheduler>(
          sched::SchedulerSpec("FCFS", kind)));
    }
  } else {
    tracing_ = ChooserTracing::Agent;
    // Train into a fresh store so every set-up pays for training, saving
    // and loading; the process-wide trace cache is dropped for the same
    // reason.
    const std::filesystem::path store_dir =
        std::filesystem::path(scratch_dir) / "model_store";
    std::filesystem::remove_all(store_dir);
    rlbf::exp::clear_trace_cache();
    rlbf::model::Store store(store_dir.string());
    rlbf::model::TrainOptions options;
    options.threads = 1;
    options.checkpoint = false;
    t0 = Clock::now();
    const rlbf::model::TrainOutcome trained = rlbf::model::train_spec(
        rlbf::model::find_training_spec(kAgentSpec), store, options);
    setup_.train_s = seconds_since(t0);
    t0 = Clock::now();
    agent_ = std::make_unique<core::Agent>(store.load(trained.entry.key));
    setup_.load_s = seconds_since(t0);
    setup_.model_bytes =
        static_cast<double>(std::filesystem::file_size(store.model_path(trained.entry.key)));
    schedulers_.push_back(std::make_unique<sched::ConfiguredScheduler>(
        sched::SchedulerSpec("FCFS", sched::BackfillKind::Easy),
        std::make_unique<core::RlBackfillChooser>(*agent_)));
  }
  setup_.total_s = seconds_since(t_setup);
}

std::string SweepWorkload::unit_label(std::size_t i) const {
  const Window& w = windows_.at(i);
  return preset_names_[w.preset] + "#" + std::to_string(w.k);
}

UnitResult SweepWorkload::run_unit(std::size_t i, LayerTrace* trace) {
  const Window& w = windows_.at(i);
  std::vector<sched::ScheduleOutcome> outcomes;
  outcomes.reserve(schedulers_.size());
  UnitResult r;
  const auto t0 = Clock::now();
  for (const auto& s : schedulers_) {
    if (trace == nullptr) {
      outcomes.push_back(
          sched::run_schedule(w.trace, s->policy(), s->estimator(), s->chooser()));
      continue;
    }
    TracedPolicy policy(s->policy(), *trace);
    TracedEstimator estimator(s->estimator(), *trace);
    TracedChooser chooser(*s->chooser(), *trace, tracing_ != ChooserTracing::CountOnly,
                          tracing_ == ChooserTracing::Agent ? agent_.get() : nullptr);
    const auto t_run = Clock::now();
    outcomes.push_back(sched::run_schedule(w.trace, policy, estimator, &chooser));
    trace->run.add(seconds_since(t_run));
  }
  r.wall_s = seconds_since(t0);

  for (const sched::ScheduleOutcome& o : outcomes) {
    if (r.error.empty()) {
      const std::string err = check_schedule(w.trace, o.results);
      if (!err.empty()) r.error = unit_label(i) + ": " + err;
    }
    r.digest = fnv_mix(r.digest, schedule_digest(o.results));
    r.bsld_sum += o.metrics.avg_bounded_slowdown;
    ++r.schedules;
    r.jobs += o.results.size();
  }
  return r;
}

TrainWorkload::TrainWorkload(std::uint64_t seed) {
  const auto t_setup = Clock::now();
  const auto t0 = Clock::now();
  swf::Trace trace = rlbf::workload::sdsc_sp2_like();
  setup_.generate_s = seconds_since(t0);
  core::TrainerConfig config;  // the paper protocol is the default
  config.threads = kThreads;
  config.seed = seed;
  config.eval_every = 0;  // evaluation runs once, after the timed epochs
  // 128 held-out sequences instead of 6: the final bsld then measures the
  // agent rather than which few windows the seed drew.
  config.eval_samples = 128;
  trainer_ = std::make_unique<core::Trainer>(std::move(trace), config);
  setup_.total_s = seconds_since(t_setup);
}

UnitResult TrainWorkload::run_epoch(LayerTrace* trace) {
  std::unique_ptr<TracedCollector> traced;
  if (trace != nullptr) {
    if (trace_pool_ == nullptr) {
      trace_pool_ = std::make_unique<rlbf::util::ThreadPool>(kThreads);
      trace_collector_ = std::make_unique<rlbf::rl::ThreadCollector>(*trace_pool_);
    }
    traced = std::make_unique<TracedCollector>(*trace_collector_, *trace);
    trainer_->set_collector(traced.get());
  }
  // The trainer must not keep the traced collector past this call, even
  // when the epoch throws.
  struct RestoreCollector {
    core::Trainer& trainer;
    ~RestoreCollector() { trainer.set_collector(nullptr); }
  } restore{*trainer_};
  UnitResult r;
  const auto t0 = Clock::now();
  last_ = trainer_->run_epoch();
  r.wall_s = seconds_since(t0);

  const core::EpochStats& s = last_;
  const core::TrainerConfig& c = trainer_->config();
  for (const std::uint64_t word :
       {std::uint64_t{s.steps}, std::uint64_t{s.ppo.policy_iters},
        std::uint64_t{s.ppo.value_iters}, double_bits(s.mean_bsld),
        double_bits(s.mean_reward), double_bits(s.ppo.policy_loss),
        double_bits(s.ppo.value_loss)}) {
    r.digest = fnv_mix(r.digest, word);
  }
  const bool finite = std::isfinite(s.mean_reward) && std::isfinite(s.ppo.policy_loss) &&
                      std::isfinite(s.ppo.value_loss) && std::isfinite(s.ppo.approx_kl);
  if (s.steps == 0 || !finite || s.mean_bsld < 1.0 || s.ppo.policy_iters == 0 ||
      s.ppo.policy_iters > c.ppo.train_iters || s.ppo.value_iters != c.ppo.train_iters) {
    r.error = "epoch " + std::to_string(s.epoch) + ": implausible statistics (steps " +
              std::to_string(s.steps) + ", policy iterations " +
              std::to_string(s.ppo.policy_iters) + ")";
  }
  r.bsld_sum = s.mean_bsld;
  r.schedules = c.trajectories_per_epoch;
  r.jobs = c.trajectories_per_epoch * c.jobs_per_trajectory;
  return r;
}

}  // namespace perfbench
