#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include <iostream>

#include "exp/config.h"
#include "util/libm_fingerprint.h"
#include "util/log.h"
#include "util/stats.h"

namespace rlbf::bench {

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  bool libm = false;
  exp::ArgParser parser("bench", "Shared bench flags (paper protocol defaults).");
  parser.add_flag("--libm-fingerprint", &libm,
                  "print this host's libm sentinel values and exit (golden "
                  "drift diagnosis)");
  parser.add("--trace-jobs", &args.trace_jobs, "jobs taken from each trace");
  parser.add("--epochs", &args.epochs, "training epochs per agent");
  parser.add("--trajectories", &args.trajectories, "trajectories per epoch");
  parser.add("--traj-jobs", &args.jobs_per_trajectory, "jobs per trajectory");
  parser.add("--samples", &args.samples, "evaluation repetitions");
  parser.add("--sample-jobs", &args.sample_jobs, "jobs per evaluation sequence");
  parser.add("--seed", &args.seed, "master seed");
  parser.add("--model-dir", &args.model_dir, "trained-agent cache directory");
  parser.add_flag("--retrain", &args.retrain, "ignore cached models");
  parser.add_flag("--quick", &args.quick, "tiny budgets for smoke runs");
  parser.add("--max-epochs", &args.max_epochs,
             "override the ablation epoch cap (0 = each bench's default)");
  parser.add("--threads", &args.threads,
             "training worker threads (0 = hardware; never changes results)");
  parser.parse_or_exit(argc, argv);
  if (libm) {
    std::cout << util::libm_fingerprint();
    std::exit(0);
  }
  if (args.quick) {
    args.trace_jobs = std::min<std::size_t>(args.trace_jobs, 3000);
    args.epochs = std::min<std::size_t>(args.epochs, 3);
    args.trajectories = std::min<std::size_t>(args.trajectories, 12);
    args.samples = std::min<std::size_t>(args.samples, 3);
    args.sample_jobs = std::min<std::size_t>(args.sample_jobs, 384);
  }
  // Benches resolve trained-agent scenario references against their own
  // model cache directory — unless the user pointed the process at a
  // shared store. Precedence: explicit --model-dir > $RLBF_MODEL_STORE >
  // the bench default.
  const char* env_store = std::getenv("RLBF_MODEL_STORE");
  const bool model_dir_overridden = args.model_dir != BenchArgs{}.model_dir;
  if (model_dir_overridden || env_store == nullptr || *env_store == '\0') {
    model::set_default_store_root(args.model_dir);
  } else {
    args.model_dir = env_store;
  }
  return args;
}

void BenchArgs::cap_epochs(std::size_t default_cap) {
  const std::size_t cap = max_epochs > 0 ? max_epochs : default_cap;
  if (epochs > cap) {
    util::log_warn("clamping --epochs=", epochs, " to the ablation cap ", cap,
                   " (pass --max-epochs to raise it)");
    epochs = cap;
  }
}

swf::Trace trace_by_name(const std::string& name, std::uint64_t seed,
                         std::size_t jobs) {
  // Route through the exp trace cache: a default-field ScenarioSpec over
  // a preset reduces to workload::make_preset, so the bench's direct
  // trace and its scenario cells share one generated copy (unknown
  // names throw from build_trace with the known-workload list).
  exp::ScenarioSpec spec;
  spec.workload = name;
  spec.trace_jobs = jobs;
  return *exp::build_trace_cached(spec, seed);
}

std::vector<std::string> paper_trace_names() {
  return {"SDSC-SP2", "HPC2N", "Lublin-1", "Lublin-2"};
}

core::TrainerConfig trainer_config(const BenchArgs& args,
                                   const std::string& base_policy) {
  core::TrainerConfig cfg;
  cfg.base_policy = base_policy;
  cfg.epochs = args.epochs;
  cfg.trajectories_per_epoch = args.trajectories;
  cfg.jobs_per_trajectory = args.jobs_per_trajectory;
  cfg.ppo.train_iters = 80;     // paper protocol
  cfg.ppo.policy_lr = 1e-3;
  cfg.ppo.value_lr = 1e-3;
  cfg.ppo.minibatch_size = 512;
  cfg.seed = args.seed;
  return cfg;
}

model::TrainingSpec training_spec(const std::string& name,
                                  const std::string& base_policy,
                                  const BenchArgs& args) {
  model::TrainingSpec spec;
  spec.name = "bench-" + name + "-" + base_policy;
  spec.workload.workload = name;
  spec.workload.trace_jobs = args.trace_jobs;
  spec.trainer = trainer_config(args, base_policy);
  return spec;
}

exp::ScenarioSpec scenario_for(const std::string& workload,
                               const sched::SchedulerSpec& scheduler,
                               const BenchArgs& args) {
  exp::ScenarioSpec spec;
  spec.name = workload + " " + scheduler.label();
  spec.workload = workload;
  spec.trace_jobs = args.trace_jobs;
  spec.scheduler = scheduler;
  return spec;
}

model::TrainingSpec arm_spec(const std::string& arm, const BenchArgs& args) {
  model::TrainingSpec spec = model::find_training_spec(arm);
  spec.workload.trace_jobs = args.trace_jobs;
  spec.trainer.epochs = args.epochs;
  spec.trainer.trajectories_per_epoch = args.trajectories;
  spec.trainer.jobs_per_trajectory = args.jobs_per_trajectory;
  spec.trainer.seed = args.seed;
  return spec;
}

model::TrainOutcome get_or_train(const swf::Trace& trace,
                                 const model::TrainingSpec& spec,
                                 const BenchArgs& args) {
  model::Store& store = model::default_store();
  model::TrainOptions options;
  options.force = args.retrain;
  options.threads = args.threads;
  const model::TrainOutcome outcome =
      model::train_on_trace(trace, spec, store, options);
  if (outcome.cache_hit) {
    util::log_info("model store hit ", outcome.entry.path, " (", spec.name,
                   " on ", trace.name(), ")");
  } else {
    util::log_info("trained ", spec.name, " on ", trace.name(), " (",
                   spec.trainer.epochs, " epochs x ",
                   spec.trainer.trajectories_per_epoch, " trajectories) -> ",
                   outcome.entry.path);
  }
  return outcome;
}

model::TrainOutcome get_or_train_entry(const swf::Trace& trace,
                                       const std::string& base_policy,
                                       const BenchArgs& args) {
  return get_or_train(trace, training_spec(trace.name(), base_policy, args), args);
}

core::Agent get_or_train_agent(const swf::Trace& trace, const std::string& base_policy,
                               const BenchArgs& args) {
  const model::TrainOutcome outcome = get_or_train_entry(trace, base_policy, args);
  return model::default_store().load(outcome.entry.key);
}

const std::string& entry_meta(const model::TrainOutcome& outcome,
                              const std::string& key) {
  const auto it = outcome.entry.meta.find(key);
  if (it == outcome.entry.meta.end()) {
    throw std::runtime_error("store entry " + outcome.entry.key +
                             " carries no '" + key +
                             "' training stat — retrain it (--retrain) once");
  }
  return it->second;
}

double entry_stat(const model::TrainOutcome& outcome, const std::string& key) {
  const std::string& text = entry_meta(outcome, key);
  double value = 0.0;
  if (!exp::parse_number(text, &value)) {
    throw std::runtime_error("store entry " + outcome.entry.key + ": bad stat " +
                             key + "='" + text + "'");
  }
  return value;
}

std::vector<double> entry_eval_curve(const model::TrainOutcome& outcome) {
  const std::string& text = entry_meta(outcome, "eval_curve");
  std::vector<double> curve;
  std::size_t start = 0;
  while (start <= text.size() && !text.empty()) {
    const std::size_t comma = text.find(',', start);
    const std::string token = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (token == "nan") {
      curve.push_back(std::numeric_limits<double>::quiet_NaN());
      continue;
    }
    double value = 0.0;
    if (!exp::parse_number(token, &value)) {
      throw std::runtime_error("store entry " + outcome.entry.key +
                               ": bad eval_curve token '" + token + "'");
    }
    curve.push_back(value);
  }
  return curve;
}

namespace {

core::EvalProtocol protocol_of(const BenchArgs& args) {
  core::EvalProtocol protocol;
  protocol.samples = args.samples;
  protocol.sample_jobs = args.sample_jobs;
  protocol.seed = args.seed;
  return protocol;
}

}  // namespace

double eval_spec(const swf::Trace& trace, const sched::SchedulerSpec& spec,
                 const BenchArgs& args) {
  return core::evaluate_spec(trace, spec, protocol_of(args)).mean;
}

double eval_rlbf(const swf::Trace& trace, const core::Agent& agent,
                 const std::string& base_policy, const BenchArgs& args) {
  return core::evaluate_agent(trace, agent, base_policy, protocol_of(args)).mean;
}

core::EvalResult eval_scenario_stats(const exp::ScenarioSpec& spec,
                                     const BenchArgs& args) {
  return exp::evaluate_scenario(spec, protocol_of(args));
}

double eval_scenario(const exp::ScenarioSpec& spec, const BenchArgs& args) {
  return eval_scenario_stats(spec, args).mean;
}

double eval_agent_scenario(const std::string& workload, const std::string& policy,
                           const std::string& agent_ref, const BenchArgs& args) {
  sched::SchedulerSpec spec{policy, sched::BackfillKind::Easy,
                            sched::EstimateKind::RequestTime};
  spec.agent = agent_ref;
  return eval_scenario(scenario_for(workload, spec, args), args);
}

}  // namespace rlbf::bench
