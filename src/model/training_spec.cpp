#include "model/training_spec.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "exp/config.h"

namespace rlbf::model {

namespace {

void put(std::ostringstream& os, const char* key, const std::string& value) {
  os << key << ' ' << value << '\n';
}
void put(std::ostringstream& os, const char* key, double value) {
  os << key << ' ' << exp::format_double_exact(value) << '\n';
}
template <typename T>
  requires std::is_integral_v<T>
void put(std::ostringstream& os, const char* key, T value) {
  os << key << ' ' << value << '\n';
}

std::string dims_string(const std::vector<std::size_t>& dims) {
  std::string out;
  for (std::size_t d : dims) {
    if (!out.empty()) out += ',';
    out += std::to_string(d);
  }
  return out;
}

}  // namespace

std::string canonical_string(const TrainingSpec& spec) {
  const core::TrainerConfig& t = spec.trainer;
  std::ostringstream os;
  os << "rlbf-training-spec v1\n";
  // Trace construction (exp::build_trace inputs; seed is trainer.seed).
  put(os, "trace", exp::trace_cache_key(spec.workload));
  put(os, "seed", t.seed);
  // Algorithm. Enum-valued knobs render as their underlying integers;
  // reordering those enums is a format change, like renaming a field.
  put(os, "algorithm", t.algorithm);
  // Trainer protocol.
  put(os, "base_policy", t.base_policy);
  put(os, "epochs", t.epochs);
  put(os, "trajectories_per_epoch", t.trajectories_per_epoch);
  put(os, "jobs_per_trajectory", t.jobs_per_trajectory);
  put(os, "eval_every", t.eval_every);
  put(os, "eval_samples", t.eval_samples);
  put(os, "eval_sample_jobs", t.eval_sample_jobs);
  put(os, "keep_best", t.keep_best ? 1 : 0);
  // PPO update (the non-PPO arms use their algorithm defaults, which the
  // `algorithm` line above already versions).
  put(os, "ppo.gamma", t.ppo.gamma);
  put(os, "ppo.lambda", t.ppo.lambda);
  put(os, "ppo.clip_ratio", t.ppo.clip_ratio);
  put(os, "ppo.policy_lr", t.ppo.policy_lr);
  put(os, "ppo.value_lr", t.ppo.value_lr);
  put(os, "ppo.train_iters", t.ppo.train_iters);
  put(os, "ppo.minibatch_size", t.ppo.minibatch_size);
  put(os, "ppo.entropy_coef", t.ppo.entropy_coef);
  put(os, "ppo.target_kl", t.ppo.target_kl);
  put(os, "ppo.max_grad_norm", t.ppo.max_grad_norm);
  put(os, "ppo.normalize_advantages", t.ppo.normalize_advantages ? 1 : 0);
  put(os, "ppo.grad_shards", t.ppo.grad_shards);
  // Environment / reward shaping.
  put(os, "env.delay_penalty", t.env.delay_penalty);
  put(os, "env.delay_rule", static_cast<int>(t.env.delay_rule));
  put(os, "env.objective", static_cast<int>(t.env.objective));
  put(os, "env.selection", static_cast<int>(t.env.selection));
  put(os, "env.epsilon", t.env.epsilon);
  put(os, "env.sample_actions", t.env.sample_actions ? 1 : 0);
  // Agent architecture.
  put(os, "agent.kernel_policy", t.agent.kernel_policy ? 1 : 0);
  put(os, "agent.obs.max_obsv_size", t.agent.obs.max_obsv_size);
  put(os, "agent.obs.value_obsv_size", t.agent.obs.value_obsv_size);
  put(os, "agent.obs.pad_policy_obs", t.agent.obs.pad_policy_obs ? 1 : 0);
  put(os, "agent.obs.mask_inadmissible", t.agent.obs.mask_inadmissible ? 1 : 0);
  put(os, "agent.obs.stop_action", t.agent.obs.stop_action ? 1 : 0);
  put(os, "agent.obs.feature_mask", t.agent.obs.feature_mask);
  put(os, "agent.net.policy_hidden", dims_string(t.agent.net.policy_hidden));
  put(os, "agent.net.value_hidden", dims_string(t.agent.net.value_hidden));
  put(os, "agent.net.activation", static_cast<int>(t.agent.net.activation));
  put(os, "agent.net.policy_output_scale", t.agent.net.policy_output_scale);
  // Non-PPO hyperparameter blocks render only under their own algorithm:
  // a PPO spec does not depend on them, so they must not fork its
  // content address (and v1 PPO fingerprints stay valid).
  if (t.algorithm == "dqn") {
    const rl::DqnConfig& d = t.dqn;
    put(os, "dqn.gamma", d.gamma);
    put(os, "dqn.lr", d.lr);
    put(os, "dqn.batch_size", d.batch_size);
    put(os, "dqn.updates_per_epoch", d.updates_per_epoch);
    put(os, "dqn.target_sync_every", d.target_sync_every);
    put(os, "dqn.replay_capacity", d.replay_capacity);
    put(os, "dqn.min_replay", d.min_replay);
    put(os, "dqn.double_dqn", d.double_dqn ? 1 : 0);
    put(os, "dqn.huber_delta", d.huber_delta);
    put(os, "dqn.max_grad_norm", d.max_grad_norm);
    put(os, "dqn.epsilon_start", d.epsilon_start);
    put(os, "dqn.epsilon_end", d.epsilon_end);
    put(os, "dqn.epsilon_decay_epochs", d.epsilon_decay_epochs);
  } else if (t.algorithm == "reinforce") {
    const rl::ReinforceConfig& r = t.reinforce;
    put(os, "reinforce.gamma", r.gamma);
    put(os, "reinforce.lambda", r.lambda);
    put(os, "reinforce.policy_lr", r.policy_lr);
    put(os, "reinforce.value_lr", r.value_lr);
    put(os, "reinforce.use_baseline", r.use_baseline ? 1 : 0);
    put(os, "reinforce.value_iters", r.value_iters);
    put(os, "reinforce.minibatch_size", r.minibatch_size);
    put(os, "reinforce.entropy_coef", r.entropy_coef);
    put(os, "reinforce.max_grad_norm", r.max_grad_norm);
    put(os, "reinforce.normalize_weights", r.normalize_weights ? 1 : 0);
  }
  // Warm-start reference: rendered only when set, so cold-start specs
  // keep their v1 fingerprints.
  if (!spec.init_agent.empty()) put(os, "init_agent", spec.init_agent);
  return os.str();
}

std::string fnv1a_hex(const std::string& text) {
  // FNV-1a 64: tiny, well-distributed, and trivially reproducible in any
  // language — the point is a stable content address, not cryptography.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string fingerprint(const TrainingSpec& spec) {
  return fnv1a_hex(canonical_string(spec));
}

std::string trace_fingerprint(const swf::Trace& trace) {
  std::ostringstream os;
  os << trace.name() << ' ' << trace.machine_procs() << ' ' << trace.size()
     << '\n';
  for (const swf::Job& job : trace.jobs()) {
    // The fields the simulator and observation builder actually read.
    os << job.submit_time << ' ' << job.run_time << ' ' << job.requested_time
       << ' ' << job.requested_procs << ' ' << job.used_procs << ' '
       << job.user_id << '\n';
  }
  return fnv1a_hex(os.str());
}

void TrainingRegistry::add(TrainingSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("training spec name must be non-empty");
  }
  if (contains(spec.name)) {
    throw std::invalid_argument("duplicate training spec name: " + spec.name);
  }
  specs_.push_back(std::move(spec));
}

bool TrainingRegistry::contains(const std::string& name) const {
  return std::any_of(specs_.begin(), specs_.end(),
                     [&](const TrainingSpec& s) { return s.name == name; });
}

const TrainingSpec& TrainingRegistry::get(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return spec;
  }
  std::string known;
  for (const auto& spec : specs_) {
    known += (known.empty() ? "" : ", ") + spec.name;
  }
  throw std::invalid_argument("unknown training spec '" + name +
                              "' (known: " + known + ")");
}

std::vector<std::string> TrainingRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.name);
  return out;
}

namespace {

/// The paper's training protocol (§4.1.1): 100 trajectories x 256 jobs
/// per epoch, 80 PPO iterations at lr 1e-3.
TrainingSpec paper_spec(std::string name, std::string description,
                        const std::string& workload,
                        const std::string& base_policy) {
  TrainingSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.workload.workload = workload;
  spec.workload.trace_jobs = 10000;
  spec.trainer.base_policy = base_policy;
  spec.trainer.epochs = 50;
  spec.trainer.trajectories_per_epoch = 100;
  spec.trainer.jobs_per_trajectory = 256;
  spec.trainer.ppo.train_iters = 80;
  spec.trainer.ppo.policy_lr = 1e-3;
  spec.trainer.ppo.value_lr = 1e-3;
  spec.trainer.ppo.minibatch_size = 512;
  spec.trainer.seed = 1;
  return spec;
}

/// The bench/ ablation base: the paper's per-epoch protocol at the
/// reduced budget the ablations compare variants under (8 epochs x 50
/// trajectories — bench::trainer_config defaults with the epoch cap
/// applied). Every "abl-*" arm is this spec plus exactly the fields its
/// variant changes, so equal configurations collapse to one store entry.
TrainingSpec ablation_spec(std::string name, std::string description) {
  TrainingSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.workload.workload = "SDSC-SP2";
  spec.workload.trace_jobs = 10000;
  spec.trainer.base_policy = "FCFS";
  spec.trainer.epochs = 8;
  spec.trainer.trajectories_per_epoch = 50;
  spec.trainer.jobs_per_trajectory = 256;
  spec.trainer.ppo.train_iters = 80;
  spec.trainer.ppo.policy_lr = 1e-3;
  spec.trainer.ppo.value_lr = 1e-3;
  spec.trainer.ppo.minibatch_size = 512;
  spec.trainer.seed = 1;
  return spec;
}

/// The ablation arms behind bench/ablation_*. Kept minimal: every arm is
/// a distinct training configuration; controls that coincide with the
/// all-defaults base share the single "abl-control" arm (content
/// addressing would collapse their store entries anyway). The obsv-128
/// point, the all-features row, and the bounded-slowdown objective row
/// are all abl-control; the kernel-network control of A1 is abl-obsv-32
/// (the paper's kernel policy at the flat-comparable observation size).
void register_ablation_arms(TrainingRegistry& registry) {
  registry.add(ablation_spec(
      "abl-control",
      "Ablation control: paper defaults at the shared 8-epoch budget"));

  // A2: how the no-delay contract is enforced (delay rule x magnitude).
  const struct {
    const char* name;
    double penalty;
    core::DelayRule rule;
  } delay_arms[] = {
      {"abl-delay-est-0.5", 0.5, core::DelayRule::EstimatePenalty},
      {"abl-delay-est-2", 2.0, core::DelayRule::EstimatePenalty},
      {"abl-delay-est-10", 10.0, core::DelayRule::EstimatePenalty},
      {"abl-delay-act-0.5", 0.5, core::DelayRule::ActualDelayPenalty},
      {"abl-delay-act-2", 2.0, core::DelayRule::ActualDelayPenalty},
      {"abl-delay-mask", 0.0, core::DelayRule::HardMask},
  };
  for (const auto& arm : delay_arms) {
    auto s = ablation_spec(arm.name, "A2 delay-rule arm");
    s.trainer.env.delay_penalty = arm.penalty;
    s.trainer.env.delay_rule = arm.rule;
    registry.add(s);
  }

  // A3: MAX_OBSV_SIZE sweep (the 128 point is abl-control).
  for (const std::size_t size : {8u, 16u, 32u, 64u}) {
    auto s = ablation_spec("abl-obsv-" + std::to_string(size),
                           "A3 observation-size arm");
    s.trainer.agent.obs.max_obsv_size = size;
    s.trainer.agent.obs.value_obsv_size = std::min<std::size_t>(size, 32);
    registry.add(s);
  }

  // A1: flat MLP over the zero-padded observation (the kernel control at
  // this observation size is abl-obsv-32).
  {
    auto s = ablation_spec("abl-net-flat",
                           "A1 flat-MLP policy network over padded obs");
    s.trainer.agent.kernel_policy = false;
    s.trainer.agent.obs.pad_policy_obs = true;
    s.trainer.agent.obs.max_obsv_size = 32;
    s.trainer.agent.obs.value_obsv_size = 32;
    registry.add(s);
  }

  // A9: feature knockouts (all-features control is abl-control).
  const struct {
    const char* name;
    std::size_t bit;
  } feature_arms[] = {
      {"abl-feat-no-wait", 0},     {"abl-feat-no-reqtime", 1},
      {"abl-feat-no-procs", 2},    {"abl-feat-no-runtime", 4},
      {"abl-feat-no-slack", 5},    {"abl-feat-no-freefrac", 6},
      {"abl-feat-no-fit", 9},
  };
  for (const auto& arm : feature_arms) {
    auto s = ablation_spec(arm.name, "A9 feature-knockout arm");
    s.trainer.agent.obs.feature_mask = 0x3FFu & ~(1u << arm.bit);
    registry.add(s);
  }

  // A4: reward objective (bounded slowdown is abl-control).
  {
    auto s = ablation_spec("abl-obj-wait", "A4 average-wait-time objective");
    s.trainer.env.objective = core::RewardObjective::AvgWaitTime;
    registry.add(s);
  }
  {
    auto s = ablation_spec("abl-obj-turnaround", "A4 average-turnaround objective");
    s.trainer.env.objective = core::RewardObjective::AvgTurnaround;
    registry.add(s);
  }

  // A6: RL algorithm under identical collection (12-epoch budget,
  // per-epoch greedy evaluation for the convergence curves).
  {
    auto s = ablation_spec("abl-rl-ppo", "A6 PPO arm (paper algorithm)");
    s.trainer.epochs = 12;
    s.trainer.eval_every = 1;
    registry.add(s);
  }
  {
    auto s = ablation_spec("abl-rl-dqn", "A6 Double-DQN arm");
    s.trainer.algorithm = "dqn";
    s.trainer.epochs = 12;
    s.trainer.eval_every = 1;
    s.trainer.dqn.epsilon_decay_epochs = 6;  // half the budget, as in the bench
    registry.add(s);
  }
  {
    auto s = ablation_spec("abl-rl-reinforce", "A6 REINFORCE arm");
    s.trainer.algorithm = "reinforce";
    s.trainer.epochs = 12;
    s.trainer.eval_every = 1;
    // One gradient step per epoch needs a faster rate than PPO's reused
    // batches.
    s.trainer.reinforce.policy_lr = 3e-3;
    registry.add(s);
  }

  // A8: transfer. Source = the full-budget Lublin-1 agent; fine-tune
  // warm-starts from it on SDSC-SP2 at a quarter of the budget; scratch
  // is the same quarter budget cold.
  {
    auto s = ablation_spec("abl-transfer-source",
                           "A8 transfer source: full budget on Lublin-1");
    s.workload.workload = "Lublin-1";
    s.trainer.epochs = 60;
    registry.add(s);
  }
  {
    auto s = ablation_spec("abl-transfer-finetune",
                           "A8 fine-tune: warm start from abl-transfer-source");
    s.trainer.epochs = 15;
    s.init_agent = "abl-transfer-source";
    registry.add(s);
  }
  {
    auto s = ablation_spec("abl-transfer-scratch",
                           "A8 scratch control at the fine-tuning budget");
    s.trainer.epochs = 15;
    registry.add(s);
  }
}

void register_builtins(TrainingRegistry& registry) {
  registry.add(paper_spec("sdsc-fcfs", "Paper protocol: PPO on SDSC-SP2, FCFS base",
                          "SDSC-SP2", "FCFS"));
  registry.add(paper_spec("sdsc-sjf", "Paper protocol: PPO on SDSC-SP2, SJF base",
                          "SDSC-SP2", "SJF"));
  registry.add(paper_spec("hpc2n-fcfs", "Paper protocol: PPO on HPC2N, FCFS base",
                          "HPC2N", "FCFS"));
  registry.add(paper_spec("lublin1-fcfs",
                          "Paper protocol: PPO on synthetic Lublin-1, FCFS base",
                          "Lublin-1", "FCFS"));
  registry.add(paper_spec("lublin2-fcfs",
                          "Paper protocol: PPO on synthetic Lublin-2, FCFS base",
                          "Lublin-2", "FCFS"));
  {
    auto s = paper_spec("sdsc-fcfs-dqn",
                        "Ablation arm: DQN under the PPO data-collection protocol",
                        "SDSC-SP2", "FCFS");
    s.trainer.algorithm = "dqn";
    registry.add(s);
  }
  {
    auto s = paper_spec("sdsc-fcfs-reinforce",
                        "Ablation arm: REINFORCE (single policy-gradient step)",
                        "SDSC-SP2", "FCFS");
    s.trainer.algorithm = "reinforce";
    registry.add(s);
  }
  register_ablation_arms(registry);
  {
    TrainingSpec s;
    s.name = "sdsc-tiny";
    s.description = "CI smoke: 2 epochs x 6 tiny trajectories on 2000 SDSC jobs";
    s.workload.workload = "SDSC-SP2";
    s.workload.trace_jobs = 2000;
    s.trainer.epochs = 2;
    s.trainer.trajectories_per_epoch = 6;
    s.trainer.jobs_per_trajectory = 128;
    s.trainer.ppo.train_iters = 20;
    s.trainer.ppo.minibatch_size = 256;
    s.trainer.eval_every = 1;
    s.trainer.eval_samples = 2;
    s.trainer.eval_sample_jobs = 256;
    s.trainer.seed = 1;
    registry.add(s);
  }
}

}  // namespace

TrainingRegistry& TrainingRegistry::instance() {
  static TrainingRegistry* registry = [] {
    auto* r = new TrainingRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

const TrainingSpec& find_training_spec(const std::string& name) {
  return TrainingRegistry::instance().get(name);
}

std::vector<std::string> training_spec_names() {
  return TrainingRegistry::instance().names();
}

std::vector<std::string> ablation_arm_names() {
  std::vector<std::string> arms;
  for (const std::string& name : training_spec_names()) {
    if (name.rfind("abl-", 0) == 0) arms.push_back(name);
  }
  return arms;
}

}  // namespace rlbf::model
