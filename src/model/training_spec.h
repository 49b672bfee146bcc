// Declarative training specifications for the model store.
//
// A TrainingSpec names everything one training run needs — the workload
// the trace is built from (via exp::build_trace), the RL algorithm (PPO,
// plus the DQN/REINFORCE ablation arms), and the full trainer protocol —
// and `fingerprint()` collapses it into a stable content address so the
// store can train once and reuse everywhere: equal fingerprints mean
// "this exact agent already exists", across processes and machines.
//
// Deliberately excluded from the fingerprint: the spec's name and
// description (presentation only) and every thread count (training is
// thread-count independent — gradient shards are fixed, collection and
// replication seeds are pre-split — so worker counts must not fork the
// cache).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "exp/scenario.h"

namespace rlbf::model {

struct TrainingSpec {
  std::string name;         // registry key
  std::string description;  // one line for --list

  /// Trace construction. Only the workload-construction fields of the
  /// embedded scenario participate (exp::trace_cache_key); its scheduler
  /// and simulation fields are ignored — the trainer owns the scheduling
  /// side. The trace seed is trainer.seed.
  exp::ScenarioSpec workload;

  /// The full trainer protocol: algorithm (trainer.algorithm selects
  /// PPO or the DQN/REINFORCE arms), hyperparameters, and agent
  /// architecture. trainer.threads is a runtime knob, never part of the
  /// fingerprint; the non-PPO hyperparameter blocks (trainer.dqn /
  /// trainer.reinforce) are fingerprinted only under their own algorithm
  /// (a PPO spec genuinely does not depend on them, so they must not
  /// fork its content address).
  core::TrainerConfig trainer;

  /// Warm start (the Table-5 fine-tuning setting): an agent reference —
  /// store key, registered spec name, or model file path — whose weights
  /// initialize training instead of a fresh agent. Fingerprinted when
  /// non-empty; prefer store keys, which are content addresses.
  std::string init_agent;
};

/// Canonical multi-line rendering of every fingerprinted field, in fixed
/// order with exact (%.17g) numeric formatting. This is what gets
/// hashed; the store keeps it alongside each model as a sidecar so a key
/// can always be audited.
std::string canonical_string(const TrainingSpec& spec);

/// Content address: 16 lowercase hex digits (FNV-1a 64 over
/// canonical_string). Stable across processes, platforms, and thread
/// counts.
std::string fingerprint(const TrainingSpec& spec);

/// FNV-1a 64 of arbitrary text as 16 lowercase hex digits (the hash
/// behind fingerprint(); exposed for trace content hashing).
std::string fnv1a_hex(const std::string& text);

/// Content hash over a trace's scheduling-relevant job fields. Lets the
/// store key training runs on explicit (possibly transformed) traces
/// that no workload-construction recipe describes.
std::string trace_fingerprint(const swf::Trace& trace);

/// Global name -> spec registry, pre-seeded with the built-in catalog
/// (paper-protocol specs per trace/base-policy plus the DQN/REINFORCE
/// ablation arms and a tiny CI smoke spec).
class TrainingRegistry {
 public:
  static TrainingRegistry& instance();

  /// Throws std::invalid_argument on empty or duplicate names.
  void add(TrainingSpec spec);

  bool contains(const std::string& name) const;

  /// Throws std::invalid_argument naming the unknown spec and listing
  /// what is available.
  const TrainingSpec& get(const std::string& name) const;

  /// Registration order.
  std::vector<std::string> names() const;

 private:
  // deque: references returned by get() stay valid across later add()s.
  std::deque<TrainingSpec> specs_;
};

/// Shorthands for TrainingRegistry::instance().
const TrainingSpec& find_training_spec(const std::string& name);
std::vector<std::string> training_spec_names();

/// The registered ablation arms ("abl-*": delay-penalty rules, observation
/// sizes, kernel-vs-flat networks, feature knockouts, reward objectives,
/// RL algorithms, transfer protocol), in registration order. Each arm
/// also has a same-named evaluation scenario in the exp catalog.
std::vector<std::string> ablation_arm_names();

}  // namespace rlbf::model
