// Training-time environment adapter (paper §3.4): a BackfillChooser
// that samples actions from the agent's policy, records one rl::Step
// per backfilling decision, and shapes rewards:
//
//  * every non-terminal step's reward is 0 — the bounded-slowdown
//    objective only exists once the whole sequence is scheduled;
//  * a decision that would delay the blocked job's reservation (the
//    EASY admissibility test fails under the estimates) incurs the
//    paper's "large negative reward" at that step;
//  * at episode end the terminal step receives
//        (bsld_baseline − bsld_agent) / bsld_baseline,
//    the percentage improvement over the paper's reward baseline
//    (FCFS base + SJF-ordered EASY backfilling on the same sequence),
//    which the trainer supplies via set_baseline_bsld().
#pragma once

#include <optional>

#include "core/agent.h"
#include "rl/rollout.h"
#include "sim/event_sim.h"
#include "util/rng.h"

namespace rlbf::core {

/// How "backfilled jobs must not delay the selected job" is enforced.
enum class DelayRule {
  /// The paper's mechanism: a pick failing the EASY admissibility test
  /// *under the estimates* earns an immediate negative reward. Ablation
  /// A2 shows flat estimate-based penalties push the agent toward never
  /// backfilling — penalty avoidance dominates the terminal reward.
  EstimatePenalty,
  /// Penalize only picks whose reserved job *actually* started later
  /// than its reservation at decision time (checked retroactively at
  /// episode end). Grants the aggressive-backfill freedom EASY-AR
  /// enjoys, but the credit assignment is diffuse (every pick during a
  /// delayed job's wait is charged) and training oscillates — see
  /// ablation A2.
  ActualDelayPenalty,
  /// Hard-mask EASY-inadmissible candidates (the agent can then never
  /// delay the reserved job under the estimates, like EASY itself).
  /// Default: trains stably and reproduces the paper's headline.
  HardMask,
};

/// The scheduling metric the terminal reward optimizes. The paper trains
/// on average bounded slowdown and names other goals (average waiting
/// time, ...) as future work; all three are supported here.
enum class RewardObjective {
  BoundedSlowdown,  // paper default
  AvgWaitTime,
  AvgTurnaround,
};

/// Aggregate the chosen objective over a finished schedule.
double objective_value(RewardObjective objective,
                       const std::vector<sim::JobResult>& results);

/// How the env turns the model's per-candidate scores into an action.
enum class ActionSelection {
  /// Softmax over the scores, sampled — PPO/REINFORCE exploration.
  SampleSoftmax,
  /// Argmax with probability 1 - epsilon, uniform over valid rows with
  /// probability epsilon — DQN exploration over Q-values (a softmax over
  /// Q would misread value magnitudes as a policy temperature).
  EpsilonGreedy,
  /// Pure argmax (greedy evaluation through the env).
  Greedy,
};

struct EnvConfig {
  /// Magnitude of the negative reward under either penalty rule.
  double delay_penalty = 2.0;
  DelayRule delay_rule = DelayRule::HardMask;
  RewardObjective objective = RewardObjective::BoundedSlowdown;
  ActionSelection selection = ActionSelection::SampleSoftmax;
  /// Exploration rate when selection == EpsilonGreedy; the DQN trainer
  /// re-sets it per epoch from its decay schedule.
  double epsilon = 0.1;

  /// Back-compat alias: sample (training) vs argmax (greedy evaluation).
  bool sample_actions = true;

  ActionSelection effective_selection() const {
    if (selection == ActionSelection::SampleSoftmax && !sample_actions) {
      return ActionSelection::Greedy;
    }
    return selection;
  }
  bool mask_delaying() const { return delay_rule == DelayRule::HardMask; }
};

class TrainingEnv final : public sim::BackfillChooser {
 public:
  /// The agent must outlive the env. `rng` drives action sampling.
  TrainingEnv(Agent& agent, const EnvConfig& config, util::Rng rng);

  /// Must be called before each episode with the baseline objective
  /// value (bsld by default) of the exact sequence about to be
  /// scheduled.
  void set_baseline_bsld(double bsld);

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  void episode_begin(const swf::Trace& trace) override;
  void episode_end(const std::vector<sim::JobResult>& results) override;
  std::string name() const override { return "RLBF-train"; }

  /// Retrieve (and clear) the finished episode. Valid after the
  /// simulation returns; throws if the episode never ended.
  rl::Episode take_episode();

  /// Agent objective value (bsld by default) of the last episode.
  double last_bsld() const { return last_bsld_; }
  double baseline_bsld() const { return baseline_bsld_; }

 private:
  /// Deferred actual-delay check: did `rjob` start after the reservation
  /// it held when the decision at `step_index` was made?
  struct PendingDelayCheck {
    std::size_t step_index;
    std::size_t rjob;
    std::int64_t shadow_time;
  };

  Agent& agent_;
  EnvConfig config_;
  util::Rng rng_;
  rl::Episode episode_;
  std::vector<PendingDelayCheck> pending_checks_;
  /// sample_masked's softmax weights, reused across decisions.
  std::vector<double> probs_;
  double baseline_bsld_ = 0.0;
  double last_bsld_ = 0.0;
  bool episode_open_ = false;
  bool episode_ready_ = false;
};

}  // namespace rlbf::core
