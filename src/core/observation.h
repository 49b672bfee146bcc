// Observation construction (paper §3.2): the RL agent sees the queued
// jobs (sorted by submission time, truncated FCFS-style to
// MAX_OBSV_SIZE), the selected job (present but masked so it can never
// be picked), and the resource availability appended to every job
// vector — "each job vector will contain the resource availability
// information, which is the key for the kernel-based RL neural networks
// to work".
//
// Per-job features (all scaled to roughly [0, 1]):
//   0: waiting time        log1p(wt) / log1p(1 week)
//   1: requested time      log1p(rt) / log1p(1 week)
//   2: requested procs     nt / machine_procs
//   3: fits now            1 if nt <= free procs
//   4: estimated runtime   log1p(est) / log1p(1 week)   (the estimator's
//                          view; equals f1 when estimates = request time)
//   5: reservation slack   clamp((shadow - now - est) / (shadow - now), -1, 1)
//                          > 0 iff the job would finish before the
//                          blocked job's reservation
//   6: free fraction       available procs / machine procs (same for all rows)
//   7: is the blocked job  1 for the rjob row (always masked)
//   8: is the stop action  1 for the synthetic "end this backfilling
//                          opportunity" row (see stop_action below)
//   9: fit ratio           procs / free procs, clamped to [0, 1] — how
//                          much of the currently free capacity this
//                          candidate would consume (best-fit signal the
//                          MLP cannot easily derive from f2 and f6)
//
// The stop action (optional, default off): the paper defines actions as
// "the selected jobs for backfilling" and ends an opportunity when
// nothing fits. Under the penalty reward (EnvConfig::delay_penalty) the
// agent then cannot decline a delaying pick, so we can append one
// synthetic always-selectable row meaning "backfill nothing (more) right
// now"; picking it ends the opportunity. Under the default hard-masking
// action space the stop action is unnecessary (admissible picks never
// delay the reserved job) and slows convergence, so it defaults off.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "sim/event_sim.h"

namespace rlbf::core {

struct ObservationConfig {
  /// The paper's MAX_OBSV_SIZE: jobs beyond this (in submit order) are
  /// cut off; with pad_policy_obs the matrix is zero-padded up to it.
  std::size_t max_obsv_size = 128;
  /// Jobs flattened into the value network's fixed-size input. The paper
  /// flattens all MAX_OBSV_SIZE jobs; 32 is this reproduction's
  /// compute-budget default (see DESIGN.md §3, substitution 3).
  std::size_t value_obsv_size = 32;
  /// Pad the policy observation to max_obsv_size rows (required by the
  /// flat-policy ablation; the kernel policy handles variable rows).
  bool pad_policy_obs = false;
  /// Always mask EASY-inadmissible candidates (the hard-masking ablation
  /// A2). Stored here so a model trained under masking is deployed under
  /// the same action space.
  bool mask_inadmissible = false;
  /// Append the synthetic stop row (see the header comment).
  bool stop_action = false;
  /// Per-feature enable bits (bit i = feature i above). The default
  /// enables all 10; the feature-importance ablation clears one bit at a
  /// time and retrains. Disabled features read as 0 in every row, so
  /// network shapes are unchanged. The stop-row indicator (feature 8)
  /// cannot be disabled while stop_action is on.
  std::uint32_t feature_mask = 0x3FF;

  static constexpr std::size_t kFeatures = 10;
  bool feature_enabled(std::size_t f) const {
    return (feature_mask >> f) & 1u;
  }
  std::size_t policy_feature_dim() const { return kFeatures; }
  std::size_t value_feature_dim() const { return value_obsv_size * kFeatures; }
  /// Policy observation rows when padded: jobs plus the optional stop row.
  std::size_t padded_policy_rows() const {
    return max_obsv_size + (stop_action ? 1 : 0);
  }
};

/// Sentinel for rows with no backfill candidate behind them.
inline constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);
/// Sentinel for the stop row: selecting it ends the opportunity.
inline constexpr std::size_t kStopAction = static_cast<std::size_t>(-2);

struct PolicyObservation {
  /// rows x kFeatures job matrix.
  nn::Tensor obs;
  /// 1 = selectable (maps to a backfill candidate), per row.
  std::vector<std::uint8_t> mask;
  /// Row -> index into BackfillContext::candidates (kNoCandidate if the
  /// row is the rjob, an infeasible job, or padding).
  std::vector<std::size_t> row_to_candidate;

  bool any_selectable() const;
};

class ObservationBuilder {
 public:
  explicit ObservationBuilder(const ObservationConfig& config);

  const ObservationConfig& config() const { return config_; }

  /// Build the per-candidate policy observation for one backfilling
  /// opportunity into `po`, reusing its buffers: allocation-free once
  /// they have seen the deepest queue. With `admissible_only`, the mask
  /// additionally requires the EASY no-delay test (the hard-masking
  /// ablation).
  void build_policy_into(const sim::BackfillContext& ctx, PolicyObservation& po,
                         bool admissible_only = false) const;
  /// build_policy_into a fresh observation.
  PolicyObservation build_policy(const sim::BackfillContext& ctx,
                                 bool admissible_only = false) const;
  /// Only the rows build_policy_into marks selectable, byte for byte and
  /// in the same submit order, then the stop row when enabled; the mask
  /// is all ones. The greedy kernel-policy path builds this: the kernel
  /// scores each row on its own, so the rows it skips (the rjob, jobs
  /// that do not fit, inadmissible jobs under mask_inadmissible) cannot
  /// change the first maximum. Not for the flat policy, which reads
  /// rows by position.
  void build_selectable_into(const sim::BackfillContext& ctx, PolicyObservation& po) const;

  /// Build the flattened fixed-size critic observation (1 x value_feature_dim).
  nn::Tensor build_value(const sim::BackfillContext& ctx) const;

 private:
  /// Index into ctx.candidates of job `job_idx`'s row, or kNoCandidate
  /// when the row is not selectable: the one rule both policy builders
  /// share.
  std::size_t selectable_candidate(const sim::BackfillContext& ctx, std::size_t job_idx,
                                   bool admissible_only) const;
  /// Write job `job_index`'s kFeatures features at `row`.
  void fill_row(double* row, std::size_t job_index, const sim::BackfillContext& ctx) const;

  ObservationConfig config_;
};

}  // namespace rlbf::core
