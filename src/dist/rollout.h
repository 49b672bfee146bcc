// The process transport of the actor/learner split: a rl::Collector
// that fans an epoch's sequences out to `rlbf_run collect-rollouts`
// worker subprocesses and reassembles their wire-format responses in
// sequence order.
//
// Per epoch: the learner's current model is checkpointed once to the
// scratch dir (save_model hook, exact-text round-trip), sequence i goes
// to worker i % W with its pre-drawn seed, and every worker job runs
// through the same dist::Launcher / dist::run_jobs machinery as the
// sweep/train orchestrator — so retries, failure injection, host
// round-robin, and stderr-tail failure reports come for free. The
// options restate none of that machinery's settings: they carry the
// same Transport, Sidecars and OrchestratorOptions values the other
// fan-outs use (RolloutTransportOptions below). Each
// worker's response file embeds a request fingerprint (worker args +
// epoch + worker index + seed subset), so a stale file from a previous
// epoch on a reused scratch dir can never be consumed.
//
// Because seeds are pre-drawn by the learner and results are indexed by
// sequence, the reassembled epoch is byte-identical to the in-process
// ThreadCollector at any worker count — the determinism contract of
// rl/collect.h.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/job.h"
#include "dist/launcher.h"
#include "dist/orchestrator.h"
#include "rl/collect.h"

namespace rlbf::dist {

/// How the process transport runs its workers — the shared fan-out
/// pieces, each declared once in its own struct: the Transport picks
/// the launcher, Sidecars the per-worker obs files, and the
/// OrchestratorOptions supervise every epoch's jobs (retries,
/// injected failures, heartbeat, progress lines, per-job series).
/// `worker` + `worker_args` must reconstruct the learner's training
/// setup in another process (`rlbf_run collect-rollouts --spec=...
/// --seed=...`); the transport appends the per-epoch flags (--seeds/
/// --model/--out/--fingerprint/--epoch/--epsilon) itself.
/// model::TrainOptions::rollout is one of these.
struct RolloutTransportOptions {
  /// Worker process count (clamped to the sequence count per epoch).
  /// 0 = no process transport (in-process collection).
  std::size_t workers = 0;
  /// Worker binary (normally the running rlbf_run itself).
  std::string worker;
  /// Subcommand flags that reconstruct the training setup remotely.
  std::vector<std::string> worker_args;
  /// Scratch directory for model checkpoints, per-job output dirs, and
  /// observability sidecars.
  std::string work_dir;
  Sidecars sidecars;
  Transport transport;
  /// Per-epoch job supervision. max_parallel is overridden with the
  /// epoch's worker count.
  OrchestratorOptions supervisor;
};

/// The subprocess rollout transport. slots() is 0: workers load the
/// checkpointed model themselves, the in-process SequenceFn never runs.
class ProcessCollector : public rl::Collector {
 public:
  /// Validates options (worker/work_dir/workers) and constructs the
  /// launcher up front (Transport::make_launcher), so malformed
  /// transports fail before any epoch runs. Throws
  /// std::invalid_argument.
  explicit ProcessCollector(RolloutTransportOptions options);

  /// The learner's model writer: called once per epoch with the
  /// checkpoint path workers will load. Must be installed (by the
  /// training executor, which owns the agent) before collect().
  void set_save_model(std::function<void(const std::string&)> save_model) {
    save_model_ = std::move(save_model);
  }

  std::size_t slots(std::size_t n_sequences) const override {
    (void)n_sequences;
    return 0;
  }

  /// Fan plan.seeds out to worker jobs, run them to success or retry
  /// exhaustion, decode and reassemble. Throws std::runtime_error with
  /// the orchestrator's failure summary when any job exhausts its
  /// retries, and rl::WireError on a corrupt or mismatched response.
  std::vector<rl::SequenceResult> collect(const rl::CollectionPlan& plan,
                                          const rl::SequenceFn& fn) override;

  /// Every worker job launched so far (all epochs, launch order) — the
  /// supervisor merges their observability sidecars after training.
  const std::vector<JobSpec>& jobs() const { return jobs_; }

  const RolloutTransportOptions& options() const { return options_; }

 private:
  RolloutTransportOptions options_;
  std::unique_ptr<Launcher> launcher_;
  std::function<void(const std::string&)> save_model_;
  std::vector<JobSpec> jobs_;
};

/// The request fingerprint a worker's response must carry: a hash of
/// the worker args, epoch, worker index, and seed subset. Computed by
/// the supervisor when planning the job AND passed to the worker via
/// --fingerprint, so the wire check binds a file to exactly one request.
std::string rollout_request_fingerprint(
    const std::vector<std::string>& worker_args, std::size_t epoch,
    std::size_t worker_index, const std::vector<std::uint64_t>& seeds);

/// Comma-joined seed list for --seeds (and its inverse; the parser
/// throws std::invalid_argument naming a malformed element).
std::string format_seed_list(const std::vector<std::uint64_t>& seeds);
std::vector<std::uint64_t> parse_seed_list(const std::string& text);

}  // namespace rlbf::dist
