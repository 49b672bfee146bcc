#include "model/train.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "dist/rollout.h"
#include "exp/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/rng.h"

namespace rlbf::model {

namespace {

/// Resolve a warm-start (init_agent) reference against `store`: a
/// registered spec name (via its fingerprint), a raw store key, or a
/// model file path. Throws naming the missing prerequisite.
core::Agent load_init_agent(const std::string& ref, const Store& store,
                            const std::string& spec_name) {
  if (TrainingRegistry::instance().contains(ref)) {
    const std::string key = fingerprint(find_training_spec(ref));
    if (store.contains(key)) return store.load(key);
    // The registered spec's exact fingerprint is absent — fall back to a
    // UNIQUE entry trained under this spec name, mirroring resolve_agent:
    // CLI budget overrides (`rlbf_run train --ablations --epochs=...`)
    // change the source's content address but still record its name.
    std::vector<StoreEntry> named;
    for (const StoreEntry& entry : store.list()) {
      if (entry.name == ref) named.push_back(entry);
    }
    if (named.size() == 1) {
      util::log_info("warm start '", ref, "': registered fingerprint ", key,
                     " absent; using the unique same-name store entry ",
                     named[0].key);
      return core::Agent::load(named[0].path);
    }
    if (named.size() > 1) {
      std::string keys;
      for (const auto& entry : named) {
        keys += (keys.empty() ? "" : ", ") + entry.key;
      }
      throw std::runtime_error(
          "training spec '" + spec_name + "': warm-start reference '" + ref +
          "' is ambiguous: store '" + store.root() + "' holds " +
          std::to_string(named.size()) + " entries trained under that name (" +
          keys + ") — reference one key directly");
    }
    throw std::runtime_error(
        "training spec '" + spec_name + "': warm-start agent for spec '" + ref +
        "' (key " + key + ") is not in model store '" + store.root() +
        "' — train it first: rlbf_run train --spec=" + ref);
  }
  if (store.contains(ref)) return store.load(ref);
  std::error_code ec;
  if (std::filesystem::is_regular_file(ref, ec)) return core::Agent::load(ref);
  throw std::runtime_error("training spec '" + spec_name +
                           "': cannot resolve warm-start agent '" + ref +
                           "' (not a spec name, store key, or model file)");
}

/// The worker-side flags that reconstruct `spec`'s training setup in a
/// collect-rollouts subprocess: the registered spec name plus the
/// overrides the train CLI can apply (seed, trace size, trajectory
/// length). Throws unless re-applying exactly those overrides to the
/// registered spec reproduces `spec`'s canonical string — the proof
/// that worker-side collection samples the same trace, environment, and
/// reward shaping the learner would have used in-process.
std::vector<std::string> rollout_worker_args(const TrainingSpec& spec) {
  if (!TrainingRegistry::instance().contains(spec.name)) {
    throw std::invalid_argument(
        "train: --rollout_workers requires a registered training spec "
        "(workers reconstruct the setup by name); '" +
        spec.name + "' is not registered");
  }
  TrainingSpec rebuilt = find_training_spec(spec.name);
  rebuilt.trainer.seed = spec.trainer.seed;
  rebuilt.workload.trace_jobs = spec.workload.trace_jobs;
  rebuilt.trainer.jobs_per_trajectory = spec.trainer.jobs_per_trajectory;
  rebuilt.trainer.epochs = spec.trainer.epochs;
  rebuilt.trainer.trajectories_per_epoch = spec.trainer.trajectories_per_epoch;
  rebuilt.trainer.threads = spec.trainer.threads;
  rebuilt.init_agent = spec.init_agent;
  if (canonical_string(rebuilt) != canonical_string(spec)) {
    throw std::invalid_argument(
        "train: --rollout_workers cannot reproduce spec '" + spec.name +
        "' from its registered definition plus CLI overrides — the spec "
        "was modified beyond seed/jobs/traj_jobs/epochs/trajectories; "
        "run in-process (--rollout_workers=0)");
  }
  return {"--spec=" + spec.name,
          "--seed=" + std::to_string(spec.trainer.seed),
          "--jobs=" + std::to_string(spec.workload.trace_jobs),
          "--traj_jobs=" + std::to_string(spec.trainer.jobs_per_trajectory)};
}

/// Shared body of train_spec / train_on_trace: run the spec's algorithm
/// over `trace` and commit the result under `key`.
TrainOutcome run_training(const swf::Trace& trace, const TrainingSpec& spec,
                          const std::string& key, const std::string& canonical,
                          Store& store, const TrainOptions& options) {
  obs::Span span = obs::Span::labeled("train " + spec.name, "train");
  obs::ScopedTimer timer("model.train_seconds");
  if (obs::enabled()) obs::counter("model.trains").add(1);
  TrainOutcome outcome;
  core::TrainerConfig cfg = spec.trainer;
  if (options.threads != 0) cfg.threads = options.threads;

  // The process rollout transport, when requested: every epoch's
  // collection fans out to collect-rollouts subprocesses. Constructed
  // before the trainer so malformed transport options fail fast.
  std::unique_ptr<dist::ProcessCollector> collector;
  if (options.rollout.workers > 0) {
    dist::RolloutTransportOptions transport = options.rollout;
    transport.worker_args = rollout_worker_args(spec);
    transport.worker_args.insert(transport.worker_args.end(),
                                 options.rollout.worker_args.begin(),
                                 options.rollout.worker_args.end());
    collector = std::make_unique<dist::ProcessCollector>(std::move(transport));
  }
  std::optional<core::Agent> init;
  if (!spec.init_agent.empty()) {
    init.emplace(load_init_agent(spec.init_agent, store, spec.name));
  }
  const std::unique_ptr<core::Trainer> trainer =
      init ? std::make_unique<core::Trainer>(trace, cfg, *init)
           : std::make_unique<core::Trainer>(trace, cfg);
  // The series recorder and the transport are pure observers the trainer
  // consults per epoch. Workers load the learner's live agent from a
  // per-epoch checkpoint (exact-text model format, so the round-trip is
  // bit-exact).
  trainer->set_series(options.series);
  if (collector) {
    trainer->set_collector(collector.get());
    collector->set_save_model(
        [&agent = trainer->agent(), &spec](const std::string& path) {
          if (!agent.save(path, {{"spec_name", spec.name},
                                 {"rollout_checkpoint", "1"}})) {
            throw std::runtime_error(
                "rollout transport: cannot write model checkpoint " + path);
          }
        });
  }

  // Best-so-far tracking: the trainer evaluates the *greedy* policy on
  // held-out sequences, and at an improving evaluation epoch the live
  // agent IS the best checkpoint.
  double best_eval = std::numeric_limits<double>::infinity();
  const std::string ckpt = store.checkpoint_path(key);
  const std::vector<core::EpochStats> history =
      trainer->train([&](const core::EpochStats& s) {
        if (!std::isnan(s.eval_bsld) && s.eval_bsld < best_eval) {
          best_eval = s.eval_bsld;
          if (options.checkpoint) {
            trainer->agent().save(ckpt, {{"spec_name", spec.name},
                                         {"checkpoint", "1"},
                                         {"epoch", std::to_string(s.epoch)}});
          }
        }
        if (options.on_progress) options.on_progress(spec, s);
      });

  std::map<std::string, std::string> meta;
  meta["algorithm"] = cfg.algorithm;
  meta["workload"] = spec.workload.workload;
  meta["trace_jobs"] = std::to_string(spec.workload.trace_jobs);
  meta["base_policy"] = cfg.base_policy;
  meta["epochs"] = std::to_string(cfg.epochs);
  meta["trajectories_per_epoch"] = std::to_string(cfg.trajectories_per_epoch);
  meta["jobs_per_trajectory"] = std::to_string(cfg.jobs_per_trajectory);
  meta["seed"] = std::to_string(cfg.seed);
  if (!spec.init_agent.empty()) meta["init_agent"] = spec.init_agent;
  if (std::isfinite(best_eval)) {
    meta["best_eval_bsld"] = exp::format_double_exact(best_eval);
  }
  // Final-epoch stats and the per-epoch curves are persisted with the
  // entry, so a cache hit can reproduce everything a bench prints about
  // the training run without retraining.
  if (!history.empty()) {
    const core::EpochStats& last = history.back();
    meta["final_reward"] = exp::format_double_exact(last.mean_reward);
    meta["final_train_bsld"] = exp::format_double_exact(last.mean_bsld);
    meta["final_steps"] = std::to_string(last.steps);
    // One value per epoch ("nan" on non-evaluation epochs), so benches
    // can reprint convergence curves from a cache hit. reward/bsld ride
    // along so `rlbf_run curves --store` can render full training
    // curves without the series sidecar.
    const auto join_curve = [&history](double core::EpochStats::*field) {
      std::string curve;
      for (const core::EpochStats& s : history) {
        if (!curve.empty()) curve += ',';
        curve += std::isnan(s.*field) ? "nan" : exp::format_double_exact(s.*field);
      }
      return curve;
    };
    meta["eval_curve"] = join_curve(&core::EpochStats::eval_bsld);
    meta["reward_curve"] = join_curve(&core::EpochStats::mean_reward);
    meta["bsld_curve"] = join_curve(&core::EpochStats::mean_bsld);
  }

  outcome.entry = store.put(key, trainer->agent(), spec.name, meta, canonical);
  outcome.epochs_run = history.size();
  if (collector) outcome.rollout_jobs = collector->jobs();
  if (std::isfinite(best_eval)) outcome.best_eval_bsld = best_eval;
  std::error_code ec;
  std::filesystem::remove(ckpt, ec);  // superseded by the committed entry
  return outcome;
}

}  // namespace

TrainOutcome train_spec(const TrainingSpec& spec, Store& store,
                        const TrainOptions& options) {
  const std::string key = fingerprint(spec);
  if (!options.force) {
    if (auto entry = store.lookup(key)) {
      if (obs::enabled()) obs::counter("model.train_cache_hits").add(1);
      TrainOutcome outcome;
      outcome.entry = std::move(*entry);
      outcome.cache_hit = true;
      return outcome;
    }
  }
  const std::shared_ptr<const swf::Trace> trace =
      exp::build_trace_cached(spec.workload, spec.trainer.seed);
  return run_training(*trace, spec, key, canonical_string(spec), store, options);
}

TrainOutcome train_on_trace(const swf::Trace& trace, const TrainingSpec& spec,
                            Store& store, const TrainOptions& options) {
  if (options.rollout.workers > 0) {
    // A collect-rollouts worker reconstructs its trace from the spec's
    // workload fields; an explicit caller-built trace has no such recipe.
    throw std::invalid_argument(
        "train_on_trace: --rollout_workers is not supported with an "
        "explicit trace (workers rebuild the trace from the spec)");
  }
  // The spec's workload-construction fields describe nothing here — the
  // caller owns trace construction — so the content address hashes the
  // trainer protocol plus the trace itself.
  const std::string canonical = canonical_string(spec) + "trace_hash " +
                                trace_fingerprint(trace) + "\n";
  const std::string key = fnv1a_hex(canonical);
  if (!options.force) {
    if (auto entry = store.lookup(key)) {
      if (obs::enabled()) obs::counter("model.train_cache_hits").add(1);
      TrainOutcome outcome;
      outcome.entry = std::move(*entry);
      outcome.cache_hit = true;
      return outcome;
    }
  }
  return run_training(trace, spec, key, canonical, store, options);
}

std::vector<std::size_t> train_shard_indices(
    const std::vector<TrainingSpec>& specs, std::size_t shard_index,
    std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("train_specs: shard count must be >= 1");
  }
  if (shard_index >= shard_count) {
    throw std::invalid_argument(
        "train_specs: shard index " + std::to_string(shard_index) +
        " out of range for " + std::to_string(shard_count) + " shard(s)");
  }
  // Union specs connected through init_agent references (matched by spec
  // name within the list) so a warm-start consumer always shares its
  // source's shard. Plain find-root union: chains are short (a fine-tune
  // arm and its source), determinism is what matters.
  std::vector<std::size_t> root(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) root[i] = i;
  const auto find_root = [&](std::size_t i) {
    while (root[i] != i) i = root[i];
    return i;
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].init_agent.empty()) continue;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j != i && specs[j].name == specs[i].init_agent) {
        // Attach the later root under the earlier one, so a group's root
        // is always its first member in list order.
        const std::size_t a = find_root(i);
        const std::size_t b = find_root(j);
        if (a != b) root[std::max(a, b)] = std::min(a, b);
        break;
      }
    }
  }
  // Groups in order of first member; group k goes to shard k % count.
  std::vector<std::size_t> group_ordinal(specs.size(), 0);
  std::size_t groups = 0;
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t r = find_root(i);
    if (r == i) group_ordinal[i] = groups++;
    if (group_ordinal[r] % shard_count == shard_index) owned.push_back(i);
  }
  return owned;
}

std::vector<TrainOutcome> train_specs(const std::vector<TrainingSpec>& specs,
                                      Store& store, const TrainOptions& options,
                                      std::uint64_t master_seed) {
  // Pre-split every seed on the calling thread before any training runs,
  // mirroring exp::run_sweep's replication convention. Seeds cover the
  // FULL list even when sharded, so shard membership never changes what
  // any one spec trains with.
  std::vector<std::uint64_t> seeds(specs.size(), 0);
  if (master_seed != 0 && !specs.empty()) {
    util::Rng root(master_seed);
    seeds[0] = master_seed;
    for (std::size_t i = 1; i < specs.size(); ++i) seeds[i] = root.split()();
  }
  const std::vector<std::size_t> owned =
      train_shard_indices(specs, options.shard_index, options.shard_count);
  std::vector<TrainOutcome> outcomes;
  outcomes.reserve(owned.size());
  for (const std::size_t i : owned) {
    TrainingSpec spec = specs[i];
    if (master_seed != 0) spec.trainer.seed = seeds[i];
    obs::ScopedTimer timer("model.spec_seconds");
    outcomes.push_back(train_spec(spec, store, options));
    const double seconds = timer.stop();
    outcomes.back().spec_index = i;
    // Split the per-spec wall time by outcome so a bench can compare
    // train cost against cache-hit cost directly.
    if (obs::enabled()) {
      obs::histogram(outcomes.back().cache_hit ? "model.cache_hit_seconds"
                                               : "model.train_spec_seconds")
          .observe(seconds);
    }
  }
  return outcomes;
}

namespace {

std::mutex g_agent_cache_mutex;
std::unordered_map<std::string, std::shared_ptr<const core::Agent>> g_agent_cache;

}  // namespace

std::shared_ptr<const core::Agent> resolve_agent(const std::string& ref) {
  if (ref.empty()) {
    throw std::invalid_argument("resolve_agent: empty agent reference");
  }
  Store& store = default_store();
  const std::string cache_key = store.root() + "|" + ref;
  {
    std::lock_guard<std::mutex> lock(g_agent_cache_mutex);
    const auto it = g_agent_cache.find(cache_key);
    if (it != g_agent_cache.end()) return it->second;
  }

  std::shared_ptr<const core::Agent> agent;
  std::error_code ec;
  if (std::filesystem::is_regular_file(ref, ec)) {
    agent = std::make_shared<const core::Agent>(core::Agent::load(ref));
  } else if (TrainingRegistry::instance().contains(ref)) {
    const TrainingSpec& spec = find_training_spec(ref);
    const std::string key = fingerprint(spec);
    if (store.contains(key)) {
      agent = std::make_shared<const core::Agent>(store.load(key));
    } else {
      // The registered spec's exact fingerprint is absent — fall back to
      // a UNIQUE store entry trained under this spec name (e.g. with CLI
      // budget overrides, which change the content address). Ambiguity
      // is an error: "which model?" must never be guessed.
      std::vector<StoreEntry> named;
      for (const StoreEntry& entry : store.list()) {
        if (entry.name == ref) named.push_back(entry);
      }
      if (named.size() == 1) {
        util::log_info("agent '", ref, "': registered fingerprint ", key,
                       " absent; using the unique same-name store entry ",
                       named[0].key);
        agent = std::make_shared<const core::Agent>(
            core::Agent::load(named[0].path));
      } else if (named.size() > 1) {
        std::string keys;
        for (const auto& entry : named) {
          keys += (keys.empty() ? "" : ", ") + entry.key;
        }
        throw std::runtime_error(
            "agent reference '" + ref + "' is ambiguous: store '" +
            store.root() + "' holds " + std::to_string(named.size()) +
            " entries trained under that spec name (" + keys +
            ") — reference one key directly");
      } else {
        throw std::runtime_error(
            "agent for training spec '" + ref + "' (key " + key +
            ") is not in model store '" + store.root() +
            "' — train it first: rlbf_run train --spec=" + ref);
      }
    }
  } else if (store.contains(ref)) {
    agent = std::make_shared<const core::Agent>(store.load(ref));
  } else {
    std::string known;
    for (const auto& name : training_spec_names()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    throw std::runtime_error(
        "cannot resolve agent reference '" + ref +
        "': not a model file, a training-spec name (known: " + known +
        "), or a key in model store '" + store.root() + "'");
  }

  std::lock_guard<std::mutex> lock(g_agent_cache_mutex);
  auto [it, inserted] = g_agent_cache.emplace(cache_key, std::move(agent));
  (void)inserted;
  return it->second;
}

void clear_agent_cache() {
  std::lock_guard<std::mutex> lock(g_agent_cache_mutex);
  g_agent_cache.clear();
}

}  // namespace rlbf::model
