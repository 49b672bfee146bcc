#include "dist/rollout.h"

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "exp/config.h"
#include "model/training_spec.h"
#include "rl/wire.h"

namespace rlbf::dist {

std::string format_seed_list(const std::vector<std::uint64_t>& seeds) {
  std::string out;
  for (const std::uint64_t s : seeds) {
    if (!out.empty()) out += ',';
    out += std::to_string(s);
  }
  return out;
}

std::vector<std::uint64_t> parse_seed_list(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  if (text.empty()) return seeds;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(start, end - start);
    std::uint64_t value = 0;
    if (!exp::parse_uint64(item, &value)) {
      throw std::invalid_argument("--seeds: bad seed '" + item +
                                  "' (expected a comma-separated uint64 list)");
    }
    seeds.push_back(value);
    start = end + 1;
  }
  return seeds;
}

std::string rollout_request_fingerprint(
    const std::vector<std::string>& worker_args, std::size_t epoch,
    std::size_t worker_index, const std::vector<std::uint64_t>& seeds) {
  // Canonical request text: every field newline-framed so no two
  // distinct requests can render identically.
  std::string canonical = "rollout-request v1\n";
  for (const std::string& arg : worker_args) canonical += "arg " + arg + "\n";
  canonical += "epoch " + std::to_string(epoch) + "\n";
  canonical += "worker " + std::to_string(worker_index) + "\n";
  canonical += "seeds " + format_seed_list(seeds) + "\n";
  return model::fnv1a_hex(canonical);
}

ProcessCollector::ProcessCollector(RolloutTransportOptions options)
    : options_(std::move(options)) {
  if (options_.worker.empty()) {
    throw std::invalid_argument("rollout transport: empty worker binary");
  }
  if (options_.work_dir.empty()) {
    throw std::invalid_argument("rollout transport: empty work_dir");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("rollout transport: workers must be >= 1");
  }
  launcher_ = options_.transport.make_launcher();
}

std::vector<rl::SequenceResult> ProcessCollector::collect(
    const rl::CollectionPlan& plan, const rl::SequenceFn& fn) {
  (void)fn;  // workers produce sequences themselves; slots() is 0
  const std::size_t n = plan.seeds.size();
  std::vector<rl::SequenceResult> results(n);
  if (n == 0) return results;
  if (!save_model_) {
    throw std::logic_error(
        "rollout transport: set_save_model not installed before collect()");
  }

  std::filesystem::create_directories(options_.work_dir);
  const std::size_t epoch = plan.epoch;
  const std::string model_path =
      options_.work_dir + "/epoch" + std::to_string(epoch) + ".model";
  save_model_(model_path);

  // Round-robin by sequence index: worker w owns {i : i % W == w}. The
  // assignment is part of the determinism contract (ISSUE: store keys
  // identical across --rollout_workers=0/1/N), not a scheduling choice.
  const std::size_t n_workers = std::min(options_.workers, n);
  std::vector<std::vector<std::uint64_t>> worker_seeds(n_workers);
  for (std::size_t i = 0; i < n; ++i) {
    worker_seeds[i % n_workers].push_back(plan.seeds[i]);
  }

  std::vector<JobSpec> epoch_jobs;
  std::vector<std::string> fingerprints;
  epoch_jobs.reserve(n_workers);
  fingerprints.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    JobSpec job;
    // Ids unique across epochs (epoch is 1-based in plans) so fleet-obs
    // labels never collide and --inject_fail=0:1 hits epoch 1 worker 0.
    job.id = (epoch >= 1 ? epoch - 1 : 0) * n_workers + w;
    job.name = "rollout-e" + std::to_string(epoch) + "-w" + std::to_string(w) +
               "/" + std::to_string(n_workers);
    job.output_dir = options_.work_dir + "/e" + std::to_string(epoch) + ".w" +
                     std::to_string(w);
    const std::string out_path = job.output_dir + "/rollouts.bin";
    const std::string fingerprint = rollout_request_fingerprint(
        options_.worker_args, epoch, w, worker_seeds[w]);
    fingerprints.push_back(fingerprint);

    job.argv = {options_.worker, "collect-rollouts"};
    job.argv.insert(job.argv.end(), options_.worker_args.begin(),
                    options_.worker_args.end());
    job.argv.push_back("--seeds=" + format_seed_list(worker_seeds[w]));
    job.argv.push_back("--model=" + model_path);
    job.argv.push_back("--epoch=" + std::to_string(epoch));
    job.argv.push_back("--out=" + out_path);
    job.argv.push_back("--fingerprint=" + fingerprint);
    if (std::isfinite(plan.epsilon)) {
      job.argv.push_back("--epsilon=" + exp::format_double_exact(plan.epsilon));
    }
    add_sidecars(job, options_.sidecars, options_.work_dir);
    epoch_jobs.push_back(std::move(job));
  }

  OrchestratorOptions run_options = options_.supervisor;
  run_options.max_parallel = n_workers;
  const OrchestrationReport report =
      run_jobs(epoch_jobs, *launcher_, run_options);
  jobs_.insert(jobs_.end(), epoch_jobs.begin(), epoch_jobs.end());
  if (!report.all_ok) {
    throw std::runtime_error("rollout collection failed (epoch " +
                             std::to_string(epoch) + "):\n" +
                             report.failure_summary());
  }

  for (std::size_t w = 0; w < n_workers; ++w) {
    const std::string out_path = epoch_jobs[w].output_dir + "/rollouts.bin";
    std::vector<rl::SequenceResult> worker_results =
        rl::load_rollouts(out_path, fingerprints[w]);
    if (worker_results.size() != worker_seeds[w].size()) {
      throw rl::WireError(
          "rollout wire: worker " + std::to_string(w) + " returned " +
          std::to_string(worker_results.size()) + " sequence(s), expected " +
          std::to_string(worker_seeds[w].size()) + " [" + out_path + "]");
    }
    // Inverse of the round-robin split: sequence i is the (i/W)-th
    // result of worker i%W.
    for (std::size_t k = 0; k < worker_results.size(); ++k) {
      results[k * n_workers + w] = std::move(worker_results[k]);
    }
  }
  return results;
}

}  // namespace rlbf::dist
