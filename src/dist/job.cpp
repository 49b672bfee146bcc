#include "dist/job.h"

#include <stdexcept>

#include "util/subprocess.h"

namespace rlbf::dist {

namespace {

void validate(const PlanOptions& options, const char* fn) {
  if (options.worker.empty()) {
    throw std::invalid_argument(std::string(fn) + ": empty worker binary path");
  }
  if (options.work_dir.empty()) {
    throw std::invalid_argument(std::string(fn) + ": empty work directory");
  }
  if (options.workers == 0) {
    throw std::invalid_argument(std::string(fn) +
                                ": worker count must be >= 1");
  }
}

std::string shard_flag(std::size_t i, std::size_t n) {
  return "--shard=" + std::to_string(i) + "/" + std::to_string(n);
}

}  // namespace

void add_sidecars(JobSpec& job, const Sidecars& sidecars,
                  const std::string& work_dir) {
  // Files at the work_dir root named by job id, so they never land
  // inside the output_dir a collector merges.
  const std::string stem = work_dir + "/worker" + std::to_string(job.id);
  if (sidecars.metrics) {
    job.metrics_path = stem + ".metrics.json";
    job.argv.push_back("--metrics_out=" + job.metrics_path);
  }
  if (sidecars.trace) {
    job.trace_path = stem + ".trace.json";
    job.argv.push_back("--trace_out=" + job.trace_path);
  }
  if (sidecars.series) {
    job.series_path = stem + ".series.jsonl";
    job.argv.push_back("--series_out=" + job.series_path);
  }
}

std::string JobSpec::command_line() const {
  std::string line;
  for (const std::string& arg : argv) {
    if (!line.empty()) line += ' ';
    line += util::shell_quote(arg);
  }
  return line;
}

std::vector<JobSpec> plan_sweep_jobs(const PlanOptions& options) {
  validate(options, "plan_sweep_jobs");
  std::vector<JobSpec> jobs;
  jobs.reserve(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    JobSpec job;
    job.id = i;
    job.name = "sweep-shard" + std::to_string(i) + "/" +
               std::to_string(options.workers);
    job.output_dir = options.work_dir + "/shard" + std::to_string(i);
    job.argv.push_back(options.worker);
    job.argv.push_back("sweep");
    job.argv.insert(job.argv.end(), options.args.begin(), options.args.end());
    job.argv.push_back(shard_flag(i, options.workers));
    job.argv.push_back("--out_dir=" + job.output_dir);
    add_sidecars(job, options.sidecars, options.work_dir);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<JobSpec> plan_train_jobs(const PlanOptions& options) {
  validate(options, "plan_train_jobs");
  std::vector<JobSpec> jobs;
  jobs.reserve(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    const std::string worker_dir =
        options.work_dir + "/worker" + std::to_string(i);
    JobSpec job;
    job.id = i;
    job.name = "train-shard" + std::to_string(i) + "/" +
               std::to_string(options.workers);
    job.output_dir = worker_dir + "/bundle";
    job.argv.push_back(options.worker);
    job.argv.push_back("train");
    job.argv.insert(job.argv.end(), options.args.begin(), options.args.end());
    job.argv.push_back(shard_flag(i, options.workers));
    job.argv.push_back("--store=" + worker_dir + "/store");
    job.argv.push_back("--export_bundle=" + job.output_dir);
    add_sidecars(job, options.sidecars, options.work_dir);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace rlbf::dist
