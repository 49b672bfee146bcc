// Launchers: how a planned job becomes a running process.
//
// The orchestrator drives every transport through one blocking
// interface, so retries, failure logs, and collection never care where
// a job ran:
//
//   LocalLauncher    — fork/exec of the worker argv on this machine
//                      (util::run_subprocess); outputs land directly in
//                      the job's output_dir, fetch is a no-op.
//   CommandLauncher  — renders a user command template over a host
//                      list ("ssh {host} {command}", "sbatch ...",
//                      any batch submit wrapper) and runs it through
//                      /bin/sh, so real multi-host runs reuse the same
//                      driver; an optional fetch template ("scp -r
//                      {host}:{remote} {local}") copies outputs back.
//
// Transport is the one description of that choice both fan-outs share
// (`orchestrate` and `train --workers`): the CLI binds its flags
// straight into one, and make_launcher() turns it into the launcher.
//
// Malformed inputs — hosts without a template or a template without
// hosts, an empty or gappy --hosts list, a template without the
// {command} placeholder, an unknown {placeholder} — are named
// std::invalid_argument errors at construction, before anything runs.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/job.h"
#include "util/subprocess.h"

namespace rlbf::dist {

struct LaunchResult {
  util::SubprocessResult process;
  /// The exact command that ran, for logs and failure reports.
  std::string command;
};

class Launcher {
 public:
  virtual ~Launcher() = default;

  /// Run the job to completion (blocking; the orchestrator provides
  /// concurrency by launching from several pool workers).
  virtual LaunchResult launch(const JobSpec& job) = 0;

  /// Bring the job's output_dir onto the local filesystem. The default
  /// is a successful no-op (outputs are already local or on a shared
  /// filesystem).
  virtual LaunchResult fetch(const JobSpec& job);
};

class LocalLauncher : public Launcher {
 public:
  /// `timeout_seconds` caps each attempt's wall clock (0 = no limit).
  explicit LocalLauncher(double timeout_seconds = 0.0);

  LaunchResult launch(const JobSpec& job) override;

 private:
  double timeout_seconds_;
};

/// Substitute "{name}" placeholders from `vars`; "{{" is a literal '{'
/// so templates can carry shell/awk brace syntax. Throws
/// std::invalid_argument naming any unknown or unterminated placeholder
/// (and listing the known names), so a typo'd template fails before any
/// job runs rather than shipping "{host}" to a shell.
std::string render_template(const std::string& tmpl,
                            const std::map<std::string, std::string>& vars);

/// Split a comma-separated --hosts list. Throws std::invalid_argument
/// on an empty list or an empty element ("a,,b").
std::vector<std::string> parse_hosts(const std::string& text);

class CommandLauncher : public Launcher {
 public:
  /// `command_template` placeholders: {command} (the shell-quoted worker
  /// command line) or {qcommand} (that line quoted once more, for
  /// transports like ssh that join their arguments and re-evaluate them
  /// in a remote shell — use `ssh {host} {qcommand}`); one of the two is
  /// required. Also {host} (the job's host, round-robin over `hosts`),
  /// {job} (the job name), {id}, {out} (the job's output directory,
  /// shell-quoted). `fetch_template` placeholders: {host}, {remote},
  /// {local} (both the output directory, shell-quoted), {job}, {id};
  /// empty = fetch is a no-op (shared filesystem). Both templates are
  /// validated at construction.
  CommandLauncher(std::string command_template, std::vector<std::string> hosts,
                  std::string fetch_template = "",
                  double timeout_seconds = 0.0);

  LaunchResult launch(const JobSpec& job) override;
  LaunchResult fetch(const JobSpec& job) override;

  /// Round-robin host assignment with retry rotation:
  /// (id + attempt - 1) % hosts — attempt 1 is plain round-robin by id,
  /// and every retry moves to the next host in the list, away from the
  /// one that just failed.
  const std::string& host_for(const JobSpec& job) const;

 private:
  std::string command_template_;
  std::vector<std::string> hosts_;
  std::string fetch_template_;
  double timeout_seconds_;
};

/// Where fan-out jobs run: local fork/exec when `command_template` is
/// empty, else the template rendered over `hosts` (CommandLauncher).
struct Transport {
  /// Comma-separated host list, as given to --hosts (parse_hosts).
  std::string hosts;
  std::string command_template;
  /// Copies a finished job's output_dir back; empty = shared filesystem.
  std::string fetch_template;
  /// Per-attempt wall-clock cap in seconds (0 = no limit).
  double timeout_seconds = 0.0;

  bool remote() const { return !command_template.empty(); }

  /// The pairing rule: a template needs hosts to render over, and hosts
  /// need a template to reach them (running locally would silently drop
  /// an explicit request to distribute). "" when it holds, else the
  /// violation, named by the CLI flags.
  std::string pairing_error() const;

  /// The launcher this transport selects. Throws std::invalid_argument
  /// on a pairing_error(), a malformed host list, or a malformed
  /// template.
  std::unique_ptr<Launcher> make_launcher() const;
};

}  // namespace rlbf::dist
