#include "dist/launcher.h"

#include <stdexcept>

namespace rlbf::dist {

LaunchResult Launcher::fetch(const JobSpec& job) {
  (void)job;
  LaunchResult result;
  result.process.exit_code = 0;
  result.command = "(no fetch needed)";
  return result;
}

LocalLauncher::LocalLauncher(double timeout_seconds)
    : timeout_seconds_(timeout_seconds) {}

LaunchResult LocalLauncher::launch(const JobSpec& job) {
  util::SubprocessOptions options;
  options.timeout_seconds = timeout_seconds_;
  LaunchResult result;
  result.command = job.command_line();
  result.process = util::run_subprocess(job.argv, options);
  return result;
}

std::string render_template(const std::string& tmpl,
                            const std::map<std::string, std::string>& vars) {
  std::string rendered;
  rendered.reserve(tmpl.size());
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    if (tmpl[i] != '{') {
      // "}}" collapses to '}' (the closing half of the "{{...}}" escape);
      // a lone '}' stays literal.
      if (tmpl[i] == '}' && i + 1 < tmpl.size() && tmpl[i + 1] == '}') ++i;
      rendered += tmpl[i];
      continue;
    }
    // "{{" is a literal '{', so templates can carry shell/awk brace
    // syntax ("cd ${{WORK}} && {command}").
    if (i + 1 < tmpl.size() && tmpl[i + 1] == '{') {
      rendered += '{';
      ++i;
      continue;
    }
    const std::size_t close = tmpl.find('}', i);
    if (close == std::string::npos) {
      throw std::invalid_argument("command template: unterminated '{' in \"" +
                                  tmpl + "\"");
    }
    const std::string name = tmpl.substr(i + 1, close - i - 1);
    const auto it = vars.find(name);
    if (it == vars.end()) {
      std::string known;
      for (const auto& [key, value] : vars) {
        known += (known.empty() ? "" : ", ") + ("{" + key + "}");
      }
      throw std::invalid_argument("command template: unknown placeholder '{" +
                                  name + "}' in \"" + tmpl + "\" (known: " +
                                  known + ")");
    }
    rendered += it->second;
    i = close;
  }
  return rendered;
}

std::vector<std::string> parse_hosts(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("--hosts: empty host list");
  }
  std::vector<std::string> hosts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string host = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (host.empty()) {
      throw std::invalid_argument("--hosts: empty host name in '" + text + "'");
    }
    hosts.push_back(host);
  }
  return hosts;
}

CommandLauncher::CommandLauncher(std::string command_template,
                                 std::vector<std::string> hosts,
                                 std::string fetch_template,
                                 double timeout_seconds)
    : command_template_(std::move(command_template)),
      hosts_(std::move(hosts)),
      fetch_template_(std::move(fetch_template)),
      timeout_seconds_(timeout_seconds) {
  if (hosts_.empty()) {
    throw std::invalid_argument("CommandLauncher: empty host list");
  }
  for (const std::string& host : hosts_) {
    if (host.empty()) {
      throw std::invalid_argument("CommandLauncher: empty host name");
    }
  }
  if (command_template_.find("{command}") == std::string::npos &&
      command_template_.find("{qcommand}") == std::string::npos) {
    throw std::invalid_argument(
        "CommandLauncher: command template \"" + command_template_ +
        "\" has no {command} (or {qcommand}) placeholder — the worker "
        "command would be lost");
  }
  // Fail on typo'd placeholders now, not at job 7 of a long run.
  const std::map<std::string, std::string> probe = {{"command", ""},
                                                    {"qcommand", ""},
                                                    {"host", ""},
                                                    {"job", ""},
                                                    {"id", ""},
                                                    {"out", ""}};
  render_template(command_template_, probe);
  if (!fetch_template_.empty()) {
    render_template(fetch_template_, {{"host", ""},
                                      {"remote", ""},
                                      {"local", ""},
                                      {"job", ""},
                                      {"id", ""}});
  }
}

const std::string& CommandLauncher::host_for(const JobSpec& job) const {
  // Attempt 1 is plain round-robin by id; each retry advances one host,
  // so a job never reruns on the host that just failed it (unless the
  // list has a single host, where there is nowhere else to go).
  return hosts_[(job.id + job.attempt - 1) % hosts_.size()];
}

LaunchResult CommandLauncher::launch(const JobSpec& job) {
  // {qcommand}: the whole worker line quoted ONCE MORE, for transports
  // that join their arguments and re-evaluate them in a remote shell
  // (ssh does) — with plain {command} the local sh strips the quoting
  // and a ';' inside a --sweep value would split the remote command.
  const std::string command = render_template(
      command_template_, {{"command", job.command_line()},
                          {"qcommand", util::shell_quote(job.command_line())},
                          {"host", host_for(job)},
                          {"job", job.name},
                          {"id", std::to_string(job.id)},
                          // Quoted: a path with a space must stay one word.
                          {"out", util::shell_quote(job.output_dir)}});
  util::SubprocessOptions options;
  options.timeout_seconds = timeout_seconds_;
  LaunchResult result;
  result.command = command;
  result.process = util::run_subprocess({"/bin/sh", "-c", command}, options);
  return result;
}

LaunchResult CommandLauncher::fetch(const JobSpec& job) {
  if (fetch_template_.empty()) return Launcher::fetch(job);
  const std::string command = render_template(
      fetch_template_, {{"host", host_for(job)},
                        // Quoted: paths must survive the shell as one word.
                        {"remote", util::shell_quote(job.output_dir)},
                        {"local", util::shell_quote(job.output_dir)},
                        {"job", job.name},
                        {"id", std::to_string(job.id)}});
  util::SubprocessOptions options;
  options.timeout_seconds = timeout_seconds_;
  LaunchResult result;
  result.command = command;
  result.process = util::run_subprocess({"/bin/sh", "-c", command}, options);
  return result;
}

std::string Transport::pairing_error() const {
  if (!command_template.empty() && hosts.empty()) {
    return "--command_template needs --hosts";
  }
  if (!hosts.empty() && command_template.empty()) {
    return "--hosts needs --command_template (e.g. \"ssh {host} {command}\")";
  }
  return "";
}

std::unique_ptr<Launcher> Transport::make_launcher() const {
  if (const std::string error = pairing_error(); !error.empty()) {
    throw std::invalid_argument(error);
  }
  if (!remote()) return std::make_unique<LocalLauncher>(timeout_seconds);
  return std::make_unique<CommandLauncher>(
      command_template, parse_hosts(hosts), fetch_template, timeout_seconds);
}

}  // namespace rlbf::dist
