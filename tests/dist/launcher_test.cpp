// Launcher tests: template rendering and host-list validation fail
// loudly before anything runs, and both launchers really execute the
// command they were given.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "dist/launcher.h"

namespace rlbf::dist {
namespace {

TEST(RenderTemplateTest, SubstitutesEveryPlaceholder) {
  EXPECT_EQ(render_template("ssh {host} {command}",
                            {{"host", "a"}, {"command", "run"}}),
            "ssh a run");
  EXPECT_EQ(render_template("no placeholders", {}), "no placeholders");
  EXPECT_EQ(render_template("{x}{x}", {{"x", "y"}}), "yy");
}

TEST(RenderTemplateTest, UnknownPlaceholderIsANamedError) {
  try {
    render_template("ssh {host} {command}", {{"command", "c"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown placeholder '{host}'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("{command}"), std::string::npos) << what;  // known list
  }
}

TEST(RenderTemplateTest, UnterminatedPlaceholderIsANamedError) {
  EXPECT_THROW(render_template("ssh {host", {{"host", "a"}}),
               std::invalid_argument);
}

TEST(RenderTemplateTest, DoubleBraceIsALiteralBrace) {
  EXPECT_EQ(render_template("cd ${{WORK}} && {c}", {{"c", "run"}}),
            "cd ${WORK} && run");
  EXPECT_EQ(render_template("awk '{{print $1}}'", {}), "awk '{print $1}'");
}

TEST(CommandLauncherTest, QcommandSurvivesARemoteShellReEvaluation) {
  // `sh -c "$*"` stands in for ssh: it joins its arguments and
  // re-evaluates the result in a second shell. With {qcommand} the
  // worker argv survives intact, metacharacters included.
  CommandLauncher launcher("sh -c 'eval \"$*\"' remote {qcommand}", {"h0"});
  JobSpec job;
  job.id = 0;
  job.name = "j";
  job.argv = {"/bin/sh", "-c", "printf %s \"$1\"", "w", "a;b c"};
  const LaunchResult result = launcher.launch(job);
  EXPECT_TRUE(result.process.ok()) << result.process.status() << " "
                                   << result.process.stderr_text;
  EXPECT_EQ(result.process.stdout_text, "a;b c");
}

TEST(ParseHostsTest, SplitsAndValidates) {
  EXPECT_EQ(parse_hosts("a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(parse_hosts("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_THROW(parse_hosts(""), std::invalid_argument);
  EXPECT_THROW(parse_hosts("a,,b"), std::invalid_argument);
  EXPECT_THROW(parse_hosts("a,"), std::invalid_argument);
}

TEST(CommandLauncherTest, RejectsMalformedConstruction) {
  // No {command}: the worker command would be silently dropped.
  EXPECT_THROW(CommandLauncher("ssh {host}", {"a"}), std::invalid_argument);
  // Typo'd placeholder caught at construction, not at job 7.
  EXPECT_THROW(CommandLauncher("ssh {hots} {command}", {"a"}),
               std::invalid_argument);
  EXPECT_THROW(CommandLauncher("{command}", {}), std::invalid_argument);
  EXPECT_THROW(CommandLauncher("{command}", {"a", ""}), std::invalid_argument);
  EXPECT_THROW(CommandLauncher("{command}", {"a"}, "cp {remot} {local}"),
               std::invalid_argument);
}

TEST(CommandLauncherTest, AssignsHostsRoundRobin) {
  CommandLauncher launcher("{command}", {"a", "b"});
  JobSpec job;
  job.id = 0;
  EXPECT_EQ(launcher.host_for(job), "a");
  job.id = 1;
  EXPECT_EQ(launcher.host_for(job), "b");
  job.id = 2;
  EXPECT_EQ(launcher.host_for(job), "a");
}

TEST(CommandLauncherTest, RetryAdvancesToTheNextHost) {
  // (id + attempt - 1) % hosts: attempt 1 is the plain round-robin
  // assignment, every retry moves one host further — never back onto
  // the host that just failed (unless there is only one).
  CommandLauncher launcher("{command}", {"a", "b", "c"});
  JobSpec job;
  job.id = 1;
  EXPECT_EQ(launcher.host_for(job), "b");  // attempt defaults to 1
  job.attempt = 2;
  EXPECT_EQ(launcher.host_for(job), "c");
  job.attempt = 3;
  EXPECT_EQ(launcher.host_for(job), "a");
  job.attempt = 4;
  EXPECT_EQ(launcher.host_for(job), "b");  // wraps back around

  CommandLauncher single("{command}", {"only"});
  job.attempt = 1;
  EXPECT_EQ(single.host_for(job), "only");
  job.attempt = 2;
  EXPECT_EQ(single.host_for(job), "only");  // nowhere else to go
}

TEST(CommandLauncherTest, RendersAndRunsTheTemplate) {
  CommandLauncher launcher("echo host={host} job={job}; {command}", {"h0"});
  JobSpec job;
  job.id = 0;
  job.name = "sweep-shard0/1";
  job.argv = {"/bin/sh", "-c", "echo from-worker"};
  const LaunchResult result = launcher.launch(job);
  EXPECT_TRUE(result.process.ok()) << result.process.status();
  EXPECT_EQ(result.process.stdout_text,
            "host=h0 job=sweep-shard0/1\nfrom-worker\n");
  // The logged command is the rendered line, not the raw template.
  EXPECT_EQ(result.command.find("{host}"), std::string::npos) << result.command;
  EXPECT_NE(result.command.find("host=h0"), std::string::npos) << result.command;
}

TEST(CommandLauncherTest, EmptyFetchTemplateIsANoOp) {
  CommandLauncher launcher("{command}", {"a"});
  JobSpec job;
  const LaunchResult fetched = launcher.fetch(job);
  EXPECT_TRUE(fetched.process.ok());
}

TEST(CommandLauncherTest, FetchTemplateRuns) {
  CommandLauncher launcher("{command}", {"h0"},
                           "echo fetch {host} {remote} {local}");
  JobSpec job;
  job.id = 0;
  job.output_dir = "out0";
  const LaunchResult fetched = launcher.fetch(job);
  EXPECT_TRUE(fetched.process.ok()) << fetched.process.status();
  EXPECT_EQ(fetched.process.stdout_text, "fetch h0 out0 out0\n");
}

TEST(LocalLauncherTest, RunsTheArgvDirectly) {
  LocalLauncher launcher;
  JobSpec job;
  job.argv = {"/bin/sh", "-c", "echo local; exit 5"};
  const LaunchResult result = launcher.launch(job);
  EXPECT_EQ(result.process.exit_code, 5);
  EXPECT_EQ(result.process.stdout_text, "local\n");
  // The default fetch is a successful no-op (outputs are already local).
  EXPECT_TRUE(launcher.fetch(job).process.ok());
}

TEST(TransportTest, PairingRuleNamesTheMissingFlag) {
  Transport transport;
  EXPECT_EQ(transport.pairing_error(), "");  // local: neither given
  transport.hosts = "h0";
  transport.command_template = "ssh {host} {qcommand}";
  EXPECT_EQ(transport.pairing_error(), "");
  // A template with nothing to render {host} over.
  transport.hosts.clear();
  EXPECT_NE(transport.pairing_error().find("--command_template needs --hosts"),
            std::string::npos)
      << transport.pairing_error();
  // Hosts without a template: nothing would use them — rejected rather
  // than silently running locally.
  transport.hosts = "h0";
  transport.command_template.clear();
  EXPECT_NE(transport.pairing_error().find("--hosts needs --command_template"),
            std::string::npos)
      << transport.pairing_error();
}

TEST(TransportTest, MakeLauncherValidatesBeforeAnythingRuns) {
  Transport transport;
  transport.timeout_seconds = 5.0;
  EXPECT_NE(dynamic_cast<LocalLauncher*>(transport.make_launcher().get()),
            nullptr);

  transport.hosts = "h0";
  EXPECT_THROW(transport.make_launcher(), std::invalid_argument);  // unpaired
  transport.hosts.clear();
  transport.command_template = "ssh {host} {qcommand}";
  EXPECT_THROW(transport.make_launcher(), std::invalid_argument);  // unpaired

  transport.hosts = "h0,h1";
  const std::unique_ptr<Launcher> remote = transport.make_launcher();
  const auto* command = dynamic_cast<CommandLauncher*>(remote.get());
  ASSERT_NE(command, nullptr);
  JobSpec job;
  job.id = 1;
  EXPECT_EQ(command->host_for(job), "h1");  // the parsed list, in order

  // The host list and the template are validated by the launcher built.
  transport.hosts = "h0,,h1";
  EXPECT_THROW(transport.make_launcher(), std::invalid_argument);
  transport.hosts = "h0";
  transport.command_template = "ssh {host}";  // no {command}
  EXPECT_THROW(transport.make_launcher(), std::invalid_argument);
  transport.command_template = "ssh {host} {command}";
  transport.fetch_template = "scp {hots}:{remote} {local}";
  EXPECT_THROW(transport.make_launcher(), std::invalid_argument);
}

}  // namespace
}  // namespace rlbf::dist
