// End-to-end tests driving the BUILT binaries (forklift-run and the
// minishell example) through the library's own capture API — the full
// dogfooding loop: forklift spawns forklift spawning children.
//
// Binary locations are injected by CMake as FORKLIFT_RUN_BIN / MINISHELL_BIN.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/spawn/command.h"

namespace forklift {
namespace {

#ifndef FORKLIFT_RUN_BIN
#error "FORKLIFT_RUN_BIN must be defined by the build"
#endif
#ifndef MINISHELL_BIN
#error "MINISHELL_BIN must be defined by the build"
#endif

constexpr const char* kRun = FORKLIFT_RUN_BIN;
constexpr const char* kShell = MINISHELL_BIN;

TEST(ForkliftRunTest, RunsProgramAndForwardsExit) {
  auto r = RunAndCapture(kRun, {"--", "/bin/sh", "-c", "exit 9"});
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  EXPECT_EQ(r->status.exit_code, 9);
}

TEST(ForkliftRunTest, SetsEnvironment) {
  auto r = RunAndCapture(kRun, {"--env", "GREETING=hi", "--", "/bin/sh", "-c",
                                "printf '%s' \"$GREETING\""});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stdout_data, "hi");
}

TEST(ForkliftRunTest, ClearEnvLeavesNothing) {
  ASSERT_EQ(setenv("FORKLIFT_CLI_LEAK", "x", 1), 0);
  auto r = RunAndCapture(
      kRun, {"--clear-env", "--", "/bin/sh", "-c", "printf '%s' \"${FORKLIFT_CLI_LEAK:-none}\""});
  unsetenv("FORKLIFT_CLI_LEAK");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stdout_data, "none");
}

TEST(ForkliftRunTest, StripSecretsDropsCredentials) {
  ASSERT_EQ(setenv("FORKLIFT_CLI_TOKEN", "sssh", 1), 0);
  auto r = RunAndCapture(kRun, {"--strip-secrets", "--", "/bin/sh", "-c",
                                "printf '%s' \"${FORKLIFT_CLI_TOKEN:-stripped}\""});
  unsetenv("FORKLIFT_CLI_TOKEN");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stdout_data, "stripped");
}

TEST(ForkliftRunTest, RedirectsStdout) {
  std::string path = ::testing::TempDir() + "forklift_cli_out";
  auto r = RunAndCapture(kRun, {"--stdout", path, "--", "echo", "redirected"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->status.Success());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "redirected");
  std::remove(path.c_str());
}

TEST(ForkliftRunTest, CwdOption) {
  auto r = RunAndCapture(kRun, {"--cwd", "/tmp", "--", "pwd"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stdout_data, "/tmp\n");
}

TEST(ForkliftRunTest, TimeoutReturns124) {
  auto r = RunAndCapture(kRun, {"--timeout", "0.2", "--", "sleep", "10"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 124);
}

TEST(ForkliftRunTest, MissingProgramReturns127) {
  auto r = RunAndCapture(kRun, {"--", "/no/such/tool"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 127);
}

TEST(ForkliftRunTest, SignalForwardedAs128Plus) {
  auto r = RunAndCapture(kRun, {"--", "/bin/sh", "-c", "kill -TERM $$"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 128 + 15);
}

TEST(ForkliftRunTest, RlimitViaForkBackend) {
  auto r = RunAndCapture(kRun, {"--backend", "fork", "--rlimit-nofile", "64", "--", "/bin/sh",
                                "-c", "ulimit -n"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stdout_data, "64\n");
}

TEST(ForkliftRunTest, RlimitRejectedOnSpawnBackend) {
  auto r = RunAndCapture(kRun, {"--backend", "spawn", "--rlimit-nofile", "64", "--", "/bin/true"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 126);  // launcher error, not exec'd
}

TEST(ForkliftRunTest, BadUsageReturns125) {
  auto r = RunAndCapture(kRun, {"--no-such-flag", "--", "/bin/true"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 125);

  auto r2 = RunAndCapture(kRun, {"--env"});  // missing value and no program
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->status.exit_code, 125);

  // Numeric flags reject anything but a complete, plain value. Each of these
  // used to parse to 0 (or wrap) and launch anyway: `--umask abc` ran the
  // child under umask 0, `--rlimit-nofile abc` capped it at 0 descriptors.
  const std::vector<std::vector<std::string>> bad_values = {
      {"--umask", "abc"},        {"--umask", ""},          {"--umask", "1000"},
      {"--umask", "8"},          {"--umask", "022x"},      {"--umask", "-1"},
      {"--rlimit-nofile", "abc"}, {"--rlimit-nofile", ""}, {"--rlimit-nofile", "-1"},
      {"--rlimit-nofile", "64k"}, {"--timeout", "abc"},    {"--timeout", ""},
      {"--timeout", "-1"},       {"--timeout", "inf"},     {"--timeout", "nan"},
      {"--timeout", "1s"},       {"--shards", "-1"},       {"--shards", ""},
      {"--shards", "2x"},
  };
  for (const auto& flag : bad_values) {
    std::vector<std::string> args = {"--backend", "forkexec", flag[0], flag[1],
                                     "--",        "/bin/sh",  "-c",    "umask; ulimit -n"};
    auto r3 = RunAndCapture(kRun, args);
    ASSERT_TRUE(r3.ok());
    EXPECT_EQ(r3->status.exit_code, 125) << flag[0] << " '" << flag[1] << "' ran: "
                                         << r3->stdout_data;
  }
}

TEST(ForkliftRunTest, AuditPrintsReport) {
  auto r = RunAndCapture(kRun, {"--audit", "--", "/bin/true"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->status.Success());
  EXPECT_NE(r->stderr_data.find("fork-hazard audit"), std::string::npos);
}

// --- minishell driven as a real interactive-ish process ---------------------

RunResult RunShellScript(const std::string& script) {
  RunOptions opts;
  opts.stdin_data = script;
  auto r = RunAndCapture(kShell, {}, opts);
  EXPECT_TRUE(r.ok());
  return r.ok() ? *r : RunResult{};
}

TEST(MinishellTest, RunsSimpleCommand) {
  auto r = RunShellScript("echo hello-shell\n");
  EXPECT_EQ(r.stdout_data, "hello-shell\n");
  EXPECT_TRUE(r.status.Success());
}

TEST(MinishellTest, PipelineWorks) {
  // Single quotes protect the \n escapes from the shell's own backslash
  // handling; printf turns them into newlines.
  auto r = RunShellScript("printf 'b\\na\\nc\\n' | sort | head -n 1\n");
  EXPECT_EQ(r.stdout_data, "a\n");
}

TEST(MinishellTest, RedirectionsWork) {
  std::string path = ::testing::TempDir() + "forklift_minishell_out";
  std::remove(path.c_str());
  auto r = RunShellScript("echo first > " + path + "\necho second >> " + path + "\ncat < " +
                          path + "\n");
  EXPECT_EQ(r.stdout_data, "first\nsecond\n");
  std::remove(path.c_str());
}

TEST(MinishellTest, EnvAssignmentPerCommand) {
  // No quoting in minishell, so probe the variable with env|grep instead of
  // a shell snippet needing quoted spaces.
  auto r = RunShellScript("FORKLIFT_MS_PROBE=v env | grep -c ^FORKLIFT_MS_PROBE=v\n");
  EXPECT_EQ(r.stdout_data, "1\n");
}

TEST(MinishellTest, CdBuiltinAffectsLaterCommands) {
  auto r = RunShellScript("cd /tmp\npwd\n");
  EXPECT_EQ(r.stdout_data, "/tmp\n");
}

TEST(MinishellTest, ExitCodeBuiltin) {
  auto r = RunShellScript("exit 4\n");
  EXPECT_EQ(r.status.exit_code, 4);
}

TEST(MinishellTest, BackendSwitching) {
  auto r = RunShellScript("backend fork\necho one\nbackend vfork\necho two\n");
  EXPECT_NE(r.stdout_data.find("backend: local:forkexec"), std::string::npos);
  EXPECT_NE(r.stdout_data.find("backend: local:vfork"), std::string::npos);
  EXPECT_NE(r.stdout_data.find("one\n"), std::string::npos);
  EXPECT_NE(r.stdout_data.find("two\n"), std::string::npos);
}

TEST(MinishellTest, QuotingGroupsWords) {
  auto r = RunShellScript("echo 'two words' \"and more\"\n");
  EXPECT_EQ(r.stdout_data, "two words and more\n");
}

TEST(MinishellTest, QuotedShellSnippetRunsIntact) {
  auto r = RunShellScript("FORKLIFT_Q=v sh -c 'printf %s \"$FORKLIFT_Q\"'\n");
  EXPECT_EQ(r.stdout_data, "v");
}

TEST(MinishellTest, QuotedMetacharactersAreLiteral) {
  auto r = RunShellScript("echo 'a|b>c'\n");
  EXPECT_EQ(r.stdout_data, "a|b>c\n");
}

TEST(MinishellTest, BackslashEscapesSpace) {
  auto r = RunShellScript("echo one\\ token\n");
  EXPECT_EQ(r.stdout_data, "one token\n");
}

TEST(MinishellTest, UnterminatedQuoteReported) {
  auto r = RunShellScript("echo 'oops\necho fine\n");
  EXPECT_NE(r.stderr_data.find("unterminated"), std::string::npos);
  EXPECT_NE(r.stdout_data.find("fine\n"), std::string::npos);  // shell survives
}

TEST(MinishellTest, UnknownCommandReportsAndContinues) {
  auto r = RunShellScript("no-such-command-xyz\necho survived\n");
  EXPECT_NE(r.stderr_data.find("no-such-command-xyz"), std::string::npos);
  EXPECT_NE(r.stdout_data.find("survived\n"), std::string::npos);
}

}  // namespace
}  // namespace forklift
