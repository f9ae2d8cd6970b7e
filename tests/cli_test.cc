// The largeea_cli front end as a real subprocess: every command accepts
// the Config flags plus its own, and any other flag — a typo, or a flag
// that no longer exists — exits 2 naming the flag, before any input is
// read.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/rt/io_util.h"
#include "src/shard/subprocess.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

#ifdef LARGEEA_CLI_BIN

struct CliOutcome {
  shard::ProcessStatus status;
  std::string output;  ///< stdout and stderr, interleaved
};

CliOutcome RunCli(const std::vector<std::string>& args) {
  const std::string log =
      (fs::temp_directory_path() /
       ("largeea_cli_test_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::vector<std::string> argv = {LARGEEA_CLI_BIN};
  argv.insert(argv.end(), args.begin(), args.end());
  CliOutcome outcome;
  auto pid = shard::SpawnProcess(argv, {}, log);
  EXPECT_TRUE(pid.ok()) << pid.status().ToString();
  if (!pid.ok()) return outcome;
  outcome.status = shard::WaitProcess(*pid);
  auto text = rt::ReadFileToString(log);
  if (text.ok()) outcome.output = *text;
  fs::remove(log);
  return outcome;
}

TEST(CliTest, UnknownFlagsExitTwoNamingTheFlag) {
  const struct {
    std::vector<std::string> args;
    const char* needle;
  } cases[] = {
      // A flag that no longer exists.
      {{"run", "--tune-file", "x"}, "unknown flag --tune-file"},
      // A misspelling of --memory-budget-mb.
      {{"run", "--memory-budget", "1"}, "unknown flag --memory-budget"},
      // Another command's own flag.
      {{"query", "--tier", "ids15k"}, "unknown flag --tier"},
      // The SENS segment count, removed with the search strategy layer.
      {{"run", "--segments", "4"}, "unknown flag --segments"},
  };
  for (const auto& c : cases) {
    const CliOutcome outcome = RunCli(c.args);
    EXPECT_EQ(outcome.status.state, shard::ProcessStatus::State::kExited)
        << c.needle;
    EXPECT_EQ(outcome.status.exit_code, 2) << outcome.output;
    EXPECT_NE(outcome.output.find(c.needle), std::string::npos)
        << outcome.output;
  }
}

#endif  // LARGEEA_CLI_BIN

}  // namespace
}  // namespace largeea
