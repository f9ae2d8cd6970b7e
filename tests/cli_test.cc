// The largeea_cli front end as a real subprocess: every command accepts
// the Config flags plus its own, and any other flag — a typo, or a flag
// that no longer exists — or an out-of-range size exits 2 naming the
// flag, before any input is read; a malformed --expect-fingerprint exits
// 2 too; index-build writes the same trace and report as run, and the
// run report's total holds the resident peak beside the tracked one.
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
      // The tile prefetch switch: the spilled sweep always prefetches.
      {{"run", "--stream-prefetch=false"}, "unknown flag --stream-prefetch"},
      // The input-release switch: a budgeted run always releases them.
      {{"run", "--stream-release-inputs=false"},
       "unknown flag --stream-release-inputs"},
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

TEST(CliTest, OutOfRangeSizeFlagsExitTwoNamingTheFlag) {
  // Checked before any input is read: no --source is needed.
  const CliOutcome outcome = RunCli({"run", "--sens-top-k", "0"});
  EXPECT_EQ(outcome.status.state, shard::ProcessStatus::State::kExited);
  EXPECT_EQ(outcome.status.exit_code, 2) << outcome.output;
  EXPECT_NE(outcome.output.find("--sens-top-k"), std::string::npos)
      << outcome.output;
}

// The fingerprint is 1 to 16 hex digits and nothing else, checked before
// the index is read: trailing bytes, a 17th digit (which a saturating
// parse would turn into ffffffffffffffff) and an empty value all exit 2.
TEST(CliTest, ExpectFingerprintMustBeOneToSixteenHexDigits) {
  for (const std::string value :
       {"be6b49c28e06172czz", "be6b49c28e06172c0", ""}) {
    const CliOutcome outcome =
        RunCli({"query", "--index", "/nonexistent/serve.idx", "--entity",
                "0", "--expect-fingerprint=" + value});
    EXPECT_EQ(outcome.status.state, shard::ProcessStatus::State::kExited)
        << value;
    EXPECT_EQ(outcome.status.exit_code, 2) << value << ": " << outcome.output;
    EXPECT_NE(outcome.output.find("--expect-fingerprint"), std::string::npos)
        << outcome.output;
  }
}

TEST(CliTest, IndexBuildWritesTraceAndReportWithItsSpans) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("largeea_cli_index_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const CliOutcome generated =
      RunCli({"generate", "--tier", "ids15k", "--scale", "0.03", "--out_dir",
              dir.string()});
  ASSERT_EQ(generated.status.exit_code, 0) << generated.output;
  const fs::path trace = dir / "trace.json";
  const fs::path report = dir / "report.json";
  const CliOutcome built = RunCli(
      {"index-build", "--source", (dir / "source.tsv").string(), "--target",
       (dir / "target.tsv").string(), "--seeds", (dir / "train.tsv").string(),
       "--epochs", "2", "--index-out", (dir / "serve.idx").string(),
       "--trace-out", trace.string(), "--report-out", report.string()});
  ASSERT_EQ(built.status.exit_code, 0) << built.output;
  EXPECT_TRUE(fs::exists(trace));
  auto json = rt::ReadFileToString(report.string());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"largeea_cli index-build\""), std::string::npos);
  EXPECT_NE(json->find("\"serve/index_build\""), std::string::npos) << *json;
  EXPECT_NE(json->find("\"hnsw/build\""), std::string::npos) << *json;
  fs::remove_all(dir);
}

TEST(CliTest, RunReportsTrackedAndResidentPeaks) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("largeea_cli_peak_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const CliOutcome generated =
      RunCli({"generate", "--tier", "ids15k", "--scale", "0.03", "--out_dir",
              dir.string()});
  ASSERT_EQ(generated.status.exit_code, 0) << generated.output;
  const fs::path report = dir / "report.json";
  const CliOutcome ran = RunCli(
      {"run", "--source", (dir / "source.tsv").string(), "--target",
       (dir / "target.tsv").string(), "--seeds", (dir / "train.tsv").string(),
       "--test", (dir / "test.tsv").string(), "--epochs", "2",
       "--report-out", report.string()});
  ASSERT_EQ(ran.status.exit_code, 0) << ran.output;
  auto json = rt::ReadFileToString(report.string());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const size_t total = json->find("\"total\":{");
  ASSERT_NE(total, std::string::npos) << *json;
  const std::string section = json->substr(total, json->find('}', total) - total);
  EXPECT_NE(section.find("\"peak_bytes\":"), std::string::npos) << section;
#ifdef __linux__
  // VmHWM of the run: a resident process holds at least a page.
  const size_t rss = section.find("\"peak_rss_bytes\":");
  ASSERT_NE(rss, std::string::npos) << section;
  EXPECT_GT(std::stoll(section.substr(rss + 17)), 4096) << section;
  EXPECT_NE(ran.output.find("resident "), std::string::npos) << ran.output;
#endif
  fs::remove_all(dir);
}

#endif  // LARGEEA_CLI_BIN

}  // namespace
}  // namespace largeea
