// The unified configuration API (src/core/config.h): flags bind once,
// overlay onto the pipeline options, validate cross-field invariants,
// and round-trip into the run report — CLI flags, effective Config, and
// report JSON must all agree.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/core/config.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/obs/report.h"

namespace largeea {
namespace {

/// Builds Flags from a flag list (argv[0] is synthesised).
Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;  // keeps c_str()s alive
  storage = std::move(args);
  storage.insert(storage.begin(), "test");
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(ConfigTest, DefaultsValidateAndMatchOptionStructs) {
  auto config = ConfigFromFlags(MakeFlags({}));
  ASSERT_TRUE(config.ok());
  const LargeEaOptions defaults;
  EXPECT_EQ(config->pipeline.fused_top_k, defaults.fused_top_k);
  EXPECT_EQ(config->pipeline.structure_channel.num_batches,
            defaults.structure_channel.num_batches);
  EXPECT_EQ(config->pipeline.structure_channel.model, ModelKind::kRrea);
  EXPECT_EQ(config->pipeline.stream.memory_budget_mb, -1);  // unset
}

TEST(ConfigTest, FlagsOverlayOntoPipelineOptions) {
  auto config = ConfigFromFlags(MakeFlags(
      {"--model=gcn", "--partition=vps", "--metric=dot", "--batches=7",
       "--epochs=13", "--memory-budget-mb=48", "--stream-tile-rows=96",
       "--stream-release-inputs=false", "--use-lsh", "--string-weight=0.25",
       "--threads=3", "--strict-io", "--report-out=/tmp/r.json"}));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->pipeline.structure_channel.model, ModelKind::kGcnAlign);
  EXPECT_EQ(config->pipeline.structure_channel.strategy,
            PartitionStrategy::kVps);
  EXPECT_EQ(config->pipeline.name_channel.nff.sens.metric, SimMetric::kDot);
  EXPECT_EQ(config->pipeline.structure_channel.num_batches, 7);
  EXPECT_EQ(config->pipeline.structure_channel.train.epochs, 13);
  EXPECT_EQ(config->pipeline.stream.memory_budget_mb, 48);
  EXPECT_EQ(config->pipeline.stream.tile_rows, 96);
  EXPECT_FALSE(config->pipeline.stream.release_inputs);
  EXPECT_TRUE(config->pipeline.name_channel.nff.sens.use_lsh);
  EXPECT_FLOAT_EQ(config->pipeline.name_channel.nff.string_weight, 0.25f);
  EXPECT_EQ(config->threads, 3);
  EXPECT_TRUE(config->strict_io);
  EXPECT_EQ(config->report_out, "/tmp/r.json");
}

TEST(ConfigTest, RejectsBadValuesWithFlagNamingMessages) {
  const struct {
    std::vector<std::string> args;
    const char* needle;
  } cases[] = {
      {{"--model=bert"}, "--model"},
      {{"--partition=hash"}, "--partition"},
      {{"--metric=cosine"}, "--metric"},
      {{"--epochs=abc"}, "--epochs"},
      {{"--log-level=loud"}, "--log-level"},
      {{"--simd=avx512"}, "--simd"},
      {{"--threads=-2"}, "--threads"},
      {{"--memory-budget-mb=-7"}, "--memory-budget-mb"},
      // Values that parse as integers but do not fit the field.
      {{"--batches=4294967298"}, "--batches"},
      {{"--seed=-1"}, "--seed"},
      {{"--memory-budget-mb=9223372036854775807"}, "--memory-budget-mb"},
      // Sizes that would crash or be silently reread deeper down.
      {{"--sens-top-k=0"}, "--sens-top-k"},
      {{"--lsh-bits=40"}, "--lsh-bits"},
      {{"--lsh-bits=17"}, "--lsh-bits"},
      {{"--lsh-tables=0"}, "--lsh-tables"},
      {{"--lsh-probes=2"}, "--lsh-probes"},
      {{"--lsh-probes=-1"}, "--lsh-probes"},
      {{"--encoder-dim=0"}, "--encoder-dim"},
      {{"--structure-top-k=0"}, "--structure-top-k"},
      {{"--batches=0"}, "--batches"},
      {{"--overlap-degree=0"}, "--overlap-degree"},
      {{"--dim=0"}, "--dim"},
      {{"--epochs=-1"}, "--epochs"},
      {{"--negatives=0"}, "--negatives"},
      {{"--max-batch-retries=-1"}, "--max-batch-retries"},
      {{"--stream-tile-rows=-1"}, "--stream-tile-rows"},
      {{"--resume"}, "--checkpoint-dir"},
      {{"--use-name-channel=false", "--use-structure-channel=false"},
       "--use-name-channel"},
  };
  for (const auto& c : cases) {
    auto config = ConfigFromFlags(MakeFlags(c.args));
    ASSERT_FALSE(config.ok()) << c.args.front();
    EXPECT_NE(config.status().ToString().find(c.needle), std::string::npos)
        << config.status().ToString();
  }
}

TEST(ConfigTest, PipelineFingerprintsMatchFlagsAndIgnoreMemoryBudget) {
  // The flag -> Config -> fingerprint path must agree with directly
  // set options, so checkpoints from the CLI and from code match.
  auto flagged = ConfigFromFlags(
      MakeFlags({"--memory-budget-mb=32", "--string-weight=0.25"}));
  ASSERT_TRUE(flagged.ok());
  LargeEaOptions direct;
  direct.stream.memory_budget_mb = 32;
  direct.name_channel.nff.string_weight = 0.25f;
  EaDataset empty;
  const PipelineFingerprints from_flags =
      ComputePipelineFingerprints(empty, flagged->pipeline);
  EXPECT_EQ(from_flags, ComputePipelineFingerprints(empty, direct));
  // Every artifact is saved in full before a consumer releases it, so
  // no per-node fingerprint carries the budget: a checkpoint taken
  // under one budget resumes under any other (pipeline_fingerprint.h).
  LargeEaOptions unbudgeted = direct;
  unbudgeted.stream.memory_budget_mb = 0;
  EXPECT_EQ(from_flags, ComputePipelineFingerprints(empty, unbudgeted));
  // A result-shaping flag does reach them.
  LargeEaOptions reweighted = direct;
  reweighted.name_channel.nff.string_weight = 0.5f;
  EXPECT_NE(from_flags.name_fused,
            ComputePipelineFingerprints(empty, reweighted).name_fused);
}

TEST(ConfigTest, ReportRoundTripAgreesWithFlags) {
  auto config = ConfigFromFlags(MakeFlags(
      {"--model=transe", "--batches=9", "--memory-budget-mb=24",
       "--string-weight=0.125", "--augment=false"}));
  ASSERT_TRUE(config.ok());
  obs::RunReport report;
  config->WriteTo(report);
  const std::string json = report.ToJson();
  // Every flag the user passed appears in the config section with the
  // exact effective value.
  EXPECT_NE(json.find("\"model\":\"transe\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"batches\":\"9\""), std::string::npos);
  EXPECT_NE(json.find("\"memory-budget-mb\":\"24\""), std::string::npos);
  EXPECT_NE(json.find("\"string-weight\":\"0.125\""), std::string::npos);
  EXPECT_NE(json.find("\"augment\":\"false\""), std::string::npos);
  // Defaults are reported too (the full effective configuration).
  EXPECT_NE(json.find("\"epochs\":\"60\""), std::string::npos);

  // The reported values re-parse to an equivalent Config: feed them
  // back as flags and compare the snapshots.
  FlagRegistry first_registry;
  Config first = *config;
  first.Register(first_registry);
  std::vector<std::string> round_trip_args;
  for (const auto& [name, value] : first_registry.Values()) {
    round_trip_args.push_back("--" + name + "=" + value);
  }
  auto reparsed = ConfigFromFlags(MakeFlags(round_trip_args));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  FlagRegistry second_registry;
  reparsed->Register(second_registry);
  EXPECT_EQ(first_registry.Values(), second_registry.Values());
}

TEST(FlagRegistryTest, KnowsAndHelpCoverEveryBinding) {
  Config config;
  FlagRegistry registry;
  config.Register(registry);
  EXPECT_TRUE(registry.Knows("memory-budget-mb"));
  EXPECT_TRUE(registry.Knows("model"));
  EXPECT_FALSE(registry.Knows("source"));  // binary-local, not Config
  const std::string help = ConfigHelp();
  for (const auto& [name, value] : registry.Values()) {
    EXPECT_NE(help.find("--" + name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace largeea
