// Tests for the bootstrapped (structure-only, self-training) EA
// extension.
#include <gtest/gtest.h>

#include "src/core/bootstrap.h"
#include "src/core/evaluator.h"
#include "src/gen/benchmark_gen.h"

namespace largeea {
namespace {

class BootstrapFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 900;
    dataset_ = new EaDataset(GenerateBenchmark(spec));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const EaDataset& dataset() { return *dataset_; }

 private:
  static const EaDataset* dataset_;
};

const EaDataset* BootstrapFixture::dataset_ = nullptr;

TEST_F(BootstrapFixture, SeedsGrowAndAccuracyDoesNotCollapse) {
  BootstrapOptions options;
  options.structure.num_batches = 2;
  options.structure.train.epochs = 40;
  options.rounds = 3;
  const BootstrapResult result = RunBootstrappedStructureChannel(
      dataset().source, dataset().target, dataset().split.train, options);
  ASSERT_EQ(result.seeds_per_round.size(), 3u);
  // Seeds grow monotonically and beyond the input set.
  EXPECT_GE(result.seeds_per_round[1], result.seeds_per_round[0]);
  EXPECT_GT(result.final_seeds.size(), dataset().split.train.size());
  EXPECT_TRUE(IsOneToOne(result.final_seeds));

  // Bootstrapping must not fall below the single-round baseline.
  StructureChannelOptions single = options.structure;
  const StructureChannelResult baseline =
      RunStructureChannel(dataset().source, dataset().target,
                          dataset().split.train, single)
          .value();
  const double boot_h1 =
      Evaluate(result.similarity, dataset().split.test).hits_at_1;
  const double base_h1 =
      Evaluate(baseline.similarity, dataset().split.test).hits_at_1;
  EXPECT_GE(boot_h1, base_h1 * 0.9);
}

TEST_F(BootstrapFixture, GrowthCapIsRespected) {
  BootstrapOptions options;
  options.structure.num_batches = 2;
  options.structure.train.epochs = 10;
  options.rounds = 2;
  options.max_growth_per_round = 0.1;
  const BootstrapResult result = RunBootstrappedStructureChannel(
      dataset().source, dataset().target, dataset().split.train, options);
  const auto input = static_cast<int64_t>(dataset().split.train.size());
  EXPECT_LE(result.seeds_per_round[0],
            input + static_cast<int64_t>(0.1 * input) + 1);
}

TEST_F(BootstrapFixture, SingleRoundEqualsPlainChannel) {
  BootstrapOptions options;
  options.structure.num_batches = 2;
  options.structure.train.epochs = 10;
  options.rounds = 1;
  const BootstrapResult result = RunBootstrappedStructureChannel(
      dataset().source, dataset().target, dataset().split.train, options);
  EXPECT_EQ(result.final_seeds.size(), dataset().split.train.size());
  const StructureChannelResult plain =
      RunStructureChannel(dataset().source, dataset().target,
                          dataset().split.train, options.structure)
          .value();
  EXPECT_DOUBLE_EQ(
      Evaluate(result.similarity, dataset().split.test).hits_at_1,
      Evaluate(plain.similarity, dataset().split.test).hits_at_1);
}

}  // namespace
}  // namespace largeea
