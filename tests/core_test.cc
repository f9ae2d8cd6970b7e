// Tests for src/core: evaluator, channels, and the full LargeEA pipeline.
#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/core/large_ea.h"
#include "src/core/name_channel.h"
#include "src/core/structure_channel.h"
#include "src/gen/benchmark_gen.h"

namespace largeea {
namespace {

TEST(EvaluatorTest, ComputesKnownMetrics) {
  SparseSimMatrix m(3, 3, 5);
  // Row 0: true target 0 at rank 1.
  m.Accumulate(0, 0, 0.9f);
  m.Accumulate(0, 1, 0.5f);
  // Row 1: true target 1 at rank 2.
  m.Accumulate(1, 2, 0.9f);
  m.Accumulate(1, 1, 0.5f);
  // Row 2: true target 2 absent.
  m.Accumulate(2, 0, 0.9f);
  const EntityPairList test{{0, 0}, {1, 1}, {2, 2}};
  const EvalMetrics metrics = Evaluate(m, test);
  EXPECT_NEAR(metrics.hits_at_1, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(metrics.hits_at_5, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(metrics.mrr, (1.0 + 0.5 + 0.0) / 3.0, 1e-9);
  EXPECT_EQ(metrics.num_test_pairs, 3);
}

TEST(EvaluatorTest, EmptyTestSet) {
  const SparseSimMatrix m(2, 2, 2);
  const EvalMetrics metrics = Evaluate(m, {});
  EXPECT_DOUBLE_EQ(metrics.hits_at_1, 0.0);
  EXPECT_EQ(metrics.num_test_pairs, 0);
}

TEST(EvaluatorTest, RankBeyondFiveCountsOnlyForMrr) {
  SparseSimMatrix m(1, 10, 10);
  for (int i = 0; i < 7; ++i) m.Accumulate(0, i, 1.0f - 0.1f * i);
  // True target is column 6, rank 7.
  const EvalMetrics metrics = Evaluate(m, {{0, 6}});
  EXPECT_DOUBLE_EQ(metrics.hits_at_1, 0.0);
  EXPECT_DOUBLE_EQ(metrics.hits_at_5, 0.0);
  EXPECT_NEAR(metrics.mrr, 1.0 / 7.0, 1e-9);
}

class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 800;
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

const EaDataset* CoreFixture::dataset_ = nullptr;

// The name channel alone: the pipeline with the structure channel
// ablated. Its fused matrix M is then the name channel's M_n, which the
// run hands back as `fused` (the name_channel fields hold the seeds and
// timings; every run releases M_n once fusion has consumed it).
LargeEaResult NameChannelAlone(const EaDataset& dataset,
                               const NameChannelOptions& name) {
  LargeEaOptions options;
  options.name_channel = name;
  options.use_structure_channel = false;
  options.stream.memory_budget_mb = 0;
  return RunLargeEa(dataset, options).value();
}

TEST_F(CoreFixture, NameChannelProducesFeaturesAndSeeds) {
  const LargeEaResult run = NameChannelAlone(dataset(), NameChannelOptions{});
  const NameChannelResult& result = run.name_channel;
  EXPECT_GT(run.fused.TotalEntries(), 0);
  EXPECT_GT(result.pseudo_seeds.size(), 20u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.peak_bytes, 0);
}

TEST_F(CoreFixture, NameChannelAugmentationCanBeDisabled) {
  NameChannelOptions options;
  options.enable_augmentation = false;
  const LargeEaResult run = NameChannelAlone(dataset(), options);
  EXPECT_TRUE(run.name_channel.pseudo_seeds.empty());
}

class StructureStrategyTest
    : public CoreFixture,
      public ::testing::WithParamInterface<PartitionStrategy> {};

TEST_P(StructureStrategyTest, ProducesBlockSimilarity) {
  StructureChannelOptions options;
  options.strategy = GetParam();
  options.num_batches = 3;
  options.train.epochs = 30;
  const StructureChannelResult result =
      RunStructureChannel(dataset().source, dataset().target,
                          dataset().split.train, options)
          .value();
  EXPECT_EQ(result.similarity.num_rows(), dataset().source.num_entities());
  EXPECT_EQ(result.similarity.num_cols(), dataset().target.num_entities());
  EXPECT_GT(result.similarity.TotalEntries(), 0);
  const size_t expected_batches =
      GetParam() == PartitionStrategy::kNone ? 1u : 3u;
  EXPECT_EQ(result.batches.size(), expected_batches);
  EXPECT_GT(result.training_seconds, 0.0);
  // Evaluation on the structure channel alone beats chance (1/800)
  // clearly. VPS destroys graph structure by design (Figure 6), so its
  // bar is much lower.
  const EvalMetrics metrics =
      Evaluate(result.similarity, dataset().split.test);
  const double bar = GetParam() == PartitionStrategy::kVps ? 0.005 : 0.05;
  EXPECT_GT(metrics.hits_at_1, bar);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StructureStrategyTest,
                         ::testing::Values(PartitionStrategy::kMetisCps,
                                           PartitionStrategy::kVps,
                                           PartitionStrategy::kNone));

TEST_F(CoreFixture, StructureSimilarityIsBlockDiagonal) {
  StructureChannelOptions options;
  options.num_batches = 3;
  options.train.epochs = 5;
  const StructureChannelResult result =
      RunStructureChannel(dataset().source, dataset().target,
                          dataset().split.train, options)
          .value();
  // Every similarity entry must pair entities of the same batch.
  std::vector<int32_t> source_batch(dataset().source.num_entities(), -1);
  std::vector<int32_t> target_batch(dataset().target.num_entities(), -1);
  for (size_t b = 0; b < result.batches.size(); ++b) {
    for (const EntityId e : result.batches[b].source_entities) {
      source_batch[e] = static_cast<int32_t>(b);
    }
    for (const EntityId e : result.batches[b].target_entities) {
      target_batch[e] = static_cast<int32_t>(b);
    }
  }
  for (int32_t r = 0; r < result.similarity.num_rows(); ++r) {
    for (const SimEntry& e : result.similarity.Row(r)) {
      EXPECT_EQ(source_batch[r], target_batch[e.column]);
    }
  }
}

TEST_F(CoreFixture, FullPipelineBeatsSingleChannels) {
  LargeEaOptions full;
  full.structure_channel.num_batches = 3;
  full.structure_channel.train.epochs = 40;
  const LargeEaResult fused = RunLargeEa(dataset(), full).value();

  LargeEaOptions structure_only = full;
  structure_only.use_name_channel = false;
  const LargeEaResult structure =
      RunLargeEa(dataset(), structure_only).value();

  LargeEaOptions name_only = full;
  name_only.use_structure_channel = false;
  const LargeEaResult name = RunLargeEa(dataset(), name_only).value();

  // Channel fusion helps (the paper's core ablation claim).
  EXPECT_GT(fused.metrics.hits_at_1, structure.metrics.hits_at_1);
  EXPECT_GT(fused.metrics.hits_at_1, name.metrics.hits_at_1);
  EXPECT_GT(fused.metrics.hits_at_1, 0.5);
  // Pseudo seeds were added to ψ'.
  EXPECT_GT(fused.effective_seeds.size(), dataset().split.train.size());
  // Metrics sanity: H@1 <= H@5, MRR in [H@1, 1].
  EXPECT_LE(fused.metrics.hits_at_1, fused.metrics.hits_at_5);
  EXPECT_GE(fused.metrics.mrr, fused.metrics.hits_at_1);
  EXPECT_LE(fused.metrics.mrr, 1.0);
}

TEST_F(CoreFixture, UnsupervisedRunWorksWithoutSeeds) {
  EaDataset unsupervised = dataset();
  // Move all train pairs into test: no human seeds at all.
  unsupervised.split.test.insert(unsupervised.split.test.end(),
                                 unsupervised.split.train.begin(),
                                 unsupervised.split.train.end());
  unsupervised.split.train.clear();
  LargeEaOptions options;
  options.structure_channel.num_batches = 3;
  options.structure_channel.train.epochs = 40;
  const LargeEaResult result = RunLargeEa(unsupervised, options).value();
  // DA must manufacture the seeds and the pipeline still aligns well.
  EXPECT_GT(result.effective_seeds.size(), 100u);
  EXPECT_GT(result.metrics.hits_at_1, 0.4);
}

TEST_F(CoreFixture, DisablingAugmentationShrinksSeeds) {
  LargeEaOptions options;
  options.structure_channel.num_batches = 3;
  options.structure_channel.train.epochs = 5;
  options.name_channel.enable_augmentation = false;
  const LargeEaResult result = RunLargeEa(dataset(), options).value();
  EXPECT_EQ(result.effective_seeds.size(), dataset().split.train.size());
}

TEST_F(CoreFixture, WithoutNameFusionStillUsesAugmentation) {
  LargeEaOptions options;
  options.structure_channel.num_batches = 2;
  options.structure_channel.train.epochs = 10;
  options.fuse_name_similarity = false;
  // The structure channel's own M_s (the run releases it once fusion has
  // consumed it).
  SparseSimMatrix structure;
  const StructureTrainer keep_structure =
      [&structure](const KnowledgeGraph& source, const KnowledgeGraph& target,
                   MiniBatchSet batches, const StructureChannelOptions& s,
                   rt::CheckpointManager* checkpoint) {
        auto trained = TrainStructureChannel(source, target,
                                             std::move(batches), s,
                                             checkpoint);
        if (trained.ok()) structure = trained->similarity;
        return trained;
      };
  const LargeEaResult result =
      RunLargeEa(dataset(), options, keep_structure).value();
  // The name channel still ran (DA seeds were added to ψ')...
  EXPECT_GT(result.effective_seeds.size(), dataset().split.train.size());
  // ...but the fused matrix is exactly the structure channel's M_s.
  for (int32_t r = 0; r < result.fused.num_rows(); ++r) {
    ASSERT_EQ(result.fused.Row(r).size(), structure.Row(r).size());
  }
}

TEST(DataAugmentationMarginTest, MarginTradesRecallForPrecision) {
  // Row 0: clear winner; row 1: near-tie between two candidates.
  SparseSimMatrix m(2, 4, 3);
  m.Accumulate(0, 0, 1.0f);
  m.Accumulate(0, 1, 0.5f);
  m.Accumulate(1, 2, 0.80f);
  m.Accumulate(1, 3, 0.79f);
  const EntityPairList loose = GeneratePseudoSeeds(m, {}, 0.0f);
  const EntityPairList strict = GeneratePseudoSeeds(m, {}, 0.10f);
  EXPECT_EQ(loose.size(), 2u);
  ASSERT_EQ(strict.size(), 1u);  // the near-tie is filtered out
  EXPECT_EQ(strict[0], (EntityPair{0, 0}));
}

TEST_F(CoreFixture, DeterministicAcrossRuns) {
  LargeEaOptions options;
  options.structure_channel.num_batches = 2;
  options.structure_channel.train.epochs = 10;
  const LargeEaResult a = RunLargeEa(dataset(), options).value();
  const LargeEaResult b = RunLargeEa(dataset(), options).value();
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_1, b.metrics.hits_at_1);
  EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr);
}

}  // namespace
}  // namespace largeea
