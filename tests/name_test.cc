// Tests for src/name: tokenizer, MinHash, Levenshtein, SENS, STNS, NFF,
// data augmentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/gen/benchmark_gen.h"
#include "src/la/ops.h"
#include "src/name/data_augmentation.h"
#include "src/name/levenshtein.h"
#include "src/name/minhash.h"
#include "src/name/nff.h"
#include "src/name/semantic_encoder.h"
#include "src/name/semantic_sim.h"
#include "src/name/string_sim.h"
#include "src/name/tokenizer.h"

namespace largeea {
namespace {

TEST(TokenizerTest, WordsAndNgrams) {
  const auto tokens = TokenizeName("Foo Bar", TokenizerOptions{
                                                  .ngram_size = 3,
                                                  .include_words = true,
                                                  .include_ngrams = true});
  // words: foo, bar; ngrams of "#foo#": #fo foo oo#; same for bar.
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "foo"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "bar"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "#fo"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "oo#"), tokens.end());
  EXPECT_EQ(tokens.size(), 8u);
}

TEST(TokenizerTest, LowercasesAndSplitsOnPunctuation) {
  const auto tokens = TokenizeName(
      "Jean-Pierre (2)", TokenizerOptions{.ngram_size = 3,
                                          .include_words = true,
                                          .include_ngrams = false});
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "jean");
  EXPECT_EQ(tokens[1], "pierre");
  EXPECT_EQ(tokens[2], "2");
}

TEST(TokenizerTest, EmptyAndShortInputs) {
  EXPECT_TRUE(TokenizeName("").empty());
  EXPECT_TRUE(TokenizeName("  --  ").empty());
  const auto tokens = TokenizeName(
      "ab", TokenizerOptions{.ngram_size = 5,
                             .include_words = false,
                             .include_ngrams = true});
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "#ab#");  // shorter than n: whole padded word
}

TEST(TokenizerTest, TokenHashStable) {
  EXPECT_EQ(TokenHash("hello"), TokenHash("hello"));
  EXPECT_NE(TokenHash("hello"), TokenHash("hellp"));
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("", "ab"), 2);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
}

TEST(LevenshteinTest, SymmetricAndTriangle) {
  const std::vector<std::string> words{"alpha", "alphas", "beta", "blpha"};
  for (const auto& a : words) {
    for (const auto& b : words) {
      EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistance(b, a));
      for (const auto& c : words) {
        EXPECT_LE(LevenshteinDistance(a, c),
                  LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
      }
    }
  }
}

TEST(LevenshteinTest, SimilarityNormalised) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abcd", "abcd"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abcd", ""), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("abcd", "abce"), 0.75, 1e-9);
}

TEST(MinHashTest, JaccardEstimateAccuracy) {
  const MinHasher hasher(256, 3);
  // Two token sets with known Jaccard 0.5 (half shared).
  std::vector<std::string> a, b;
  for (int i = 0; i < 40; ++i) {
    const std::string shared = "sh" + std::to_string(i);
    a.push_back(shared);
    b.push_back(shared);
  }
  for (int i = 0; i < 40; ++i) a.push_back("a" + std::to_string(i));
  for (int i = 0; i < 40; ++i) b.push_back("b" + std::to_string(i));
  // |A ∩ B| = 40, |A ∪ B| = 120 → J = 1/3.
  const double estimate = MinHasher::EstimateJaccard(hasher.Signature(a),
                                                     hasher.Signature(b));
  EXPECT_NEAR(estimate, 1.0 / 3.0, 0.1);
}

TEST(MinHashTest, IdenticalSetsScoreOne) {
  const MinHasher hasher(64, 5);
  const std::vector<std::string> tokens{"x", "y", "z"};
  EXPECT_DOUBLE_EQ(MinHasher::EstimateJaccard(hasher.Signature(tokens),
                                              hasher.Signature(tokens)),
                   1.0);
}

TEST(MinHashTest, DisjointSetsScoreNearZero) {
  const MinHasher hasher(128, 7);
  std::vector<std::string> a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back("a" + std::to_string(i));
    b.push_back("b" + std::to_string(i));
  }
  EXPECT_LT(MinHasher::EstimateJaccard(hasher.Signature(a),
                                       hasher.Signature(b)),
            0.05);
}

TEST(MinHashLshTest, SimilarItemsCollide) {
  const int32_t bands = 16, rows = 4;
  const MinHasher hasher(bands * rows, 9);
  const std::vector<std::string> item{"foo", "bar", "baz", "qux", "quu"};
  std::vector<std::string> similar = item;
  similar[4] = "zzz";  // J = 4/6 = 0.67
  std::vector<std::vector<uint64_t>> signatures;
  for (int i = 0; i < 8; ++i) {
    signatures.push_back(i == 7 ? hasher.Signature(item)
                                : hasher.Signature({"other" + std::to_string(i)}));
  }
  const MinHashLsh lsh(bands, rows, signatures);
  const auto candidates = lsh.Query(hasher.Signature(similar));
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 7),
            candidates.end());
}

TEST(MinHashLshTest, DissimilarItemsRarelyCollide) {
  const int32_t bands = 8, rows = 8;  // steep threshold curve
  const MinHasher hasher(bands * rows, 11);
  std::vector<std::vector<uint64_t>> signatures;
  for (int i = 0; i < 100; ++i) {
    signatures.push_back(hasher.Signature({"item" + std::to_string(i),
                                           "word" + std::to_string(i * 3),
                                           "tok" + std::to_string(i * 7)}));
  }
  const MinHashLsh lsh(bands, rows, signatures);
  const auto candidates =
      lsh.Query(hasher.Signature({"unrelated", "query", "tokens"}));
  EXPECT_LT(candidates.size(), 5u);
}

TEST(SemanticEncoderTest, IdenticalNamesIdenticalEmbeddings) {
  const SemanticEncoder encoder(SemanticEncoderOptions{});
  std::vector<float> a(encoder.dim()), b(encoder.dim());
  encoder.EncodeName("Barack Obama", a.data());
  encoder.EncodeName("Barack Obama", b.data());
  EXPECT_EQ(a, b);
}

TEST(SemanticEncoderTest, SimilarNamesCloserThanUnrelated) {
  const SemanticEncoder encoder(SemanticEncoderOptions{});
  std::vector<float> base(encoder.dim()), cognate(encoder.dim()),
      unrelated(encoder.dim());
  encoder.EncodeName("barack obama", base.data());
  encoder.EncodeName("barak obame", cognate.data());
  encoder.EncodeName("zyx wvut", unrelated.data());
  const float d_cognate =
      ManhattanDistance(base.data(), cognate.data(), encoder.dim());
  const float d_unrelated =
      ManhattanDistance(base.data(), unrelated.data(), encoder.dim());
  EXPECT_LT(d_cognate, d_unrelated);
}

TEST(SemanticEncoderTest, EmbeddingsAreUnitNorm) {
  const SemanticEncoder encoder(SemanticEncoderOptions{});
  std::vector<float> v(encoder.dim());
  encoder.EncodeName("some entity name", v.data());
  EXPECT_NEAR(Norm2(v.data(), encoder.dim()), 1.0f, 1e-3f);
}

TEST(SemanticEncoderTest, EmptyNameIsZero) {
  const SemanticEncoder encoder(SemanticEncoderOptions{});
  std::vector<float> v(encoder.dim(), 1.0f);
  encoder.EncodeName("...", v.data());
  EXPECT_FLOAT_EQ(Norm2(v.data(), encoder.dim()), 0.0f);
}

TEST(SemanticEncoderTest, IdfDownweightsCommonTokens) {
  KnowledgeGraph kg;
  // "common" appears in every name; distinctive words in one each.
  kg.AddEntity("common alpha");
  kg.AddEntity("common beta");
  kg.AddEntity("common gamma");
  kg.AddEntity("common delta");
  SemanticEncoder encoder(SemanticEncoderOptions{});
  encoder.FitIdf({&kg});
  std::vector<float> a(encoder.dim()), b(encoder.dim());
  encoder.EncodeName("common alpha", a.data());
  encoder.EncodeName("common beta", b.data());
  const float with_idf =
      ManhattanDistance(a.data(), b.data(), encoder.dim());
  const SemanticEncoder plain(SemanticEncoderOptions{});
  plain.EncodeName("common alpha", a.data());
  plain.EncodeName("common beta", b.data());
  const float without_idf =
      ManhattanDistance(a.data(), b.data(), encoder.dim());
  // IDF reduces the shared word's pull, pushing the two names apart.
  EXPECT_GT(with_idf, without_idf);
}

// Shared dataset fixture for the channel-level name tests.
class NameChannelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 600;
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

const EaDataset* NameChannelFixture::dataset_ = nullptr;

TEST_F(NameChannelFixture, SensRanksTrueMatchesHighly) {
  const SparseSimMatrix m_se = ComputeSemanticSimilarity(
      dataset().source, dataset().target, SensOptions{});
  int64_t hits = 0;
  const auto all = dataset().split.All();
  for (const EntityPair& p : all) {
    if (m_se.ArgmaxOfRow(p.source) == p.target) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / all.size(), 0.4);
}

TEST_F(NameChannelFixture, SensRespectsTopK) {
  SensOptions options;
  options.top_k = 7;
  const SparseSimMatrix m_se = ComputeSemanticSimilarity(
      dataset().source, dataset().target, options);
  for (int32_t r = 0; r < m_se.num_rows(); ++r) {
    EXPECT_LE(m_se.Row(r).size(), 7u);
  }
}

TEST_F(NameChannelFixture, SensLshApproximatesExact) {
  SensOptions exact;
  SensOptions approx;
  approx.use_lsh = true;
  const SparseSimMatrix a = ComputeSemanticSimilarity(
      dataset().source, dataset().target, exact);
  const SparseSimMatrix b = ComputeSemanticSimilarity(
      dataset().source, dataset().target, approx);
  // The approximate argmax agrees with the exact one most of the time.
  int same = 0, total = 0;
  for (int32_t r = 0; r < a.num_rows(); ++r) {
    if (a.ArgmaxOfRow(r) == kInvalidEntity) continue;
    ++total;
    if (a.ArgmaxOfRow(r) == b.ArgmaxOfRow(r)) ++same;
  }
  EXPECT_GT(static_cast<double>(same) / total, 0.7);
}

TEST_F(NameChannelFixture, StnsOnlyKeepsJaccardCandidates) {
  StnsOptions options;
  options.jaccard_threshold = 0.5;
  const SparseSimMatrix m_st = ComputeStringSimilarity(
      dataset().source, dataset().target, options);
  EXPECT_GT(m_st.TotalEntries(), 0);
  // Raising θ can only shrink the candidate set.
  StnsOptions strict = options;
  strict.jaccard_threshold = 0.9;
  const SparseSimMatrix m_strict = ComputeStringSimilarity(
      dataset().source, dataset().target, strict);
  EXPECT_LE(m_strict.TotalEntries(), m_st.TotalEntries());
}

TEST_F(NameChannelFixture, StnsScoresAreLevenshteinSims) {
  const SparseSimMatrix m_st = ComputeStringSimilarity(
      dataset().source, dataset().target, StnsOptions{});
  for (int32_t r = 0; r < m_st.num_rows(); ++r) {
    for (const SimEntry& e : m_st.Row(r)) {
      EXPECT_GT(e.score, 0.0f);
      EXPECT_LE(e.score, 1.0f);
      EXPECT_NEAR(e.score,
                  LevenshteinSimilarity(dataset().source.EntityName(r),
                                        dataset().target.EntityName(
                                            e.column)),
                  1e-5);
    }
  }
}

TEST_F(NameChannelFixture, NffFusesBothAspects) {
  const NffResult nff = ComputeNameFeatures(dataset().source,
                                            dataset().target, NffOptions{});
  EXPECT_GT(nff.semantic.TotalEntries(), 0);
  EXPECT_GT(nff.string.TotalEntries(), 0);
  EXPECT_GT(nff.fused.TotalEntries(), 0);
}

TEST_F(NameChannelFixture, DataAugmentationIsMutualAndPrecise) {
  const NffResult nff = ComputeNameFeatures(dataset().source,
                                            dataset().target, NffOptions{});
  const EntityPairList pseudo = GeneratePseudoSeeds(nff.fused, {});
  EXPECT_GT(pseudo.size(), 50u);
  EXPECT_TRUE(IsOneToOne(pseudo));
  // Mutual-NN pairs should be mostly correct (the paper reports ~94%).
  const double precision =
      PseudoSeedPrecision(pseudo, dataset().split.All());
  EXPECT_GT(precision, 0.8);
}

TEST_F(NameChannelFixture, DataAugmentationAvoidsExistingSeeds) {
  const NffResult nff = ComputeNameFeatures(dataset().source,
                                            dataset().target, NffOptions{});
  const EntityPairList pseudo =
      GeneratePseudoSeeds(nff.fused, dataset().split.train);
  std::unordered_set<EntityId> seeded_sources, seeded_targets;
  for (const EntityPair& p : dataset().split.train) {
    seeded_sources.insert(p.source);
    seeded_targets.insert(p.target);
  }
  for (const EntityPair& p : pseudo) {
    EXPECT_FALSE(seeded_sources.contains(p.source));
    EXPECT_FALSE(seeded_targets.contains(p.target));
  }
}

TEST(PseudoSeedPrecisionTest, ExactCounting) {
  const EntityPairList truth{{0, 0}, {1, 1}, {2, 2}};
  EXPECT_DOUBLE_EQ(PseudoSeedPrecision({{0, 0}, {1, 2}}, truth), 0.5);
  EXPECT_DOUBLE_EQ(PseudoSeedPrecision({}, truth), 0.0);
  EXPECT_DOUBLE_EQ(PseudoSeedPrecision({{2, 2}}, truth), 1.0);
}

}  // namespace
}  // namespace largeea
