// Tests for src/sim: sparse similarity matrix, top-k search, LSH.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/la/matrix.h"
#include "src/la/ops.h"
#include "src/par/grain.h"
#include "src/par/thread_pool.h"
#include "src/rt/binary_io.h"
#include "src/sim/csls.h"
#include "src/sim/lsh.h"
#include "src/sim/sparse_sim.h"
#include "src/sim/topk_search.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"
#include "tests/allocation_probe.h"

namespace largeea {
namespace {

// TopKHeap against a sort-based oracle: whatever the offer order, the
// heap drains exactly the first k candidates of the full list sorted
// by TopKHeap::Better, bit for bit. The score sets stress the ranking's
// edges: all-equal scores (only ids decide), +0 against -0 (equal
// scores, so ids decide), NaNs of both signs among numbers (ranked
// below every number), and a small set of repeated values that puts
// many ties on the k boundary; k runs from 0 and 1 past the candidate
// count.
TEST(TopKHeapTest, DrainsTheSortOracleBitForBit) {
  using Scored = std::pair<float, int32_t>;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(53);
  std::vector<std::vector<float>> score_sets;
  score_sets.push_back(std::vector<float>(40, 0.5f));
  score_sets.push_back({0.0f, -0.0f, 0.0f, -0.0f, 1.0f, -1.0f, -0.0f, 0.0f});
  score_sets.push_back(
      {0.3f, nan, -nan, 0.7f, nan, -1.0f, 0.0f, -0.0f, nan, 0.3f, 2.0f});
  std::vector<float> repeated(200);
  for (float& v : repeated) {
    v = static_cast<float>(rng.Uniform(5)) * 0.25f - 0.5f;
  }
  score_sets.push_back(repeated);
  std::vector<float> random(300);
  for (float& v : random) v = static_cast<float>(rng.UniformDouble());
  random[17] = nan;
  score_sets.push_back(random);

  for (size_t set = 0; set < score_sets.size(); ++set) {
    const std::vector<float>& scores = score_sets[set];
    const int32_t n = static_cast<int32_t>(scores.size());
    std::vector<Scored> candidates;
    for (int32_t id = 0; id < n; ++id) candidates.emplace_back(scores[id], id);
    std::vector<Scored> oracle = candidates;
    std::sort(oracle.begin(), oracle.end(), TopKHeap::Better);
    for (const int32_t k : {0, 1, 2, 5, n - 1, n, n + 7}) {
      if (k < 0) continue;
      const std::vector<Scored> want(
          oracle.begin(), oracle.begin() + std::min(k, n));
      for (int round = 0; round < 6; ++round) {
        std::vector<Scored> order = candidates;
        if (round == 1) std::reverse(order.begin(), order.end());
        for (size_t i = order.size(); round > 1 && i > 1; --i) {
          std::swap(order[i - 1], order[rng.Uniform(i)]);
        }
        TopKHeap heap(k);
        for (const auto& [score, id] : order) heap.Offer(id, score);
        std::vector<Scored> got;
        heap.Drain(got);
        SCOPED_TRACE("set " + std::to_string(set) + " k " +
                     std::to_string(k) + " round " + std::to_string(round));
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint32_t>(got[i].first),
                    std::bit_cast<uint32_t>(want[i].first))
              << "rank " << i;
          EXPECT_EQ(got[i].second, want[i].second) << "rank " << i;
        }
      }
    }
  }
}

TEST(SparseSimMatrixTest, AccumulateKeepsRowsSorted) {
  SparseSimMatrix m(2, 10, 3);
  m.Accumulate(0, 3, 0.5f);
  m.Accumulate(0, 7, 0.9f);
  m.Accumulate(0, 1, 0.7f);
  const auto row = m.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].column, 7);
  EXPECT_EQ(row[1].column, 1);
  EXPECT_EQ(row[2].column, 3);
}

TEST(SparseSimMatrixTest, EvictsWeakestWhenFull) {
  SparseSimMatrix m(1, 10, 2);
  m.Accumulate(0, 1, 0.1f);
  m.Accumulate(0, 2, 0.2f);
  m.Accumulate(0, 3, 0.3f);  // evicts column 1
  EXPECT_EQ(m.RankInRow(0, 1), 0);
  EXPECT_EQ(m.RankInRow(0, 3), 1);
  EXPECT_EQ(m.RankInRow(0, 2), 2);
  m.Accumulate(0, 4, 0.05f);  // too weak to enter
  EXPECT_EQ(m.RankInRow(0, 4), 0);
}

TEST(SparseSimMatrixTest, AccumulateAddsToExisting) {
  SparseSimMatrix m(1, 10, 3);
  m.Accumulate(0, 5, 0.4f);
  m.Accumulate(0, 6, 0.5f);
  m.Accumulate(0, 5, 0.3f);  // 5 now 0.7, overtakes 6
  EXPECT_EQ(m.ArgmaxOfRow(0), 5);
  EXPECT_EQ(m.RankInRow(0, 6), 2);
}

TEST(SparseSimMatrixTest, EmptyRowBehaviour) {
  const SparseSimMatrix m(3, 3, 2);
  EXPECT_EQ(m.ArgmaxOfRow(1), kInvalidEntity);
  EXPECT_EQ(m.RankInRow(1, 0), 0);
  EXPECT_EQ(m.TotalEntries(), 0);
}

TEST(SparseSimMatrixTest, ArgmaxPerColumn) {
  SparseSimMatrix m(3, 3, 3);
  m.Accumulate(0, 0, 0.9f);
  m.Accumulate(1, 0, 0.5f);
  m.Accumulate(2, 1, 0.7f);
  const auto best = m.ArgmaxPerColumn();
  EXPECT_EQ(best[0], 0);
  EXPECT_EQ(best[1], 2);
  EXPECT_EQ(best[2], kInvalidEntity);
}

TEST(SparseSimMatrixTest, FuseUnionsAndWeights) {
  SparseSimMatrix a(1, 10, 5), b(1, 10, 5);
  a.Accumulate(0, 1, 1.0f);
  a.Accumulate(0, 2, 0.5f);
  b.Accumulate(0, 2, 1.0f);
  b.Accumulate(0, 3, 0.8f);
  const SparseSimMatrix fused = a.Fuse(b, 1.0f, 0.5f, 5);
  // 2: 0.5 + 0.5 = 1.0; 1: 1.0; 3: 0.4
  EXPECT_EQ(fused.RankInRow(0, 3), 3);
  const auto row = fused.Row(0);
  ASSERT_EQ(row.size(), 3u);
  float score2 = 0.0f;
  for (const SimEntry& e : row) {
    if (e.column == 2) score2 = e.score;
  }
  EXPECT_FLOAT_EQ(score2, 1.0f);
}

TEST(SparseSimMatrixTest, FuseTruncates) {
  SparseSimMatrix a(1, 10, 5), b(1, 10, 5);
  for (int i = 0; i < 5; ++i) a.Accumulate(0, i, 0.1f * (i + 1));
  for (int i = 5; i < 10; ++i) b.Accumulate(0, i, 0.01f * (i + 1));
  const SparseSimMatrix fused = a.Fuse(b, 1.0f, 1.0f, 4);
  EXPECT_EQ(fused.Row(0).size(), 4u);
  EXPECT_EQ(fused.ArgmaxOfRow(0), 4);  // highest from a
}

TEST(SparseSimMatrixTest, MemoryBytesTracksEntries) {
  SparseSimMatrix m(2, 10, 0);
  EXPECT_EQ(m.MemoryBytes(), 0);
  m.Accumulate(0, 1, 1.0f);
  m.Accumulate(1, 2, 1.0f);
  EXPECT_EQ(m.MemoryBytes(),
            static_cast<int64_t>(2 * sizeof(SimEntry)));
}

TEST(SparseSimMatrixTest, UnlimitedRowsWhenCapNonPositive) {
  SparseSimMatrix m(1, 200, 0);
  for (int i = 0; i < 100; ++i) m.Accumulate(0, i, 1.0f / (i + 1));
  EXPECT_EQ(m.Row(0).size(), 100u);
}

TEST(CslsTest, RecentersByLocalMeans) {
  SparseSimMatrix m(2, 3, 3);
  m.Accumulate(0, 0, 1.0f);
  m.Accumulate(0, 1, 0.5f);
  m.Accumulate(1, 1, 0.9f);
  const SparseSimMatrix rescaled = CslsRescale(m);
  // Row 0 mean = 0.75; col 0 mean = 1.0; col 1 mean = (0.5+0.9)/2 = 0.7.
  float score00 = 0, score01 = 0, score11 = 0;
  for (const SimEntry& e : rescaled.Row(0)) {
    if (e.column == 0) score00 = e.score;
    if (e.column == 1) score01 = e.score;
  }
  for (const SimEntry& e : rescaled.Row(1)) {
    if (e.column == 1) score11 = e.score;
  }
  EXPECT_NEAR(score00, 2.0f * 1.0f - 0.75f - 1.0f, 1e-5f);
  EXPECT_NEAR(score01, 2.0f * 0.5f - 0.75f - 0.7f, 1e-5f);
  EXPECT_NEAR(score11, 2.0f * 0.9f - 0.9f - 0.7f, 1e-5f);
}

TEST(CslsTest, PreservesWithinRowRanking) {
  Rng rng(61);
  SparseSimMatrix m(20, 30, 8);
  for (int32_t r = 0; r < 20; ++r) {
    for (int i = 0; i < 8; ++i) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(30)),
                   rng.UniformFloat());
    }
  }
  const SparseSimMatrix rescaled = CslsRescale(m);
  // CSLS shifts all entries of a row by the same row mean and differing
  // column means; within-row *argmax* can legitimately change, but the
  // entry set must be identical.
  for (int32_t r = 0; r < 20; ++r) {
    EXPECT_EQ(rescaled.Row(r).size(), m.Row(r).size());
    for (const SimEntry& e : m.Row(r)) {
      EXPECT_NE(rescaled.RankInRow(r, e.column), 0);
    }
  }
}

// The codec's bytes: the matrices two runs produce are equal exactly
// when these are.
std::string MatrixBytes(const SparseSimMatrix& m) {
  rt::BinaryWriter w;
  m.Serialize(w);
  return w.TakeBytes();
}

StatusOr<SparseSimMatrix> DecodeMatrix(std::string_view bytes) {
  rt::BinaryReader r(bytes);
  auto m = SparseSimMatrix::Deserialize(r);
  if (m.ok() && !r.exhausted()) return DataLossError("trailing bytes");
  return m;
}

void ExpectRowsBitIdentical(const SparseSimMatrix& a,
                            const SparseSimMatrix& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  ASSERT_EQ(a.max_entries_per_row(), b.max_entries_per_row());
  for (int32_t r = 0; r < a.num_rows(); ++r) {
    const auto x = a.Row(r);
    const auto y = b.Row(r);
    ASSERT_EQ(x.size(), y.size()) << "row " << r;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].column, y[i].column);
      EXPECT_EQ(std::bit_cast<uint32_t>(x[i].score),
                std::bit_cast<uint32_t>(y[i].score))
          << "row " << r << " entry " << i;
    }
  }
}

TEST(SimMatrixCodecTest, RoundTripPreservesEverything) {
  SparseSimMatrix m(3, 5, 4);
  Rng rng(71);
  for (int32_t r = 0; r < 3; ++r) {
    for (int i = 0; i < 4; ++i) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(5)),
                   rng.UniformFloat() - 0.3f);  // include negative scores
    }
  }
  const auto loaded = DecodeMatrix(MatrixBytes(m));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRowsBitIdentical(m, *loaded);
  EXPECT_EQ(loaded->MemoryBytes(), m.MemoryBytes());
  // Empty rows and an empty matrix round-trip too.
  const SparseSimMatrix empty(4, 2, 0);
  const auto loaded_empty = DecodeMatrix(MatrixBytes(empty));
  ASSERT_TRUE(loaded_empty.ok());
  ExpectRowsBitIdentical(empty, *loaded_empty);
}

// Scores are stored as their bits, so every float a matrix can hold —
// signed zeros, subnormals, FLT_MIN/FLT_MAX, infinities, NaNs with any
// payload and random bit patterns — reads back with the same bits, in
// the same order, with no re-sorting through Accumulate.
TEST(SimMatrixCodecTest, RoundTripIsBitwiseForEveryScore) {
  std::vector<float> scores = {0.0f,
                               -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               -std::numeric_limits<float>::denorm_min(),
                               std::nextafter(FLT_MIN, 0.0f),
                               FLT_MIN,
                               FLT_MAX,
                               -FLT_MAX,
                               1.0f,
                               0.1f,
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::quiet_NaN(),
                               std::bit_cast<float>(0x7fa00001u),  // sNaN
                               std::bit_cast<float>(0xffc0beefu)};
  Rng rng(89);
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(std::bit_cast<float>(static_cast<uint32_t>(rng.Next())));
  }
  const int32_t rows = static_cast<int32_t>(scores.size() / 8);
  SparseSimMatrix m(rows, 8, 8);
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < 8; ++c) m.Accumulate(r, c, scores[r * 8 + c]);
  }
  const std::string bytes = MatrixBytes(m);
  // Shape, then per row its length and 8-byte entries.
  EXPECT_EQ(bytes.size(), 12u + static_cast<size_t>(rows) * (4 + 8 * 8));
  const auto loaded = DecodeMatrix(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRowsBitIdentical(m, *loaded);
  EXPECT_EQ(MatrixBytes(*loaded), bytes);
}

TEST(SimMatrixCodecTest, RejectsDamagedPayloads) {
  SparseSimMatrix m(2, 3, 2);
  m.Accumulate(0, 1, 0.5f);
  m.Accumulate(1, 2, 0.25f);
  m.Accumulate(1, 0, 0.75f);
  const std::string good = MatrixBytes(m);
  ASSERT_TRUE(DecodeMatrix(good).ok());
  const auto with_i32 = [&good](size_t offset, int32_t value) {
    std::string bytes = good;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return DecodeMatrix(bytes).status().code();
  };
  // Layout: rows @0, cols @4, cap @8, row 0 length @12, its entry @16,
  // row 1 length @24, its entries @28.
  EXPECT_EQ(with_i32(0, -1), StatusCode::kDataLoss);          // rows < 0
  EXPECT_EQ(with_i32(4, -1), StatusCode::kDataLoss);          // cols < 0
  EXPECT_EQ(with_i32(0, 1 << 30), StatusCode::kDataLoss);     // rows inflated
  EXPECT_EQ(with_i32(8, 1), StatusCode::kDataLoss);           // row 1 > cap
  EXPECT_EQ(with_i32(12, 1 << 20), StatusCode::kDataLoss);    // length inflated
  EXPECT_EQ(with_i32(16, 3), StatusCode::kDataLoss);          // column = cols
  EXPECT_EQ(with_i32(28, -1), StatusCode::kDataLoss);         // column < 0
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_EQ(DecodeMatrix(good.substr(0, cut)).status().code(),
              StatusCode::kDataLoss)
        << "cut at " << cut;
  }
}

// Scores with many ties (a handful of values), some NaN and some -0.0,
// so the stored order's tie-breaks and NaN handling are exercised.
float TieHeavyScore(Rng& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return std::numeric_limits<float>::quiet_NaN();
    case 1:
      return -0.0f;
    default:
      return static_cast<float>(rng.Uniform(5)) * 0.25f - 0.5f;
  }
}

TEST(SparseSimMatrixTest, AccumulateRowMatchesAccumulateCalls) {
  // Against rows already holding entries, with repeated columns, ties,
  // NaN, full-row evictions and an unlimited cap.
  Rng rng(83);
  for (const int32_t cap : {0, 1, 3, 8}) {
    for (int trial = 0; trial < 300; ++trial) {
      SparseSimMatrix calls(1, 12, cap), row(1, 12, cap);
      const uint64_t held = rng.Uniform(6);
      for (uint64_t i = 0; i < held; ++i) {
        const EntityId col = static_cast<EntityId>(rng.Uniform(12));
        const float score = TieHeavyScore(rng);
        calls.Accumulate(0, col, score);
        row.Accumulate(0, col, score);
      }
      std::vector<SimEntry> entries(rng.Uniform(14));
      for (SimEntry& e : entries) {
        e = SimEntry{static_cast<EntityId>(rng.Uniform(12)),
                     TieHeavyScore(rng)};
        calls.Accumulate(0, e.column, e.score);
      }
      row.AccumulateRow(0, entries);
      SCOPED_TRACE(testing::Message() << "cap " << cap << " trial " << trial);
      ExpectRowsBitIdentical(calls, row);
    }
  }
}

// The parent's CSLS: one Accumulate call per rescaled entry.
SparseSimMatrix CslsByAccumulate(const SparseSimMatrix& m) {
  std::vector<float> row_mean(m.num_rows(), 0.0f);
  std::vector<float> col_sum(m.num_cols(), 0.0f);
  std::vector<int32_t> col_count(m.num_cols(), 0);
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    float sum = 0.0f;
    for (const SimEntry& e : m.Row(r)) {
      sum += e.score;
      col_sum[e.column] += e.score;
      ++col_count[e.column];
    }
    if (!m.Row(r).empty()) {
      row_mean[r] = sum / static_cast<float>(m.Row(r).size());
    }
  }
  SparseSimMatrix out(m.num_rows(), m.num_cols(), m.max_entries_per_row());
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    for (const SimEntry& e : m.Row(r)) {
      const float col_mean =
          col_count[e.column] > 0
              ? col_sum[e.column] / static_cast<float>(col_count[e.column])
              : 0.0f;
      out.Accumulate(r, e.column, 2.0f * e.score - row_mean[r] - col_mean);
    }
  }
  return out;
}

TEST(SparseSimMatrixTest, RowParallelFuseAndCslsMatchSerialBitForBit) {
  // Enough rows for many chunks and several FuseStreamed blocks.
  Rng rng(89);
  SparseSimMatrix a(700, 90, 12), b(700, 90, 12);
  for (int32_t r = 0; r < 700; ++r) {
    for (int i = 0; i < 12; ++i) {
      a.Accumulate(r, static_cast<EntityId>(rng.Uniform(90)),
                   rng.UniformFloat());
      b.Accumulate(r, static_cast<EntityId>(rng.Uniform(90)),
                   rng.UniformFloat() - 0.3f);
    }
  }
  const SparseSimMatrix csls_oracle = CslsByAccumulate(a);
  const int32_t saved_threads = par::ThreadPool::Get().num_threads();
  par::ThreadPool::Get().SetNumThreads(1);
  const SparseSimMatrix fused_serial = a.Fuse(b, 1.0f, 0.5f, 10);
  for (const int32_t threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    par::ThreadPool::Get().SetNumThreads(threads);
    ExpectRowsBitIdentical(CslsRescale(a), csls_oracle);
    ExpectRowsBitIdentical(a.Fuse(b, 1.0f, 0.5f, 10), fused_serial);
    ExpectRowsBitIdentical(
        SparseSimMatrix::FuseStreamed(a, b, 1.0f, 0.5f, 10,
                                      /*rows_per_block=*/96),
        fused_serial);
  }
  par::ThreadPool::Get().SetNumThreads(saved_threads);
}

TEST(SparseSimMatrixTest, DrainCslsAndMergeStoreRowsAtFinalLength) {
  // A 50-entry row written one Accumulate call at a time regrows to 64
  // entries (a 512-byte request); written once, it is one 400-byte
  // request, the largest any of these calls makes.
  constexpr int32_t k = 50;
  constexpr size_t kRowBytes = k * sizeof(SimEntry);
  Rng rng(97);
  Matrix source(2, 4), target(64, 4);
  for (int64_t i = 0; i < source.size(); ++i) {
    source.data()[i] = rng.UniformFloat();
  }
  for (int64_t i = 0; i < target.size(); ++i) {
    target.data()[i] = rng.UniformFloat();
  }
  const std::vector<EntityId> row_ids = {0, 1};
  std::vector<EntityId> col_ids(64);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  const TopKOptions options{.k = k};
  {
    // Registers the sweep's counters, so the probed call below makes
    // only its own allocations.
    SparseSimMatrix warm(2, 64, k);
    TopKInto(source, row_ids, target, col_ids, nullptr, options, warm);
  }

  SparseSimMatrix drained(2, 64, k);
  StartAllocationProbe();
  TopKInto(source, row_ids, target, col_ids, nullptr, options, drained);
  EXPECT_EQ(StopAllocationProbe(), kRowBytes);
  ASSERT_EQ(drained.Row(0).size(), static_cast<size_t>(k));

  StartAllocationProbe();
  const SparseSimMatrix rescaled = CslsRescale(drained);
  EXPECT_EQ(StopAllocationProbe(), kRowBytes);
  ASSERT_EQ(rescaled.Row(0).size(), static_cast<size_t>(k));

  // The structure channel's merge of a batch block into an empty M_s row.
  SparseSimMatrix merged(2, 64, k), calls(2, 64, k);
  for (const SimEntry& e : drained.Row(0)) {
    calls.Accumulate(0, e.column, e.score);
  }
  StartAllocationProbe();
  merged.AccumulateRow(0, drained.Row(0));
  EXPECT_EQ(StopAllocationProbe(), kRowBytes);
  ExpectRowsBitIdentical(merged, calls);
}

// Brute-force reference for top-k.
std::vector<int32_t> BruteTopK(const Matrix& a, int64_t row, const Matrix& b,
                               int32_t k, SimMetric metric) {
  std::vector<std::pair<float, int32_t>> scored;
  for (int64_t j = 0; j < b.rows(); ++j) {
    const float s =
        metric == SimMetric::kManhattan
            ? ManhattanSimilarity(
                  ManhattanDistance(a.Row(row), b.Row(j), a.cols()))
            : Dot(a.Row(row), b.Row(j), a.cols());
    scored.emplace_back(-s, static_cast<int32_t>(j));
  }
  std::sort(scored.begin(), scored.end());
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < k; ++i) ids.push_back(scored[i].second);
  return ids;
}

class TopKTest : public ::testing::TestWithParam<SimMetric> {};

TEST_P(TopKTest, ExactMatchesBruteForce) {
  Rng rng(41);
  Matrix a(20, 8), b(50, 8);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  const TopKOptions options{.k = 5, .metric = GetParam()};
  const SparseSimMatrix result = ExactTopK(a, b, options);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const auto expected = BruteTopK(a, i, b, 5, GetParam());
    const auto row = result.Row(static_cast<int32_t>(i));
    ASSERT_EQ(row.size(), 5u);
    // Same candidate set (ordering ties may differ).
    std::vector<int32_t> got;
    for (const SimEntry& e : row) got.push_back(e.column);
    std::sort(got.begin(), got.end());
    std::vector<int32_t> want = expected;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, TopKTest,
                         ::testing::Values(SimMetric::kManhattan,
                                           SimMetric::kDot));

TEST(TopKTest, IdMapsRespected) {
  Rng rng(43);
  Matrix a(3, 4), b(4, 4);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  const std::vector<EntityId> row_ids{10, 20, 30};
  const std::vector<EntityId> col_ids{5, 6, 7, 8};
  SparseSimMatrix out(40, 10, 2);
  TopKInto(a, row_ids, b, col_ids, /*index=*/nullptr, TopKOptions{.k = 2},
           out);
  EXPECT_EQ(out.Row(10).size(), 2u);
  EXPECT_EQ(out.Row(20).size(), 2u);
  EXPECT_EQ(out.Row(0).size(), 0u);
  for (const SimEntry& e : out.Row(10)) {
    EXPECT_GE(e.column, 5);
    EXPECT_LE(e.column, 8);
  }
}

// Exact TopKInto against a pair-at-a-time oracle: every pair scored
// through ScorePair, offered in ascending id order to one TopKHeap per
// row, drained and scattered into a matrix. Target sizes cover the
// four-pair remainders (1-3, 4n +/- 1) and both sides of the tile edge
// (TopKTileRows +/- 1..3); duplicated target rows make ties at the
// k-boundary; the dim leaves a kernel tail. The text form compares the
// two matrices byte for byte (%.9g round-trips every float).
TEST(TopKTest, ExactMatchesPairAtATimeOracleAcrossRemaindersTilesAndThreads) {
  const int32_t saved_threads = par::ThreadPool::Get().num_threads();
  constexpr int64_t kDim = 60;
  const int64_t tile_rows = par::TopKTileRows(kDim);
  const simd::KernelTable& kt = simd::Kernels();
  for (const SimMetric metric : {SimMetric::kManhattan, SimMetric::kDot}) {
    const TopKOptions topk{.k = 7, .metric = metric};
    for (const int64_t target_rows :
         {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{63}, int64_t{65},
          tile_rows - 3, tile_rows - 2, tile_rows - 1, tile_rows + 1,
          tile_rows + 2, tile_rows + 3}) {
      Rng rng(83);
      Matrix target(target_rows, kDim);
      target.GlorotInit(rng);
      for (int64_t r = 0; r + 1 < target_rows; r += 5) {
        std::copy(target.Row(r), target.Row(r) + kDim, target.Row(r + 1));
      }
      // 130 rows make 8-row blocks, and at one thread ParallelFor's
      // chunk cap merges them into chunks of more than one block.
      Matrix source(130, kDim);
      source.GlorotInit(rng);
      std::vector<EntityId> row_ids(source.rows());
      std::iota(row_ids.begin(), row_ids.end(), 0);
      std::vector<EntityId> col_ids(target_rows);
      std::iota(col_ids.begin(), col_ids.end(), 0);

      SparseSimMatrix expected(static_cast<int32_t>(source.rows()),
                               static_cast<int32_t>(target_rows), topk.k);
      std::vector<std::pair<float, int32_t>> drained;
      int64_t ties = 0;
      for (int32_t i = 0; i < source.rows(); ++i) {
        TopKHeap heap(topk.k);
        for (int32_t j = 0; j < target_rows; ++j) {
          heap.Offer(j, ScorePair(kt, source.Row(i), target.Row(j), kDim,
                                  metric));
        }
        heap.Drain(drained);
        for (size_t e = 0; e < drained.size(); ++e) {
          expected.Accumulate(i, drained[e].second, drained[e].first);
          ties += e > 0 && drained[e].first == drained[e - 1].first;
        }
      }
      if (target_rows > 5) {
        ASSERT_GT(ties, 0) << target_rows;
      }
      const std::string want = MatrixBytes(expected);

      for (const int32_t threads : {1, 2, 8}) {
        par::ThreadPool::Get().SetNumThreads(threads);
        SparseSimMatrix out(static_cast<int32_t>(source.rows()),
                            static_cast<int32_t>(target_rows), topk.k);
        TopKInto(source, row_ids, target, col_ids, /*index=*/nullptr, topk,
                 out);
        EXPECT_EQ(MatrixBytes(out), want)
            << "metric=" << static_cast<int>(metric)
            << " target_rows=" << target_rows << " threads=" << threads;
      }
    }
  }
  par::ThreadPool::Get().SetNumThreads(saved_threads);
}

// The rows set in a Query() bitset, ascending.
std::vector<int32_t> QueryRows(const LshIndex& index, const float* vec) {
  std::vector<uint64_t> bits(BitsetWords(index.num_rows()), 0);
  index.Query(vec, bits.data());
  std::vector<int32_t> rows;
  for (int32_t j = 0; j < index.num_rows(); ++j) {
    if ((bits[j >> 6] >> (j & 63)) & 1) rows.push_back(j);
  }
  return rows;
}

// Oracle that shares nothing with the bucket layout: row j is a
// candidate of `vec` when, in some table, its key and vec's key differ
// in at most probe_radius bits.
std::vector<int32_t> KeyOracle(const LshIndex& index, const Matrix& data,
                               const float* vec) {
  std::vector<int32_t> rows;
  for (int32_t j = 0; j < data.rows(); ++j) {
    for (int32_t t = 0; t < index.options().num_tables; ++t) {
      if (std::popcount(index.Key(vec, t) ^ index.Key(data.Row(j), t)) <=
          index.options().probe_radius) {
        rows.push_back(j);
        break;
      }
    }
  }
  return rows;
}

TEST(LshTest, FindsIdenticalVectors) {
  Rng rng(47);
  Matrix data(200, 16);
  data.GlorotInit(rng);
  L2NormalizeRows(data);
  const LshIndex index(data, LshOptions{.num_tables = 12,
                                        .bits_per_table = 8,
                                        .seed = 3});
  // Querying with a stored vector must return it.
  int found = 0;
  for (int32_t i = 0; i < 200; ++i) {
    const std::vector<int32_t> candidates = QueryRows(index, data.Row(i));
    if (std::find(candidates.begin(), candidates.end(), i) !=
        candidates.end()) {
      ++found;
    }
  }
  EXPECT_EQ(found, 200);
}

TEST(LshTest, NearNeighborsRecall) {
  Rng rng(53);
  const int32_t n = 300, dim = 32;
  Matrix base(n, dim), noisy(n, dim);
  base.GlorotInit(rng);
  L2NormalizeRows(base);
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t d = 0; d < dim; ++d) {
      noisy.At(i, d) =
          base.At(i, d) + 0.05f * static_cast<float>(rng.Gaussian());
    }
  }
  L2NormalizeRows(noisy);
  const LshIndex index(base, LshOptions{.num_tables = 16,
                                        .bits_per_table = 10,
                                        .seed = 5});
  int recalled = 0;
  for (int32_t i = 0; i < n; ++i) {
    const std::vector<int32_t> candidates = QueryRows(index, noisy.Row(i));
    if (std::find(candidates.begin(), candidates.end(), i) !=
        candidates.end()) {
      ++recalled;
    }
  }
  // Slightly-perturbed points should collide nearly always.
  EXPECT_GT(recalled, static_cast<int>(0.9 * n));
}

TEST(LshTest, QueryBitsetMatchesKeyDistanceOracle) {
  // Row counts on both sides of a 64-row bitset word; both radii; stored
  // and unseen query vectors.
  for (const int32_t rows : {1, 63, 64, 65, 130}) {
    const Matrix data = [&] {
      Rng rng(61 + rows);
      Matrix m(rows, 12);
      m.GlorotInit(rng);
      return m;
    }();
    Rng rng(67);
    Matrix queries(8, 12);
    queries.GlorotInit(rng);
    for (const int32_t radius : {0, 1}) {
      const LshIndex index(data, LshOptions{.num_tables = 4,
                                            .bits_per_table = 5,
                                            .probe_radius = radius,
                                            .seed = 9});
      ASSERT_EQ(index.num_rows(), rows);
      for (int32_t q = 0; q < queries.rows(); ++q) {
        EXPECT_EQ(QueryRows(index, queries.Row(q)),
                  KeyOracle(index, data, queries.Row(q)))
            << "rows=" << rows << " radius=" << radius << " q=" << q;
      }
      const int32_t last = rows - 1;
      EXPECT_EQ(QueryRows(index, data.Row(last)),
                KeyOracle(index, data, data.Row(last)));
    }
  }
}

TEST(LshTest, QueryOrsIntoTheCallersBitset) {
  Rng rng(71);
  Matrix data(100, 8);
  data.GlorotInit(rng);
  const LshIndex index(data, LshOptions{.num_tables = 2, .bits_per_table = 6});
  std::vector<uint64_t> bits(BitsetWords(index.num_rows()), 0);
  bits.back() = uint64_t{1} << 35;  // row 99, set before the query
  index.Query(data.Row(0), bits.data());
  EXPECT_TRUE((bits.back() >> 35) & 1);
  EXPECT_TRUE(bits.front() & 1);  // row 0 collides with itself
}

// TopKInto through an LSH index against a scan with no bitset, no tiles
// and no blocks: the key oracle's candidates, scored one by one, sorted
// by the heap's own ranking and cut at k.
TEST(LshTest, TopKMatchesOracleHeapsAcrossWordsTilesAndThreads) {
  const int32_t saved_threads = par::ThreadPool::Get().num_threads();
  constexpr int64_t kDim = 64;
  const int64_t tile_rows = par::TopKTileRows(kDim);
  const LshOptions wide{.num_tables = 3, .bits_per_table = 3};
  const TopKOptions topk{.k = 7, .metric = SimMetric::kManhattan};
  const simd::KernelTable& kt = simd::Kernels();
  for (const int64_t target_rows :
       {int64_t{63}, int64_t{65}, tile_rows + 1, tile_rows + 70}) {
    Rng rng(79);
    Matrix target(target_rows, kDim);
    target.GlorotInit(rng);
    // Exact duplicates score identically against every source row, so
    // the k-boundary and the drain order both go through the id
    // tie-break.
    for (int64_t r = 0; r + 1 < target_rows; r += 5) {
      std::copy(target.Row(r), target.Row(r) + kDim, target.Row(r + 1));
    }
    // 130 rows make 8-row blocks, and at one thread ParallelFor's chunk
    // cap merges them into chunks of more than one block.
    Matrix source(130, kDim);
    source.GlorotInit(rng);
    const LshIndex index(target, wide);
    std::vector<EntityId> row_ids(source.rows());
    std::iota(row_ids.begin(), row_ids.end(), 0);
    std::vector<EntityId> col_ids(target_rows);
    std::iota(col_ids.begin(), col_ids.end(), 0);

    std::vector<std::vector<std::pair<float, int32_t>>> expected;
    int64_t ties = 0;
    for (int32_t i = 0; i < source.rows(); ++i) {
      std::vector<std::pair<float, int32_t>> scored;
      for (const int32_t j : KeyOracle(index, target, source.Row(i))) {
        scored.push_back({ScorePair(kt, source.Row(i), target.Row(j), kDim,
                                    topk.metric),
                          j});
      }
      std::sort(scored.begin(), scored.end(), TopKHeap::Better);
      if (scored.size() > static_cast<size_t>(topk.k)) scored.resize(topk.k);
      for (size_t e = 1; e < scored.size(); ++e) {
        ties += scored[e].first == scored[e - 1].first;
      }
      expected.push_back(std::move(scored));
    }
    ASSERT_GT(ties, 0);

    for (const int32_t threads : {1, 2, 8}) {
      par::ThreadPool::Get().SetNumThreads(threads);
      SparseSimMatrix out(static_cast<int32_t>(source.rows()),
                          static_cast<int32_t>(target_rows), topk.k);
      TopKInto(source, row_ids, target, col_ids, &index, topk, out);
      for (int32_t i = 0; i < source.rows(); ++i) {
        const auto row = out.Row(i);
        ASSERT_EQ(row.size(), expected[i].size())
            << "target_rows=" << target_rows << " threads=" << threads;
        for (size_t e = 0; e < row.size(); ++e) {
          EXPECT_EQ(row[e].column, expected[i][e].second);
          EXPECT_EQ(row[e].score, expected[i][e].first);
        }
      }
    }
  }
  par::ThreadPool::Get().SetNumThreads(saved_threads);
}

TEST(LshTest, LshTopKFindsPlantedMatches) {
  Rng rng(59);
  const int32_t n = 200, dim = 24;
  Matrix target(n, dim);
  target.GlorotInit(rng);
  L2NormalizeRows(target);
  Matrix source = target;  // exact copies: planted 1-1 matches
  const LshIndex index(target, LshOptions{.num_tables = 12,
                                          .bits_per_table = 10,
                                          .seed = 7});
  std::vector<EntityId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  SparseSimMatrix out(n, n, 5);
  TopKInto(source, ids, target, ids, &index,
           TopKOptions{.k = 5, .metric = SimMetric::kManhattan}, out);
  int hits = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (out.ArgmaxOfRow(i) == i) ++hits;
  }
  EXPECT_GT(hits, static_cast<int>(0.95 * n));
}

}  // namespace
}  // namespace largeea
