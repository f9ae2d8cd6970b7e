// The memory-budgeted streaming layer (DESIGN.md §10): tile spill and
// reload round-trip bit-exactly, the LRU cache evicts under a tiny
// budget and transparently reloads, the spilled top-k sweep (exact and
// LSH) matches the in-memory one byte for byte while reading each tile
// at most once per source block, FuseStreamed matches Fuse entry for
// entry, and the full budgeted pipeline reproduces the unbudgeted fused
// matrix and metrics bit-identically — at any thread count and on every
// SIMD backend this CPU has.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"
#include "src/la/matrix.h"
#include "src/obs/metrics.h"
#include "src/par/thread_pool.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/sim/lsh.h"
#include "src/sim/sparse_sim.h"
#include "src/sim/topk_search.h"
#include "src/simd/simd.h"
#include "src/stream/memory_budget.h"
#include "src/stream/stream_options.h"
#include "src/stream/tile_store.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

stream::MemoryBudget BudgetOfMb(int64_t mb, int32_t tile_rows = 0) {
  stream::StreamOptions options;
  options.memory_budget_mb = mb;
  options.tile_rows = tile_rows;
  return stream::MemoryBudget(options);
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.GlorotInit(rng);
  return m;
}

void ExpectMatrixEq(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c)) << "at (" << r << "," << c << ")";
    }
  }
}

TEST(StreamOptionsTest, EnvResolutionRespectsExplicitValues) {
  stream::StreamOptions explicit_off;
  explicit_off.memory_budget_mb = 0;
  EXPECT_EQ(stream::ResolveStreamOptions(explicit_off).memory_budget_mb, 0);
  EXPECT_FALSE(stream::StreamingEnabled(explicit_off));

  stream::StreamOptions explicit_on;
  explicit_on.memory_budget_mb = 64;
  EXPECT_EQ(stream::ResolveStreamOptions(explicit_on).memory_budget_mb, 64);
  EXPECT_TRUE(stream::StreamingEnabled(explicit_on));
}

TEST(StreamOptionsTest, EnvBudgetAboveTheByteRangeIsIgnored) {
  // An unset budget consults LARGEEA_MEMORY_BUDGET_MB; a value whose
  // byte count would overflow int64_t is malformed, like "abc" or -1.
  const char* saved = std::getenv("LARGEEA_MEMORY_BUDGET_MB");
  const std::string restore = saved != nullptr ? saved : "";
  const stream::StreamOptions unset;
  const auto resolved_with = [&](const std::string& value) {
    setenv("LARGEEA_MEMORY_BUDGET_MB", value.c_str(), /*overwrite=*/1);
    return stream::ResolveStreamOptions(unset).memory_budget_mb;
  };
  EXPECT_EQ(resolved_with("12"), 12);
  EXPECT_EQ(resolved_with(std::to_string(stream::kMaxMemoryBudgetMb)),
            stream::kMaxMemoryBudgetMb);
  EXPECT_EQ(resolved_with(std::to_string(stream::kMaxMemoryBudgetMb + 1)), 0);
  EXPECT_EQ(resolved_with("9223372036854775807"), 0);
  EXPECT_EQ(resolved_with("-1"), 0);
  if (saved != nullptr) {
    setenv("LARGEEA_MEMORY_BUDGET_MB", restore.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("LARGEEA_MEMORY_BUDGET_MB");
  }
}

TEST(MemoryBudgetTest, TileRowsHonourBudgetAndBounds) {
  // Explicit tile_rows wins, clamped to the matrix.
  EXPECT_EQ(BudgetOfMb(8, 100).TileRowsFor(1000, 1024), 100);
  EXPECT_EQ(BudgetOfMb(8, 5000).TileRowsFor(1000, 1024), 1000);
  // Disabled budget: one tile spanning everything.
  EXPECT_EQ(BudgetOfMb(0).TileRowsFor(1000, 1024), 1000);
  // Auto sizing: ~kAutoTilesPerBudget tiles per budget, floored.
  const int64_t rows = BudgetOfMb(8).TileRowsFor(1'000'000, 1024);
  EXPECT_GE(rows, stream::MemoryBudget::kMinTileRows);
  EXPECT_LE(rows, (int64_t{8} << 20) / 1024);
}

TEST(TileStoreTest, SpillReloadRoundTripIsBitExact) {
  const stream::MemoryBudget budget = BudgetOfMb(1);
  stream::TileStore store(budget);
  std::vector<Matrix> originals;
  std::vector<stream::TileId> ids;
  for (int i = 0; i < 6; ++i) {
    originals.push_back(RandomMatrix(64, 32, 1000 + i));
    ids.push_back(store.Put(originals.back()));
  }
  EXPECT_EQ(store.num_tiles(), 6);
  for (int i = 0; i < 6; ++i) {
    const std::shared_ptr<const Matrix> tile = store.Get(ids[i]);
    ASSERT_NE(tile, nullptr);
    ExpectMatrixEq(*tile, originals[i]);
  }
}

#if LARGEEA_FAULT_INJECTION
TEST(TileStoreTest, SpillWriteFailurePinsTilesInRamBitIdentically) {
  auto& metrics = obs::MetricsRegistry::Get();
  const int64_t failures_before =
      metrics.GetCounter("stream.spill_failures").Value();

  // Every spill write fails from here on — a full or broken scratch
  // disk. The store must fall back to pinning tiles in RAM and serve
  // every read with the exact bytes that were Put.
  rt::FaultInjector::Get().Arm(
      "stream.spill.write",
      rt::FaultSpec{StatusCode::kUnavailable, "scratch disk full", 1, -1,
                    rt::FaultAction::kFail});
  {
    const stream::MemoryBudget budget = BudgetOfMb(1);
    stream::TileStore store(budget);
    std::vector<Matrix> originals;
    std::vector<stream::TileId> ids;
    for (int i = 0; i < 6; ++i) {
      originals.push_back(RandomMatrix(64, 32, 2000 + i));
      ids.push_back(store.Put(originals.back()));
    }
    for (int i = 0; i < 6; ++i) {
      const std::shared_ptr<const Matrix> tile = store.Get(ids[i]);
      ASSERT_NE(tile, nullptr);
      ExpectMatrixEq(*tile, originals[i]);
    }
  }
  rt::FaultInjector::Get().Reset();

  EXPECT_GT(metrics.GetCounter("stream.spill_failures").Value(),
            failures_before);
}
#endif  // LARGEEA_FAULT_INJECTION

TEST(TileStoreTest, EvictsUnderTinyBudgetAndReloadsEvictedTiles) {
  auto& metrics = obs::MetricsRegistry::Get();
  const int64_t evictions_before =
      metrics.GetCounter("stream.cache.evictions").Value();

  // 1 MiB budget, but the tracker is already charged for the live test
  // process, so the cache runs at its floor of 3 tiles; 8 tiles of
  // 128x256 floats (128 KiB each) must evict.
  const stream::MemoryBudget budget = BudgetOfMb(1);
  stream::TileStore store(budget);
  std::vector<Matrix> originals;
  std::vector<stream::TileId> ids;
  for (int i = 0; i < 8; ++i) {
    originals.push_back(RandomMatrix(128, 256, 2000 + i));
    ids.push_back(store.Put(originals.back()));
  }
  const int64_t tile_bytes = 128 * 256 * sizeof(float);
  EXPECT_LE(store.ResidentBytes(),
            budget.CacheCapacityBytes(tile_bytes) + tile_bytes);
  EXPECT_GT(metrics.GetCounter("stream.cache.evictions").Value(),
            evictions_before);

  // Every tile — including evicted ones — reloads bit-exactly.
  for (int i = 0; i < 8; ++i) {
    const std::shared_ptr<const Matrix> tile = store.Get(ids[i]);
    ASSERT_NE(tile, nullptr);
    ExpectMatrixEq(*tile, originals[i]);
  }
}

// DESIGN.md §10: a spilled tile that fails its checksum at reload aborts
// the run rather than feed it wrong floats. Sixteen 128 KiB tiles under a
// 1 MiB budget evict at least the oldest, so its reload reads the
// damaged file.
TEST(TileStoreDeathTest, FlippedByteInASpilledTileAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The aborting child never runs the store's destructor, so the spill
  // directory is named here and removed by the parent.
  const std::string dir =
      (fs::temp_directory_path() / "largeea_tile_death_test").string();
  const auto reload_damaged_tile = [&dir] {
    const stream::MemoryBudget budget = BudgetOfMb(1);
    stream::TileStore store(budget, dir);
    std::vector<stream::TileId> ids;
    for (int i = 0; i < 16; ++i) {
      ids.push_back(store.Put(RandomMatrix(128, 256, 3000 + i)));
    }
    for (const auto& entry : fs::directory_iterator(store.spill_dir())) {
      std::fstream f(entry.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(-5, std::ios::end);
      const char byte = static_cast<char>(f.get());
      f.seekp(-5, std::ios::end);
      f.put(static_cast<char>(byte ^ 0x10));
    }
    for (const stream::TileId id : ids) (void)store.Get(id);
  };
  EXPECT_DEATH(reload_damaged_tile(),
               "cannot reload tile .*DATA_LOSS.*checksum mismatch");
  fs::remove_all(dir);
}

TEST(TileStoreTest, PinnedTilesSurviveEvictionPressure) {
  const stream::MemoryBudget budget = BudgetOfMb(1);
  stream::TileStore store(budget);
  const Matrix original = RandomMatrix(128, 256, 7);
  const stream::TileId first = store.Put(original);
  // Hold the pin while flooding the cache far past its capacity.
  const std::shared_ptr<const Matrix> pinned = store.Get(first);
  for (int i = 0; i < 8; ++i) {
    (void)store.Put(RandomMatrix(128, 256, 3000 + i));
  }
  // The pinned pointer must still see the original bytes.
  ExpectMatrixEq(*pinned, original);
}

TEST(TileStoreTest, PrefetchLoadsInBackground) {
  const stream::MemoryBudget budget = BudgetOfMb(1);
  stream::TileStore store(budget);
  std::vector<stream::TileId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(store.Put(RandomMatrix(128, 256, 4000 + i)));
  }
  // Early tiles were evicted by the later Puts; prefetch and drain,
  // then Get must hit without a synchronous load.
  const int64_t issued_before = obs::MetricsRegistry::Get()
                                    .GetCounter("stream.prefetch.issued")
                                    .Value();
  store.Prefetch(ids[0]);
  store.DrainPrefetches();
  EXPECT_GE(obs::MetricsRegistry::Get()
                .GetCounter("stream.prefetch.issued")
                .Value(),
            issued_before);
  const std::shared_ptr<const Matrix> tile = store.Get(ids[0]);
  ASSERT_NE(tile, nullptr);
  EXPECT_EQ(tile->rows(), 128);
}

TEST(TileMatrixTest, AppendAndTileViewsCoverAllRows) {
  const stream::MemoryBudget budget = BudgetOfMb(1);
  stream::TileStore store(budget);
  const Matrix full = RandomMatrix(100, 16, 99);
  stream::TileMatrix tiles(&store, 100, 16, 48);
  ASSERT_EQ(tiles.num_tiles(), 3);
  for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
    const int64_t begin = tiles.TileBegin(t);
    const int64_t end = tiles.TileEnd(t);
    Matrix block(end - begin, 16);
    for (int64_t r = begin; r < end; ++r) {
      for (int64_t c = 0; c < 16; ++c) block.At(r - begin, c) = full.At(r, c);
    }
    tiles.Append(std::move(block));
  }
  ASSERT_TRUE(tiles.complete());
  for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
    tiles.Prefetch(t + 1);  // out-of-range on the last tile: no-op
    const std::shared_ptr<const Matrix> tile = tiles.Tile(t);
    for (int64_t r = tiles.TileBegin(t); r < tiles.TileEnd(t); ++r) {
      for (int64_t c = 0; c < 16; ++c) {
        ASSERT_EQ(tile->At(r - tiles.TileBegin(t), c), full.At(r, c));
      }
    }
  }
}

// ---------------------------------------------------------------------
// The spilled top-k sweep, exact and LSH: tile-major over the target,
// bit-identical to the in-memory sweep, and reading each tile at most
// once per block.

// Cuts `full` into `tile_rows`-row tiles appended to a TileMatrix.
stream::TileMatrix TileCopy(stream::TileStore& store, const Matrix& full,
                            int64_t tile_rows) {
  stream::TileMatrix tiles(&store, full.rows(), full.cols(), tile_rows);
  for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
    Matrix block(tiles.TileEnd(t) - tiles.TileBegin(t), full.cols());
    const float* first = full.Row(tiles.TileBegin(t));
    std::copy(first, first + block.size(), block.data());
    tiles.Append(std::move(block));
  }
  return tiles;
}

void ExpectSparseEq(const SparseSimMatrix& a, const SparseSimMatrix& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int32_t r = 0; r < a.num_rows(); ++r) {
    const auto ra = a.Row(r);
    const auto rb = b.Row(r);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].column, rb[i].column) << "row " << r;
      // Bit-exact on purpose: streaming must not perturb one ulp.
      ASSERT_EQ(ra[i].score, rb[i].score) << "row " << r;
    }
  }
}

// Where a search's candidates come from: the parameter of the sweep
// tests that hold for both kinds.
enum class Candidates { kExact, kLsh };

class StreamedTopKTest : public ::testing::TestWithParam<Candidates> {
 protected:
  static constexpr int64_t kTileRows = 32;
  static constexpr int64_t kNumTiles = 10;

  void SetUp() override {
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
  }

  // Few short hashes make wide buckets, so every row's candidates
  // spread over most of the target and cross many tile boundaries.
  static LshOptions WideBuckets() {
    LshOptions lsh;
    lsh.num_tables = 3;
    lsh.bits_per_table = 3;
    return lsh;
  }

  // The index a parameterized search runs through: wide buckets over
  // `target` for LSH, none for exact search.
  static std::optional<LshIndex> IndexOver(const Matrix& target) {
    std::optional<LshIndex> index;
    if (GetParam() == Candidates::kLsh) index.emplace(target, WideBuckets());
    return index;
  }
  static const LshIndex* Ptr(const std::optional<LshIndex>& index) {
    return index.has_value() ? &*index : nullptr;
  }

  // One spilled search of source_ (a single block) against tiles_, with
  // the parameter's candidates. Returns the result; `misses` and
  // `issued` receive the call's stream.cache.misses and
  // stream.prefetch.issued.
  SparseSimMatrix SearchBlock(int64_t* misses, int64_t* issued) const {
    const std::optional<LshIndex> index = IndexOver(target_);
    auto& metrics = obs::MetricsRegistry::Get();
    const int64_t misses_before =
        metrics.GetCounter("stream.cache.misses").Value();
    const int64_t issued_before =
        metrics.GetCounter("stream.prefetch.issued").Value();
    std::vector<EntityId> row_ids(source_.rows());
    std::iota(row_ids.begin(), row_ids.end(), 0);
    SparseSimMatrix out(static_cast<int32_t>(source_.rows()),
                        static_cast<int32_t>(target_.rows()), 10);
    TopKInto(source_, row_ids, tiles_, Ptr(index), TopKOptions{}, out);
    *misses = metrics.GetCounter("stream.cache.misses").Value() -
              misses_before;
    *issued = metrics.GetCounter("stream.prefetch.issued").Value() -
              issued_before;
    return out;
  }

  int32_t saved_threads_ = 1;
  // Tracked ballast past the 1 MiB budget pins the cache at its floor
  // of three tiles, so a tile read twice is a reload.
  const TrackedAllocation ballast_{int64_t{4} << 20};
  stream::TileStore store_{BudgetOfMb(1)};
  const Matrix target_ = RandomMatrix(kTileRows * kNumTiles, 64, 31);
  const Matrix source_ = RandomMatrix(kTileRows, 64, 32);
  const stream::TileMatrix tiles_ = TileCopy(store_, target_, kTileRows);
};

INSTANTIATE_TEST_SUITE_P(
    , StreamedTopKTest,
    ::testing::Values(Candidates::kExact, Candidates::kLsh),
    [](const ::testing::TestParamInfo<Candidates>& info) {
      return std::string(info.param == Candidates::kLsh ? "Lsh" : "Exact");
    });

TEST_P(StreamedTopKTest, MatchesInMemoryAcrossTileRowsAndThreads) {
  constexpr int64_t kTargetRows = 150;
  constexpr int64_t kDim = 16;
  Matrix target = RandomMatrix(kTargetRows, kDim, 21);
  // Exact duplicates score identically against every source row, so the
  // k-boundary and the drain order both go through the id tie-break.
  for (int64_t r = 0; r + 1 < kTargetRows; r += 5) {
    std::copy(target.Row(r), target.Row(r) + kDim, target.Row(r + 1));
  }
  const Matrix source = RandomMatrix(40, kDim, 22);
  // Rows land at an offset in a larger matrix, as streamed blocks do.
  std::vector<EntityId> row_ids(source.rows());
  std::iota(row_ids.begin(), row_ids.end(), 3);
  std::vector<EntityId> col_ids(kTargetRows);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  const std::optional<LshIndex> index = IndexOver(target);
  const TopKOptions topk{.k = 7, .metric = SimMetric::kManhattan};

  SparseSimMatrix expected(50, kTargetRows, topk.k);
  TopKInto(source, row_ids, target, col_ids, Ptr(index), topk, expected);
  int64_t ties = 0;
  for (int32_t r = 0; r < expected.num_rows(); ++r) {
    const auto row = expected.Row(r);
    for (size_t i = 1; i < row.size(); ++i) {
      ties += row[i].score == row[i - 1].score;
    }
  }
  ASSERT_GT(ties, 0);

  for (const int64_t tile_rows : {int64_t{1}, int64_t{7}, int64_t{64},
                                  kTargetRows}) {
    const stream::TileMatrix tiles = TileCopy(store_, target, tile_rows);
    for (const int32_t threads : {1, 2, 8}) {
      par::ThreadPool::Get().SetNumThreads(threads);
      SparseSimMatrix streamed(50, kTargetRows, topk.k);
      TopKInto(source, row_ids, tiles, Ptr(index), topk, streamed);
      SCOPED_TRACE(testing::Message() << "tile_rows=" << tile_rows
                                      << " threads=" << threads);
      ExpectSparseEq(expected, streamed);
    }
  }
}

TEST_P(StreamedTopKTest, SearchReadsEachTileAtMostOncePerBlock) {
  int64_t misses = 0;
  int64_t issued = 0;
  const SparseSimMatrix out = SearchBlock(&misses, &issued);
  EXPECT_EQ(out.TotalEntries(), source_.rows() * 10);
  EXPECT_LE(misses, kNumTiles);
}

TEST_P(StreamedTopKTest, SearchPrefetchesEveryTileAfterTheFirst) {
  // Every tile holds a candidate of some row (for exact search, of every
  // row), so the sweep pins all of them in order and prefetches each
  // next one. The cache holds three tiles, so each tile was evicted
  // after its spill long before the sweep reaches it: every prefetch is
  // a real one.
  const std::optional<LshIndex> index = IndexOver(target_);
  if (index.has_value()) {
    std::vector<uint64_t> any(BitsetWords(target_.rows()), 0);
    for (int64_t i = 0; i < source_.rows(); ++i) {
      index->Query(source_.Row(i), any.data());
    }
    for (int64_t t = 0; t < kNumTiles; ++t) {
      int64_t in_tile = 0;
      for (int64_t j = t * kTileRows; j < (t + 1) * kTileRows; ++j) {
        in_tile += (any[j >> 6] >> (j & 63)) & 1;
      }
      ASSERT_GT(in_tile, 0) << "tile " << t;
    }
  }
  int64_t misses = 0;
  int64_t issued = 0;
  const SparseSimMatrix out = SearchBlock(&misses, &issued);
  EXPECT_EQ(issued, kNumTiles - 1);

  std::vector<EntityId> ids(target_.rows());
  std::iota(ids.begin(), ids.end(), 0);
  SparseSimMatrix in_memory(static_cast<int32_t>(source_.rows()),
                            static_cast<int32_t>(target_.rows()), 10);
  TopKInto(source_, std::span(ids).first(source_.rows()), target_, ids,
           Ptr(index), TopKOptions{}, in_memory);
  ExpectSparseEq(in_memory, out);
}

TEST_P(StreamedTopKTest, CountsEachRowOncePerSpilledCall) {
  // tiles_ spans ten tiles; the counters still see one pass per row.
  const std::string kind =
      GetParam() == Candidates::kLsh ? "topk.lsh." : "topk.exact.";
  auto& metrics = obs::MetricsRegistry::Get();
  obs::Counter& rows = metrics.GetCounter(kind + "rows");
  obs::Counter& scanned = metrics.GetCounter(kind + "candidates_scanned");
  const int64_t rows_before = rows.Value();
  const int64_t scanned_before = scanned.Value();
  int64_t misses = 0;
  int64_t issued = 0;
  SearchBlock(&misses, &issued);
  EXPECT_EQ(rows.Value() - rows_before, source_.rows());
  if (GetParam() == Candidates::kExact) {
    EXPECT_EQ(scanned.Value() - scanned_before,
              source_.rows() * target_.rows());
  }
}

TEST_F(StreamedTopKTest, LshSearchPinsOnlyTilesHoldingCandidates) {
  // One-row tiles and a one-row block: the row's candidates are a small
  // share of the target, and no other tile may be read, prefetches
  // included.
  stream::TileStore store(BudgetOfMb(1));
  const stream::TileMatrix one_row_tiles = TileCopy(store, target_, 1);
  const LshIndex index(target_, LshOptions{});
  std::vector<uint64_t> bits(BitsetWords(index.num_rows()), 0);
  index.Query(source_.Row(0), bits.data());
  int64_t candidates = 0;
  for (const uint64_t word : bits) candidates += std::popcount(word);
  ASSERT_LT(candidates, target_.rows() / 2);

  auto& misses = obs::MetricsRegistry::Get().GetCounter("stream.cache.misses");
  const int64_t misses_before = misses.Value();
  const std::vector<EntityId> row_ids = {0};
  SparseSimMatrix out(1, static_cast<int32_t>(target_.rows()), 10);
  TopKInto(MatrixRowRange(source_, 0, 1), row_ids, one_row_tiles, &index,
           TopKOptions{}, out);
  store.DrainPrefetches();
  EXPECT_LE(misses.Value() - misses_before, candidates);
}

TEST_P(StreamedTopKTest, PlanTrackedBytesAreItsBitsetsAndHeaps) {
  // A budget that caches every tile: after a warm-up call nothing reloads,
  // so the only tracked growth during a call is the plan itself.
  stream::TileStore store(BudgetOfMb(64));
  const stream::TileMatrix tiles = TileCopy(store, target_, kTileRows);
  const std::optional<LshIndex> index = IndexOver(target_);
  std::vector<EntityId> row_ids(source_.rows());
  std::iota(row_ids.begin(), row_ids.end(), 0);
  const TopKOptions topk{.k = 10};
  const auto search = [&] {
    SparseSimMatrix out(static_cast<int32_t>(source_.rows()),
                        static_cast<int32_t>(target_.rows()), topk.k);
    TopKInto(source_, row_ids, tiles, Ptr(index), topk, out);
  };
  search();
  auto& misses = obs::MetricsRegistry::Get().GetCounter("stream.cache.misses");
  const int64_t misses_before = misses.Value();
  MemoryTracker& tracker = MemoryTracker::Get();
  const int64_t before = tracker.CurrentBytes();
  tracker.ResetPeak();
  search();
  ASSERT_EQ(misses.Value(), misses_before);
  // With an index, one bit per target row, in whole 64-bit words, per
  // source row; and k (score, id) entries per row's heap, reserved up
  // front. Exact search plans nothing: the heaps are all.
  const int64_t bitsets =
      index.has_value() ? source_.rows() * BitsetWords(target_.rows()) * 8
                        : 0;
  const int64_t heaps =
      source_.rows() * topk.k *
      static_cast<int64_t>(sizeof(std::pair<float, int32_t>));
  EXPECT_EQ(tracker.PeakBytes() - before, bitsets + heaps);
  EXPECT_EQ(tracker.CurrentBytes(), before);
}

SparseSimMatrix RandomSparse(int32_t rows, int32_t cols, int32_t per_row,
                             uint64_t seed) {
  Rng rng(seed);
  SparseSimMatrix m(rows, cols, per_row);
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t e = 0; e < per_row; ++e) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(cols)),
                   static_cast<float>(rng.Uniform(1000)) * 1e-3f);
    }
  }
  return m;
}

TEST(FuseStreamedTest, MatchesFuseBitForBit) {
  const SparseSimMatrix a = RandomSparse(500, 400, 20, 5);
  const SparseSimMatrix b = RandomSparse(500, 400, 20, 6);
  const SparseSimMatrix fused = a.Fuse(b, 1.0f, 0.05f, 30);
  // Small rows_per_block forces several release/refresh cycles.
  const SparseSimMatrix streamed = SparseSimMatrix::FuseStreamed(
      SparseSimMatrix(a), SparseSimMatrix(b), 1.0f, 0.05f, 30,
      /*rows_per_block=*/64);
  ExpectSparseEq(fused, streamed);
}

uint64_t FusedHash(const SparseSimMatrix& m) {
  std::string bytes;
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    bytes.append(reinterpret_cast<const char*>(row.data()),
                 row.size_bytes());
  }
  return rt::Fnv1a64(bytes);
}

// ---------------------------------------------------------------------
// Pipeline-level bit-identity: streamed == in-memory, across thread
// counts and SIMD backends, with the tracked peak under the budget.

class StreamPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
  }
  int32_t saved_threads_ = 1;

  static EaDataset MakeDataset() {
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 300;
    return GenerateBenchmark(spec);
  }

  static LargeEaOptions BaseOptions() {
    LargeEaOptions options;
    options.structure_channel.train.epochs = 3;
    options.structure_channel.num_batches = 2;
    return options;
  }

  static void ExpectSameResult(const LargeEaResult& a,
                               const LargeEaResult& b) {
    ExpectSparseEq(a.fused, b.fused);
    EXPECT_EQ(a.effective_seeds, b.effective_seeds);
    EXPECT_DOUBLE_EQ(a.metrics.hits_at_1, b.metrics.hits_at_1);
    EXPECT_DOUBLE_EQ(a.metrics.hits_at_5, b.metrics.hits_at_5);
    EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr);
  }
};

TEST_F(StreamPipelineTest, BudgetedRunIsBitIdenticalAcrossThreads) {
  const EaDataset dataset = MakeDataset();
  LargeEaOptions options = BaseOptions();
  options.stream.memory_budget_mb = 0;  // explicit: in-memory baseline
  const auto baseline = RunLargeEa(dataset, options);
  ASSERT_TRUE(baseline.ok());

  // Budget at roughly half the unbudgeted peak (floored at 1 MiB).
  const int64_t budget_mb =
      std::max<int64_t>(1, baseline->peak_bytes / 2 / (1 << 20));
  options.stream.memory_budget_mb = budget_mb;
  // Tiny tiles so the 300-entity fixture actually exercises multi-tile
  // streaming, eviction, and prefetch.
  options.stream.tile_rows = 64;

  for (const int32_t threads : {1, 8}) {
    par::ThreadPool::Get().SetNumThreads(threads);
    const auto streamed = RunLargeEa(dataset, options);
    ASSERT_TRUE(streamed.ok()) << "threads=" << threads;
    ExpectSameResult(*baseline, *streamed);
    // release_inputs (default on) hands back empty intermediates.
    EXPECT_EQ(streamed->name_channel.nff.fused.TotalEntries(), 0);
    EXPECT_EQ(streamed->structure_channel.similarity.TotalEntries(), 0);
  }
}

TEST_F(StreamPipelineTest, BudgetedRunIsBitIdenticalAcrossSimdBackends) {
  const EaDataset dataset = MakeDataset();
  LargeEaOptions options = BaseOptions();
  options.stream.memory_budget_mb = 1;
  options.stream.tile_rows = 64;

  const simd::Backend original = simd::ActiveBackend();
  std::unique_ptr<LargeEaResult> first;
  for (const simd::Backend backend : simd::AvailableBackends()) {
    simd::SetBackend(backend);
    auto run = RunLargeEa(dataset, options);
    ASSERT_TRUE(run.ok()) << simd::BackendName(backend);
    if (!first) {
      first = std::make_unique<LargeEaResult>(std::move(*run));
    } else {
      ExpectSameResult(*first, *run);
    }
  }
  simd::SetBackend(original);
}

TEST_F(StreamPipelineTest, LshPathStreamsBitIdentically) {
  const EaDataset dataset = MakeDataset();
  LargeEaOptions options = BaseOptions();
  options.name_channel.nff.sens.use_lsh = true;
  options.stream.memory_budget_mb = 0;
  const auto baseline = RunLargeEa(dataset, options);
  ASSERT_TRUE(baseline.ok());

  options.stream.memory_budget_mb = 1;
  options.stream.tile_rows = 64;
  const auto streamed = RunLargeEa(dataset, options);
  ASSERT_TRUE(streamed.ok());
  ExpectSameResult(*baseline, *streamed);
}

TEST_F(StreamPipelineTest, HalfBudgetRunStaysUnderBudgetBitIdentically) {
  // Realistic enough that the whole-graph matrices dominate the peak
  // (at toy scale the 3-tile cache floor would dominate instead). Name
  // channel only: those are the streamed phases.
  const EaDataset dataset =
      GenerateBenchmark(Ids15kSpec(LanguagePair::kEnFr, 0.2));
  LargeEaOptions options;
  options.use_structure_channel = false;

  uint64_t baseline_hash = 0;
  int64_t baseline_peak = 0;
  {
    options.stream.memory_budget_mb = 0;
    const auto baseline = RunLargeEa(dataset, options);
    ASSERT_TRUE(baseline.ok());
    baseline_hash = FusedHash(baseline->fused);
    baseline_peak = baseline->peak_bytes;
  }  // freed before the budgeted run — a live result would count
     // against the budget's tracked total

  const int64_t budget_mb =
      std::max<int64_t>(1, baseline_peak / 2 / (1 << 20));
  options.stream.memory_budget_mb = budget_mb;
  const auto streamed = RunLargeEa(dataset, options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(FusedHash(streamed->fused), baseline_hash);
  EXPECT_LE(streamed->peak_bytes, budget_mb << 20)
      << "budget " << budget_mb << " MiB, baseline peak " << baseline_peak;
}

TEST_F(StreamPipelineTest, ReportsBudgetComplianceGauges) {
  const EaDataset dataset = MakeDataset();
  LargeEaOptions options = BaseOptions();
  options.stream.memory_budget_mb = 64;  // generous: must be compliant
  const auto run = RunLargeEa(dataset, options);
  ASSERT_TRUE(run.ok());
  auto& metrics = obs::MetricsRegistry::Get();
  EXPECT_EQ(metrics.GetGauge("stream.budget.bytes").Value(),
            static_cast<double>(int64_t{64} << 20));
  EXPECT_EQ(metrics.GetGauge("stream.budget.peak_bytes").Value(),
            static_cast<double>(run->peak_bytes));
  EXPECT_EQ(metrics.GetGauge("stream.budget.compliant").Value(), 1.0);
}

}  // namespace
}  // namespace largeea
