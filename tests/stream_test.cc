// The memory-budgeted streaming layer (DESIGN.md §10): a spilled matrix
// maps back bit-exactly and leaves no file behind, a failed spill write
// leaves no file and keeps SENS on its in-memory target, a damaged spill
// aborts, SENS over a spilled target matches SENS in memory (exact and
// LSH, at any chunk size and thread count, for empty and one-row targets),
// FuseStreamed matches Fuse entry for entry, and the full budgeted
// pipeline reproduces the unbudgeted fused matrix, metrics and stream.*
// counters bit-identically — at any thread count and on every SIMD
// backend this CPU has.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"
#include "src/la/matrix.h"
#include "src/name/semantic_sim.h"
#include "src/obs/metrics.h"
#include "src/par/thread_pool.h"
#include "src/rt/artifact.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/sim/sparse_sim.h"
#include "src/simd/simd.h"
#include "src/stream/memory_budget.h"
#include "src/stream/spill.h"
#include "src/stream/stream_context.h"
#include "src/stream/stream_options.h"

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

// ---------------------------------------------------------------------
// The spill: written in chunks, verified, mapped, and gone from its
// directory once mapped.

/// A fresh directory per test, removed with whatever is left in it.
class SpillDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("largeea_spill_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The names of the files in the spill directory.
  std::vector<std::string> FilesInDir() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }

  std::string dir_;
};

/// Hands out rows [begin, end) of `full`, as the encoder hands out names.
stream::RowChunkFn CopyRows(const Matrix& full) {
  return [&full](int64_t begin, int64_t end) {
    Matrix chunk(end - begin, full.cols());
    if (chunk.size() > 0) {
      std::memcpy(chunk.data(), full.Row(begin),
                  static_cast<size_t>(chunk.size()) * sizeof(float));
    }
    return chunk;
  };
}

/// Bit-exact, row by row: the spill must not perturb one ulp.
void ExpectRowsEq(const MatrixRowRange& rows, const Matrix& full) {
  ASSERT_EQ(rows.rows(), full.rows());
  ASSERT_EQ(rows.cols(), full.cols());
  for (int64_t r = 0; r < full.rows(); ++r) {
    ASSERT_EQ(std::memcmp(rows.Row(r), full.Row(r),
                          static_cast<size_t>(full.cols()) * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST_F(SpillDirTest, MapsBackBitExactlyAtAnyChunkSizeAndLeavesNoFile) {
  const Matrix full = RandomMatrix(100, 16, 99);
  auto& metrics = obs::MetricsRegistry::Get();
  obs::Counter& tiles = metrics.GetCounter("stream.spill.tiles");
  obs::Counter& bytes = metrics.GetCounter("stream.spill.bytes");
  const size_t payload = 16 + 100 * 16 * sizeof(float);
  const int64_t file_bytes = static_cast<int64_t>(
      rt::ArtifactHeader(rt::kTileFamily, "dense", 0,
                         std::string(payload, '\0'))
          .size() +
      payload);
  for (const int64_t chunk_rows : {1, 7, 48, 100, 500}) {
    SCOPED_TRACE(testing::Message() << "chunk_rows=" << chunk_rows);
    const int64_t tiles_before = tiles.Value();
    const int64_t bytes_before = bytes.Value();
    const StatusOr<stream::SpilledMatrix> spilled =
        stream::SpillMatrix(dir_, 100, 16, chunk_rows, CopyRows(full));
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    ExpectRowsEq(spilled->rows(), full);
    EXPECT_EQ(tiles.Value() - tiles_before,
              (100 + chunk_rows - 1) / chunk_rows);
    EXPECT_EQ(bytes.Value() - bytes_before, file_bytes);
    EXPECT_TRUE(FilesInDir().empty());
  }
}

TEST_F(SpillDirTest, EmptyAndOneRowMatricesMapBack) {
  for (const int64_t rows : {0, 1}) {
    const Matrix full = RandomMatrix(rows, 12, 5);
    const StatusOr<stream::SpilledMatrix> spilled =
        stream::SpillMatrix(dir_, rows, 12, 1, CopyRows(full));
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    ExpectRowsEq(spilled->rows(), full);
    EXPECT_TRUE(FilesInDir().empty());
  }
}

TEST_F(SpillDirTest, MapSpillVerifiesTheChecksumAndTheShape) {
  const Matrix full = RandomMatrix(40, 8, 3);
  const std::string path = dir_ + "/m.bin";
  int64_t written = 0;
  ASSERT_TRUE(stream::WriteSpill(path, 40, 8, 16, CopyRows(full), &written)
                  .ok());
  EXPECT_EQ(written, static_cast<int64_t>(fs::file_size(path)));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  {
    const StatusOr<stream::SpilledMatrix> mapped =
        stream::MapSpill(path, 40, 8);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ExpectRowsEq(mapped->rows(), full);
  }
  EXPECT_EQ(stream::MapSpill(path, 8, 40).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(stream::MapSpill(path, 39, 8).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(stream::MapSpill(dir_ + "/gone.bin", 40, 8).status().code(),
            StatusCode::kNotFound);
  // One flipped bit in the last float: the checksum refuses the file
  // before any row can be read.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    const char byte = static_cast<char>(f.get());
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  const StatusOr<stream::SpilledMatrix> damaged =
      stream::MapSpill(path, 40, 8);
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(damaged.status().message().find("checksum mismatch"),
            std::string::npos);
}

#if LARGEEA_FAULT_INJECTION
TEST_F(SpillDirTest, FailedWriteIsCountedAndLeavesNoFile) {
  auto& metrics = obs::MetricsRegistry::Get();
  obs::Counter& failures = metrics.GetCounter("stream.spill_failures");
  obs::Counter& bytes = metrics.GetCounter("stream.spill.bytes");
  const int64_t failures_before = failures.Value();
  const int64_t bytes_before = bytes.Value();
  // The third chunk's write fails, as on a disk that fills up mid-file.
  rt::FaultInjector::Get().Arm(
      "stream.spill.write",
      rt::FaultSpec{StatusCode::kUnavailable, "scratch disk full", 3, 1,
                    rt::FaultAction::kFail});
  const Matrix full = RandomMatrix(100, 16, 9);
  const StatusOr<stream::SpilledMatrix> spilled =
      stream::SpillMatrix(dir_, 100, 16, 10, CopyRows(full));
  rt::FaultInjector::Get().Reset();
  EXPECT_EQ(spilled.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failures.Value() - failures_before, 1);
  EXPECT_EQ(bytes.Value(), bytes_before);
  EXPECT_TRUE(FilesInDir().empty());
}
#endif  // LARGEEA_FAULT_INJECTION

// DESIGN.md §10: a spill whose file no longer matches what was written
// aborts the run rather than feed it wrong floats, and never returns. The
// last chunk's request damages a row already written, as a failing disk
// would, so the checksum of the rows as they were written no longer
// matches the file.
TEST(SpillDeathTest, DamagedSpillAbortsWithDataLoss) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The aborting child leaves its file behind; the parent removes it, so
  // the name must not depend on the process.
  const std::string dir =
      (fs::temp_directory_path() / "largeea_spill_death_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Matrix full = RandomMatrix(64, 16, 7);
  const stream::RowChunkFn copy = CopyRows(full);
  const auto damage_then_copy = [&](int64_t begin, int64_t end) {
    if (end == full.rows()) {
      for (const auto& entry : fs::directory_iterator(dir)) {
        std::fstream f(entry.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(rt::kPayloadAlignment + 16);
        const char byte = static_cast<char>(f.get());
        f.seekp(rt::kPayloadAlignment + 16);
        f.put(static_cast<char>(byte ^ 0x10));
      }
    }
    return copy(begin, end);
  };
  EXPECT_DEATH(
      (void)stream::SpillMatrix(dir, 64, 16, 16, damage_then_copy),
      "cannot map spill .*DATA_LOSS.*checksum mismatch");
  fs::remove_all(dir);
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

EaDataset SmallDataset() {
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
  spec.world.num_entities = 300;
  return GenerateBenchmark(spec);
}

// ---------------------------------------------------------------------
// SENS over a spilled target, exact and LSH: the same bytes as SENS in
// memory.

class SpilledSensTest : public SpillDirTest,
                        public ::testing::WithParamInterface<bool> {
 protected:
  void SetUp() override {
    SpillDirTest::SetUp();
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    SpillDirTest::TearDown();
  }

  SensOptions Options() const {
    SensOptions options;
    options.top_k = 10;
    options.use_lsh = GetParam();
    return options;
  }

  /// A 1 MiB budget's context spilling into the test's directory.
  stream::StreamContext Context(int32_t tile_rows) const {
    stream::StreamOptions options;
    options.memory_budget_mb = 1;
    options.tile_rows = tile_rows;
    options.spill_dir = dir_;
    return stream::StreamContext(options);
  }

  int32_t saved_threads_ = 1;
  const EaDataset dataset_ = SmallDataset();
};

INSTANTIATE_TEST_SUITE_P(, SpilledSensTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Lsh" : "Exact");
                         });

TEST_P(SpilledSensTest, MatchesInMemoryAcrossChunkRowsAndThreads) {
  const SparseSimMatrix expected =
      ComputeSemanticSimilarity(dataset_.source, dataset_.target, Options());
  ASSERT_GT(expected.TotalEntries(), 0);
  for (const int32_t tile_rows : {1, 7, 64, 0}) {
    for (const int32_t threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "tile_rows=" << tile_rows
                                      << " threads=" << threads);
      par::ThreadPool::Get().SetNumThreads(threads);
      stream::StreamContext ctx = Context(tile_rows);
      ExpectSparseEq(expected,
                     ComputeSemanticSimilarity(dataset_.source,
                                               dataset_.target, Options(),
                                               &ctx));
      EXPECT_TRUE(FilesInDir().empty());
    }
  }
}

TEST_P(SpilledSensTest, EmptyAndOneRowTargetsMatchInMemory) {
  for (const int32_t rows : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "target rows=" << rows);
    KnowledgeGraph target;
    for (int32_t e = 0; e < rows; ++e) {
      target.AddEntity(dataset_.target.EntityName(e));
    }
    const SparseSimMatrix expected =
        ComputeSemanticSimilarity(dataset_.source, target, Options());
    stream::StreamContext ctx = Context(0);
    const SparseSimMatrix spilled =
        ComputeSemanticSimilarity(dataset_.source, target, Options(), &ctx);
    ExpectSparseEq(expected, spilled);
    EXPECT_LE(spilled.TotalEntries(), rows * dataset_.source.num_entities());
    EXPECT_TRUE(FilesInDir().empty());
  }
}

#if LARGEEA_FAULT_INJECTION
TEST_P(SpilledSensTest, FailedSpillWriteKeepsTheTargetInMemoryBitIdentically) {
  const SparseSimMatrix expected =
      ComputeSemanticSimilarity(dataset_.source, dataset_.target, Options());
  obs::Counter& failures =
      obs::MetricsRegistry::Get().GetCounter("stream.spill_failures");
  const int64_t failures_before = failures.Value();
  // Every spill write fails from the second chunk on: a full or broken
  // scratch disk. SENS must search the target in memory instead, with the
  // same bytes.
  rt::FaultInjector::Get().Arm(
      "stream.spill.write",
      rt::FaultSpec{StatusCode::kUnavailable, "scratch disk full", 2, -1,
                    rt::FaultAction::kFail});
  stream::StreamContext ctx = Context(64);
  const SparseSimMatrix streamed = ComputeSemanticSimilarity(
      dataset_.source, dataset_.target, Options(), &ctx);
  rt::FaultInjector::Get().Reset();
  ExpectSparseEq(expected, streamed);
  EXPECT_EQ(failures.Value() - failures_before, 1);
  EXPECT_TRUE(FilesInDir().empty());
}
#endif  // LARGEEA_FAULT_INJECTION

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

class StreamPipelineTest : public SpillDirTest {
 protected:
  void SetUp() override {
    SpillDirTest::SetUp();
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    SpillDirTest::TearDown();
  }
  int32_t saved_threads_ = 1;

  /// Every stream.* counter in the registry, by name.
  static std::map<std::string, int64_t> StreamCounters() {
    const std::string json = obs::MetricsRegistry::Get().ToJson();
    const size_t begin = json.find("\"counters\":{");
    const std::string counters =
        json.substr(begin, json.find('}', begin) - begin);
    static const std::regex kStreamCounter(
        R"re("(stream\.[^"]+)":(-?\d+))re");
    std::map<std::string, int64_t> values;
    for (std::sregex_iterator it(counters.begin(), counters.end(),
                                 kStreamCounter),
         end;
         it != end; ++it) {
      values[(*it)[1].str()] = std::stoll((*it)[2].str());
    }
    return values;
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
  const EaDataset dataset = SmallDataset();
  LargeEaOptions options = BaseOptions();
  options.stream.memory_budget_mb = 0;  // explicit: in-memory baseline
  const auto baseline = RunLargeEa(dataset, options);
  ASSERT_TRUE(baseline.ok());

  // Budget at roughly half the unbudgeted peak (floored at 1 MiB).
  const int64_t budget_mb =
      std::max<int64_t>(1, baseline->peak_bytes / 2 / (1 << 20));
  options.stream.memory_budget_mb = budget_mb;
  // Small chunks so the 300-entity fixture spills and searches in
  // several of them.
  options.stream.tile_rows = 64;
  options.stream.spill_dir = dir_;

  // The stream.* counters (spilled chunks and bytes, spill failures) are
  // a pure function of the inputs and the budget, never of the thread
  // count.
  std::map<std::string, int64_t> first_counters;
  for (const int32_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    par::ThreadPool::Get().SetNumThreads(threads);
    obs::MetricsRegistry::Get().Reset();
    const int64_t before = MemoryTracker::Get().CurrentBytes();
    const auto streamed = RunLargeEa(dataset, options);
    ASSERT_TRUE(streamed.ok());
    ExpectSameResult(*baseline, *streamed);
    // A budgeted run releases its intermediates (M_n and M_s included):
    // the only tracked bytes it leaves behind are M's.
    EXPECT_EQ(MemoryTracker::Get().CurrentBytes() - before,
              streamed->fused.MemoryBytes());
    EXPECT_TRUE(FilesInDir().empty());
    std::map<std::string, int64_t> counters = StreamCounters();
    EXPECT_GT(counters["stream.spill.bytes"], 0);
    EXPECT_GT(counters["stream.spill.tiles"], 0);
    if (first_counters.empty()) {
      first_counters = counters;
    } else {
      EXPECT_EQ(counters, first_counters);
    }
  }
}

TEST_F(StreamPipelineTest, BudgetedRunIsBitIdenticalAcrossSimdBackends) {
  const EaDataset dataset = SmallDataset();
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
  const EaDataset dataset = SmallDataset();
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
  const EaDataset dataset = SmallDataset();
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
