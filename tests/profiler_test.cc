// Tests for src/obs/profiler: the TSC clock, the disabled-cost and
// determinism guarantees (DESIGN.md §11), kernel/pool record contents,
// trace counter tracks, and the report's `profile` section.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"
#include "src/la/ops.h"
#include "src/nn/batch_graph.h"
#include "src/nn/ea_model.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/par/thread_pool.h"
#include "src/rt/io_util.h"
#include "src/sim/hnsw.h"
#include "src/sim/topk_search.h"

namespace largeea {
namespace {

// Every test restores the global profiler/pool state it touched: the
// profiler is a process-wide singleton and the rest of the suite runs in
// the same process.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = par::ThreadPool::Get().num_threads();
    obs::Profiler::Get().Disable();
    obs::Profiler::Get().Clear();
  }
  void TearDown() override {
    obs::Profiler::Get().Disable();
    obs::Profiler::Get().Clear();
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
  }

  int32_t saved_threads_ = 1;
};

TEST_F(ProfilerTest, TscClockTracksWallTime) {
  const uint64_t start = obs::TscClock::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double seconds = obs::TscClock::ToSeconds(obs::TscClock::Now() - start);
  // Generous bracket: the sleep may overshoot under load, but a clock
  // that is miscalibrated by 10x fails both bounds.
  EXPECT_GT(seconds, 0.010);
  EXPECT_LT(seconds, 2.0);
  EXPECT_GT(obs::TscClock::TicksPerSecond(), 1e6);
}

TEST_F(ProfilerTest, DisabledScopeCostsAlmostNothing) {
  // The acceptance bar for "off by default": a disabled ProfileScope is
  // one relaxed atomic load and a branch. 200ns per scope is ~100x the
  // real cost — loose enough for sanitizer builds and noisy CI, tight
  // enough to catch an accidental mutex or clock read on the fast path.
  ASSERT_FALSE(obs::ProfilingEnabled());
  constexpr int kScopes = 200000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kScopes; ++i) {
    obs::ProfileScope scope("test.disabled");
    scope.AddBytes(64, 64);
    scope.AddFlops(128);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds / kScopes, 200e-9)
      << "disabled ProfileScope costs " << seconds / kScopes * 1e9 << "ns";
  // And nothing was retained.
  EXPECT_TRUE(obs::Profiler::Get().KernelTotals().empty());
}

TEST_F(ProfilerTest, EnabledScopeRecordsCallsBytesAndDerivedRates) {
  obs::Profiler::Get().Enable();
  for (int i = 0; i < 3; ++i) {
    obs::ProfileScope scope("test.kernel");
    scope.AddBytes(1000, 500);
    scope.AddFlops(3000);
    // Make the measured time strictly positive on any clock.
    volatile double sink = 0.0;
    for (int j = 0; j < 1000; ++j) sink = sink + j;
  }
  const std::vector<obs::KernelProfile> totals =
      obs::Profiler::Get().KernelTotals();
  ASSERT_EQ(totals.size(), 1u);
  const obs::KernelProfile& k = totals[0];
  EXPECT_EQ(k.kernel, "test.kernel");
  EXPECT_EQ(k.thread_id, -1);  // cross-thread total
  EXPECT_EQ(k.calls, 3);
  EXPECT_EQ(k.bytes_read, 3000);
  EXPECT_EQ(k.bytes_written, 1500);
  EXPECT_EQ(k.flops, 9000);
  EXPECT_GT(k.seconds, 0.0);
  EXPECT_GT(k.GBPerSec(), 0.0);
  EXPECT_NEAR(k.ArithmeticIntensity(), 9000.0 / 4500.0, 1e-9);
}

TEST_F(ProfilerTest, ScopesNestAndAttributeToInnermost) {
  obs::Profiler::Get().Enable();
  EXPECT_STREQ(obs::CurrentProfileKernel(), "");
  {
    obs::ProfileScope outer("test.outer");
    EXPECT_STREQ(obs::CurrentProfileKernel(), "test.outer");
    {
      obs::ProfileScope inner("test.inner");
      EXPECT_STREQ(obs::CurrentProfileKernel(), "test.inner");
    }
    EXPECT_STREQ(obs::CurrentProfileKernel(), "test.outer");
  }
  EXPECT_STREQ(obs::CurrentProfileKernel(), "");
}

TEST_F(ProfilerTest, PoolJobRecordsChunkingAndUtilization) {
  obs::Profiler::Get().Enable();
  par::ThreadPool::Get().SetNumThreads(2);
  constexpr int64_t kRange = 1000;
  constexpr int64_t kGrain = 64;
  {
    obs::ProfileScope scope("test.pool_kernel");
    par::ParallelFor(0, kRange, kGrain, [](const par::ChunkRange& r) {
      volatile int64_t sink = 0;
      for (int64_t i = r.begin; i < r.end; ++i) sink = sink + i;
    });
  }
  const std::vector<obs::PoolJobProfile> jobs =
      obs::Profiler::Get().PoolJobs();
  ASSERT_EQ(jobs.size(), 1u);
  const obs::PoolJobProfile& job = jobs[0];
  EXPECT_EQ(job.kernel, "test.pool_kernel");
  EXPECT_EQ(job.chunks, (kRange + kGrain - 1) / kGrain);
  EXPECT_EQ(job.grain, kGrain);
  EXPECT_EQ(job.threads, 2);
  EXPECT_GT(job.wall_seconds, 0.0);
  EXPECT_GE(job.busy_seconds, 0.0);
  // max >= mean by construction, so the ratio is >= 1 whenever per-chunk
  // timing was captured at all.
  EXPECT_GE(job.ImbalanceRatio(), 1.0);
  EXPECT_GE(job.Utilization(), 0.0);
  EXPECT_LE(job.Utilization(), 1.5);  // clock-skew slack, not a target

  const std::vector<obs::PoolKernelTotal> totals =
      obs::Profiler::Get().PoolTotals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].kernel, "test.pool_kernel");
  EXPECT_EQ(totals[0].jobs, 1);
  EXPECT_EQ(totals[0].chunks, job.chunks);
}

// A kernel's imbalance and chunk CoV weigh its jobs by their time: one
// large balanced job plus many one-chunk jobs (each alone reads
// imbalance = threads) reads ~1, not the tiny jobs' 4.
TEST_F(ProfilerTest, PoolImbalanceAndChunkCovAreWeightedByJobTime) {
  obs::PoolJobProfile large;
  large.kernel = "test.weighted_kernel";
  large.chunks = 16;
  large.threads = 4;
  large.wall_seconds = 1.0;
  large.busy_seconds = 4.0;
  large.sum_chunk_seconds = 4.0;
  large.max_worker_seconds = 1.0;
  // 16 chunks of 0.25 s: CoV 0.
  large.sum_chunk_seconds_sq = 16 * 0.25 * 0.25;
  large.max_chunk_seconds = 0.25;
  obs::Profiler::Get().RecordPoolJob(large);
  for (int i = 0; i < 100; ++i) {
    obs::PoolJobProfile tiny;
    tiny.kernel = "test.weighted_kernel";
    tiny.chunks = 2;
    tiny.threads = 4;
    tiny.wall_seconds = 1e-4;
    tiny.busy_seconds = 1e-4;
    // Two chunks of 0 and 1e-4 s on one worker: imbalance 4, CoV 1.
    tiny.sum_chunk_seconds = 1e-4;
    tiny.sum_chunk_seconds_sq = 1e-8;
    tiny.max_chunk_seconds = 1e-4;
    tiny.max_worker_seconds = 1e-4;
    ASSERT_DOUBLE_EQ(tiny.ImbalanceRatio(), 4.0);
    ASSERT_DOUBLE_EQ(tiny.ChunkCov(), 1.0);
    obs::Profiler::Get().RecordPoolJob(tiny);
  }
  const std::vector<obs::PoolKernelTotal> totals =
      obs::Profiler::Get().PoolTotals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].jobs, 101);
  // (1.0 + 100 * 1e-4) / (1.0 + 100 * 0.25e-4) and 100 * 1e-4 / 4.01.
  EXPECT_NEAR(totals[0].Imbalance(), 1.0075, 1e-3);
  EXPECT_NEAR(totals[0].ChunkCov(), 0.0025, 1e-3);
}

TEST_F(ProfilerTest, OrderedReduceRecordsMergeTime) {
  obs::Profiler::Get().Enable();
  par::ThreadPool::Get().SetNumThreads(2);
  int64_t total = 0;
  {
    obs::ProfileScope scope("test.reduce_kernel");
    par::ParallelReduceOrdered<int64_t>(
        0, 256, 32,
        [](const par::ChunkRange& r, int64_t& state) {
          state = r.end - r.begin;
        },
        [&](const par::ChunkRange&, int64_t&& state) {
          // A deliberately slow serial merge so merge_seconds is
          // unambiguously positive even on coarse clocks.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          total += state;
        });
  }
  EXPECT_EQ(total, 256);
  const std::vector<obs::PoolJobProfile> jobs =
      obs::Profiler::Get().PoolJobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].kernel, "test.reduce_kernel");
  EXPECT_GT(jobs[0].merge_seconds, 0.0);
}

TEST_F(ProfilerTest, UnprofiledLoopsRecordNothing) {
  ASSERT_FALSE(obs::ProfilingEnabled());
  par::ParallelFor(0, 100, 10, [](const par::ChunkRange&) {});
  EXPECT_TRUE(obs::Profiler::Get().PoolJobs().empty());
  EXPECT_TRUE(obs::Profiler::Get().KernelTotals().empty());
}

TEST_F(ProfilerTest, CounterTracksLandInChromeTrace) {
  obs::TraceRecorder::Get().Clear();
  obs::TraceRecorder::Get().Enable();
  obs::Profiler::Get().Enable();
  par::ThreadPool::Get().SetNumThreads(2);
  {
    obs::ProfileScope scope("test.traced_kernel");
    par::ParallelFor(0, 512, 64, [](const par::ChunkRange&) {});
  }
  obs::Profiler::Get().Disable();
  obs::TraceRecorder::Get().Disable();

  ASSERT_FALSE(obs::TraceRecorder::Get().Counters().empty());
  const std::string json = obs::TraceRecorder::Get().ToChromeTraceJson();
  obs::TraceRecorder::Get().Clear();
  // Counter events (ph:"C") on tracks named after the attributed kernel.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"util:test.traced_kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"imbalance:test.traced_kernel\""), std::string::npos);
}

TEST_F(ProfilerTest, ReportGainsProfileSectionOnlyWhenEnabled) {
  obs::RunReport disabled_report;
  EXPECT_EQ(disabled_report.ToJson().find("\"profile\""), std::string::npos);

  obs::Profiler::Get().Enable();
  {
    obs::ProfileScope scope("test.report_kernel");
    scope.AddBytes(10, 10);
  }
  obs::RunReport report;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"test.report_kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"gb_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks_per_second\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Determinism: profiling observes, never perturbs (the §8 contract must
// survive §11). Kernel outputs — including the full pipeline's fused
// matrix — must be bit-identical with profiling off and on.

uint64_t MatrixHash(const Matrix& m) {
  return rt::Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(m.data()),
      static_cast<size_t>(m.size()) * sizeof(float)));
}

uint64_t SparseHash(const SparseSimMatrix& m) {
  std::string bytes;
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    bytes.append(reinterpret_cast<const char*>(row.data()),
                 row.size_bytes());
  }
  return rt::Fnv1a64(bytes);
}

TEST_F(ProfilerTest, KernelOutputsBitIdenticalWithProfilingOnAndOff) {
  par::ThreadPool::Get().SetNumThreads(2);
  Rng rng(29);
  Matrix a(64, 48), b(48, 32), c(64, 32);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  // A reduction kernel too: 256 rows split into several chunks whose
  // partial A^T·B products merge in chunk order.
  Matrix ta(256, 48), tb(256, 32), tc(48, 32);
  ta.GlorotInit(rng);
  tb.GlorotInit(rng);

  Gemm(a, b, c);
  const uint64_t gemm_off = MatrixHash(c);
  GemmTransposeA(ta, tb, tc);
  const uint64_t gemm_ta_off = MatrixHash(tc);

  obs::Profiler::Get().Enable();
  Gemm(a, b, c);
  const uint64_t gemm_on = MatrixHash(c);
  GemmTransposeA(ta, tb, tc);
  const uint64_t gemm_ta_on = MatrixHash(tc);
  obs::Profiler::Get().Disable();

  EXPECT_EQ(gemm_off, gemm_on);
  EXPECT_EQ(gemm_ta_off, gemm_ta_on);
  // And the profiled run actually recorded the kernels it timed.
  bool saw_gemm = false, saw_gemm_ta = false;
  for (const obs::KernelProfile& k : obs::Profiler::Get().KernelTotals()) {
    if (k.kernel == "la.gemm") saw_gemm = true;
    if (k.kernel == "la.gemm_ta") saw_gemm_ta = true;
  }
  EXPECT_TRUE(saw_gemm);
  EXPECT_TRUE(saw_gemm_ta);
  // Several chunks per job, so the ordered merge really ran.
  obs::PoolKernelTotal gemm_ta_pool;
  for (const obs::PoolKernelTotal& t : obs::Profiler::Get().PoolTotals()) {
    if (t.kernel == "la.gemm_ta") gemm_ta_pool = t;
  }
  EXPECT_GT(gemm_ta_pool.jobs, 0);
  EXPECT_GT(gemm_ta_pool.chunks, gemm_ta_pool.jobs);
}

// The exact top-k sweep is tile-major: it declares each source row read
// once and the whole target once per block of source rows, not once
// per source row.
TEST_F(ProfilerTest, ExactTopKDeclaresTileMajorTraffic) {
  Rng rng(31);
  constexpr int64_t kRows = 100, kTargets = 300, kDim = 16;
  Matrix a(kRows, kDim), b(kTargets, kDim);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  std::vector<EntityId> row_ids(kRows);
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::vector<EntityId> col_ids(kTargets);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  SparseSimMatrix out(kRows, kTargets, 5);
  obs::Profiler::Get().Enable();
  TopKInto(a, row_ids, b, col_ids, /*index=*/nullptr, TopKOptions{.k = 5},
           out);
  obs::Profiler::Get().Disable();

  const int64_t block_rows = par::TopKBlockRows(kRows, kDim);
  const int64_t blocks = (kRows + block_rows - 1) / block_rows;
  ASSERT_GT(blocks, 1);
  ASSERT_LT(blocks, kRows);
  bool seen = false;
  for (const obs::KernelProfile& k : obs::Profiler::Get().KernelTotals()) {
    if (k.kernel != "sim.topk.exact") continue;
    seen = true;
    EXPECT_EQ(k.calls, 1);
    EXPECT_EQ(k.bytes_read, 4 * (kRows + blocks * kTargets) * kDim);
    EXPECT_EQ(k.bytes_written, kRows * 5 * 8);
    EXPECT_EQ(k.flops, 2 * kRows * kTargets * kDim);
  }
  EXPECT_TRUE(seen);
}

// index-build attributes the graph build: one sim.hnsw.build scope whose
// declared traffic is the hnsw.build_scores pair scores it computed.
TEST_F(ProfilerTest, HnswBuildRecordsScopeAndScoreCounter) {
  Rng rng(37);
  constexpr int64_t kDim = 12;
  Matrix data(300, kDim);
  data.GlorotInit(rng);
  obs::Counter& scores =
      obs::MetricsRegistry::Get().GetCounter("hnsw.build_scores");
  const int64_t before = scores.Value();
  obs::Profiler::Get().Enable();
  const HnswIndex index(data, SimMetric::kManhattan, HnswOptions{});
  obs::Profiler::Get().Disable();
  const int64_t built = scores.Value() - before;
  // Every node but the first scores at least its entry point.
  EXPECT_GE(built, data.rows() - 1);

  bool seen = false;
  for (const obs::KernelProfile& k : obs::Profiler::Get().KernelTotals()) {
    if (k.kernel != "sim.hnsw.build") continue;
    seen = true;
    EXPECT_EQ(k.calls, 1);
    EXPECT_EQ(k.bytes_read, 4 * built * kDim);
    EXPECT_EQ(k.flops, 2 * built * kDim);
    EXPECT_GT(k.seconds, 0.0);
  }
  EXPECT_TRUE(seen);
}

// One structure batch shows its epoch's phases: the two sides' forward
// (every epoch plus the final one) and backward, the loss, the nearest
// negatives' mining at the refresh (epoch 0 draws random ones, which
// score nothing) and the four Adam steps per epoch, each with declared
// traffic and flops.
TEST_F(ProfilerTest, StructureBatchRecordsTrainingPhases) {
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
  spec.world.num_entities = 200;
  const EaDataset ds = GenerateBenchmark(spec);
  std::vector<EntityId> all_source(ds.source.num_entities());
  std::iota(all_source.begin(), all_source.end(), 0);
  std::vector<EntityId> all_target(ds.target.num_entities());
  std::iota(all_target.begin(), all_target.end(), 0);
  const LocalGraph source = BuildLocalGraph(ds.source, all_source);
  const LocalGraph target = BuildLocalGraph(ds.target, all_target);
  const auto seeds = LocalizeSeeds(source, target, ds.split.train);
  TrainOptions options;
  options.epochs = 11;
  options.hard_negative_refresh = 10;

  obs::Profiler::Get().Enable();
  MakeModel(ModelKind::kRrea)->Train(source, target, seeds, options);
  obs::Profiler::Get().Disable();

  const int64_t epochs = options.epochs;
  const int64_t adam_cells =
      (int64_t{source.num_vertices()} + target.num_vertices() +
       std::max(source.num_relations, 1) +
       std::max(target.num_relations, 1)) *
      options.dim;
  const std::map<std::string, int64_t> want_calls = {
      {"nn.forward", 2 * (epochs + 1)},
      {"nn.backward", 2 * epochs},
      {"nn.loss", epochs},
      {"nn.negatives", 1},
      {"nn.adam", 4 * epochs}};
  std::map<std::string, obs::KernelProfile> seen;
  for (const obs::KernelProfile& k : obs::Profiler::Get().KernelTotals()) {
    if (want_calls.count(k.kernel) != 0) seen[k.kernel] = k;
  }
  for (const auto& [kernel, calls] : want_calls) {
    SCOPED_TRACE(kernel);
    ASSERT_EQ(seen.count(kernel), 1u);
    const obs::KernelProfile& k = seen[kernel];
    EXPECT_EQ(k.calls, calls);
    EXPECT_GT(k.bytes_read, 0);
    EXPECT_GT(k.flops, 0);
    EXPECT_GT(k.seconds, 0.0);
  }
  EXPECT_EQ(seen["nn.adam"].bytes_read, 4 * 4 * epochs * adam_cells);
  EXPECT_EQ(seen["nn.adam"].bytes_written, 4 * 3 * epochs * adam_cells);
  EXPECT_EQ(seen["nn.adam"].flops, 14 * epochs * adam_cells);
}

TEST_F(ProfilerTest, FusedMatrixBitIdenticalWithProfilingOnAndOff) {
  par::ThreadPool::Get().SetNumThreads(2);
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
  spec.world.num_entities = 200;
  const EaDataset dataset = GenerateBenchmark(spec);
  LargeEaOptions options;
  options.use_structure_channel = false;  // name channel drives the fusion

  auto off = RunLargeEa(dataset, options);
  ASSERT_TRUE(off.ok());
  const uint64_t hash_off = SparseHash(off->fused);

  obs::Profiler::Get().Enable();
  auto on = RunLargeEa(dataset, options);
  obs::Profiler::Get().Disable();
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(hash_off, SparseHash(on->fused));
}

}  // namespace
}  // namespace largeea
