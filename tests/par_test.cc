// Unit tests for the parallel execution layer (src/par/): pool
// lifecycle, exception propagation, deterministic chunking, the
// analytic grain formulas, and the ordered-merge reduction that
// underpins the bit-identical-at-any-thread-count contract (DESIGN.md
// §8). Whole-pipeline invariance is covered separately by
// par_determinism_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/par/background_worker.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/par/thread_pool.h"

namespace largeea::par {
namespace {

/// Restores the pool's thread count on scope exit so tests cannot leak
/// their configuration into each other (the suite shares the singleton).
class ScopedThreads {
 public:
  explicit ScopedThreads(int32_t n) : saved_(ThreadPool::Get().num_threads()) {
    ThreadPool::Get().SetNumThreads(n);
  }
  ~ScopedThreads() { ThreadPool::Get().SetNumThreads(saved_); }

 private:
  int32_t saved_;
};

TEST(ComputeChunksTest, SplitsRangeIntoGrainSizedChunks) {
  const auto chunks = ComputeChunks(0, 10, 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].index, 0);
  EXPECT_EQ(chunks[0].begin, 0);
  EXPECT_EQ(chunks[0].end, 4);
  EXPECT_EQ(chunks[1].begin, 4);
  EXPECT_EQ(chunks[1].end, 8);
  EXPECT_EQ(chunks[2].begin, 8);
  EXPECT_EQ(chunks[2].end, 10);  // last chunk is shorter
  EXPECT_EQ(chunks[2].index, 2);
}

TEST(ComputeChunksTest, NonPositiveGrainMeansOneChunk) {
  for (int64_t grain : {int64_t{0}, int64_t{-5}}) {
    const auto chunks = ComputeChunks(3, 17, grain);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].begin, 3);
    EXPECT_EQ(chunks[0].end, 17);
  }
}

TEST(ComputeChunksTest, EmptyRangeYieldsNoChunks) {
  EXPECT_TRUE(ComputeChunks(5, 5, 4).empty());
  EXPECT_TRUE(ComputeChunks(7, 5, 4).empty());
}

TEST(ComputeChunksTest, BoundariesIndependentOfThreadCount) {
  // The contract: chunk boundaries are a pure function of (begin, end,
  // grain). Reconfiguring the pool must not change them.
  const auto before = ComputeChunks(0, 1000, 37);
  ScopedThreads threads(8);
  const auto after = ComputeChunks(0, 1000, 37);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].begin, after[i].begin);
    EXPECT_EQ(before[i].end, after[i].end);
  }
}

TEST(ComputeChunksTest, GrainLargerThanRangeYieldsOneExactChunk) {
  const auto chunks = ComputeChunks(2, 9, 1000);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, 2);
  EXPECT_EQ(chunks[0].end, 9);
  EXPECT_EQ(chunks[0].index, 0);
}

TEST(ComputeChunksTest, NonZeroBeginOffsetsEveryBoundary) {
  const auto chunks = ComputeChunks(100, 110, 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 100);
  EXPECT_EQ(chunks[0].end, 104);
  EXPECT_EQ(chunks[1].begin, 104);
  EXPECT_EQ(chunks[1].end, 108);
  EXPECT_EQ(chunks[2].begin, 108);
  EXPECT_EQ(chunks[2].end, 110);
}

TEST(ComputeChunksTest, RangeEndingAtInt64MaxDoesNotOverflow) {
  // begin + grain would overflow a naive `b += grain` loop; the chunker
  // must still produce exact boundaries right up to INT64_MAX.
  const int64_t end = std::numeric_limits<int64_t>::max();
  const int64_t begin = end - 100;
  const auto chunks = ComputeChunks(begin, end, 30);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].begin, begin);
  EXPECT_EQ(chunks[0].end, begin + 30);
  EXPECT_EQ(chunks[3].begin, begin + 90);
  EXPECT_EQ(chunks[3].end, end);
}

TEST(ComputeChunksTest, GrainLargerThanRangeNearInt64Max) {
  const int64_t end = std::numeric_limits<int64_t>::max();
  const auto chunks = ComputeChunks(end - 5, end, end);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, end - 5);
  EXPECT_EQ(chunks[0].end, end);
}

TEST(ComputeChunksCappedTest, UnderCapMatchesUncapped) {
  const auto capped = ComputeChunksCapped(0, 100, 10, 32);
  const auto plain = ComputeChunks(0, 100, 10);
  ASSERT_EQ(capped.size(), plain.size());
  for (size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i].begin, plain[i].begin);
    EXPECT_EQ(capped[i].end, plain[i].end);
  }
}

TEST(ComputeChunksCappedTest, RaisesGrainToRespectCap) {
  // 1000/1 = 1000 chunks uncapped; the cap coarsens the grain, it never
  // truncates coverage.
  const auto chunks = ComputeChunksCapped(0, 1000, 1, 8);
  ASSERT_LE(chunks.size(), 8u);
  EXPECT_EQ(chunks.front().begin, 0);
  EXPECT_EQ(chunks.back().end, 1000);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].begin, chunks[i - 1].end);
  }
}

TEST(ComputeChunksCappedTest, NonPositiveCapMeansUncapped) {
  EXPECT_EQ(ComputeChunksCapped(0, 1000, 1, 0).size(), 1000u);
  EXPECT_EQ(ComputeChunksCapped(0, 1000, 1, -3).size(), 1000u);
}

TEST(ComputeChunksCappedTest, EmptyRangeAndOversizedGrain) {
  EXPECT_TRUE(ComputeChunksCapped(5, 5, 4, 8).empty());
  const auto one = ComputeChunksCapped(3, 7, 100, 2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 3);
  EXPECT_EQ(one[0].end, 7);
}

TEST(ComputeChunksCappedTest, BoundariesIndependentOfThreadCount) {
  // The pure function itself never consults the pool: only ParallelFor
  // derives a cap from the pool size, and plain-for bodies are
  // chunking-independent by contract.
  const auto before = ComputeChunksCapped(0, 5000, 3, 16);
  ScopedThreads threads(8);
  const auto after = ComputeChunksCapped(0, 5000, 3, 16);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].begin, after[i].begin);
    EXPECT_EQ(before[i].end, after[i].end);
  }
}

TEST(GrainTest, AnalyticGemmRowGrainTargetsChunkBand) {
  // The historical constant (32) put a 20000-row GEMM at 625 chunks; the
  // analytic grain lands the job in a band near kTargetChunks.
  const int64_t grain = GemmRowGrain(20000);
  EXPECT_EQ(grain % 16, 0);
  const int64_t chunks = (20000 + grain - 1) / grain;
  EXPECT_LE(chunks, kTargetChunks);
  EXPECT_GE(chunks, kTargetChunks / 2);
  // Small problems: one cache-line-aligned chunk, never a zero grain.
  EXPECT_GE(GemmRowGrain(1), 1);
  EXPECT_GE(GemmRowGrain(0), 1);
  // Grain never exceeds what 16-row rounding requires.
  EXPECT_LE(GemmRowGrain(100), 112);
}

TEST(GrainTest, AnalyticGrainsArePositiveAcrossShapes) {
  for (int64_t shape : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{1000},
                        int64_t{20000}, int64_t{1} << 30}) {
    EXPECT_GT(GemmRowGrain(shape), 0) << shape;
    EXPECT_GT(GemmPanel(shape, 128), 0) << shape;
    EXPECT_GT(GemmTileCols(shape), 0) << shape;
    EXPECT_GT(ElemGrain(shape), 0) << shape;
    EXPECT_GT(NormRowGrain(shape), 0) << shape;
    EXPECT_GT(TopKBlockRows(shape, 192), 0) << shape;
    EXPECT_GT(TopKBlockRows(20000, shape), 0) << shape;
    EXPECT_GT(TopKTileRows(shape), 0) << shape;
    EXPECT_GT(GemmTransposeAGrain(shape), 0) << shape;
  }
}

TEST(GrainTest, TopKBlocksAndTilesFollowTheirShapeRules) {
  // Blocks: ~kTargetChunks of them, never under 8 rows, and no more
  // source rows than half an L2 holds, so wide rows cap them.
  EXPECT_EQ(TopKBlockRows(1, 192), 8);
  EXPECT_EQ(TopKBlockRows(1000, 192),
            (1000 + kTargetChunks - 1) / kTargetChunks);
  EXPECT_EQ(TopKBlockRows(int64_t{1} << 30, int64_t{1} << 20), 8);
  EXPECT_LT(TopKBlockRows(int64_t{1} << 30, 192),
            TopKBlockRows(int64_t{1} << 30, 16));
  // Tiles: whole 64-row bitset words, never longer as rows widen, and
  // floored at one word for rows too wide to fit 64 in half an L2.
  int64_t previous = TopKTileRows(1);
  for (const int64_t dim : {int64_t{16}, int64_t{64}, int64_t{192},
                            int64_t{1024}, int64_t{1} << 20}) {
    const int64_t tile = TopKTileRows(dim);
    EXPECT_EQ(tile % 64, 0) << dim;
    EXPECT_GE(tile, 64) << dim;
    EXPECT_LE(tile, previous) << dim;
    previous = tile;
  }
  EXPECT_EQ(TopKTileRows(int64_t{1} << 20), 64);
  EXPECT_EQ(TopKTileRows(0), TopKTileRows(1));
}

TEST(ThreadPoolTest, LazyStartAndShutdown) {
  ThreadPool& pool = ThreadPool::Get();
  pool.Shutdown();
  EXPECT_FALSE(pool.started());

  ScopedThreads threads(4);
  EXPECT_EQ(pool.num_threads(), 4);
  // SetNumThreads alone must not start workers; the first parallel Run
  // does.
  EXPECT_FALSE(pool.started());

  std::atomic<int64_t> sum{0};
  pool.Run(16, [&](int64_t task) { sum += task; });
  EXPECT_EQ(sum.load(), 16 * 15 / 2);
  EXPECT_TRUE(pool.started());

  pool.Shutdown();
  EXPECT_FALSE(pool.started());

  // The pool restarts lazily after Shutdown.
  sum = 0;
  pool.Run(8, [&](int64_t task) { sum += task; });
  EXPECT_EQ(sum.load(), 8 * 7 / 2);
  EXPECT_TRUE(pool.started());
}

TEST(ThreadPoolTest, SingleThreadRunsInlineWithoutWorkers) {
  ThreadPool& pool = ThreadPool::Get();
  pool.Shutdown();
  ScopedThreads threads(1);

  std::vector<int64_t> order;
  pool.Run(5, [&](int64_t task) { order.push_back(task); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(pool.started());
}

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnce) {
  ScopedThreads threads(4);
  constexpr int64_t kTasks = 1000;
  std::vector<std::atomic<int32_t>> hits(kTasks);
  ThreadPool::Get().Run(kTasks, [&](int64_t task) {
    hits[static_cast<size_t>(task)].fetch_add(1);
  });
  for (int64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[static_cast<size_t>(t)].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, ExceptionFromLowestFailingTaskPropagates) {
  ScopedThreads threads(4);
  // Several tasks throw; the caller must see the lowest-numbered one,
  // regardless of which worker hit it first.
  try {
    ThreadPool::Get().Run(64, [&](int64_t task) {
      if (task == 7 || task == 23 || task == 55) {
        throw std::runtime_error("task " + std::to_string(task));
      }
    });
    FAIL() << "Run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }

  // The pool must stay usable after an exception.
  std::atomic<int64_t> count{0};
  ThreadPool::Get().Run(16, [&](int64_t) { count++; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, NestedRunExecutesInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  std::atomic<int64_t> inner_total{0};
  ThreadPool::Get().Run(8, [&](int64_t) {
    // A nested Run on the same pool must serialise on the calling
    // worker instead of deadlocking on the (busy) pool.
    int64_t local = 0;
    ThreadPool::Get().Run(10, [&](int64_t inner) { local += inner; });
    inner_total += local;
  });
  EXPECT_EQ(inner_total.load(), 8 * (10 * 9 / 2));
}

TEST(ParallelForTest, BodySeesEachIndexOnceViaChunks) {
  ScopedThreads threads(4);
  constexpr int64_t kN = 500;
  std::vector<std::atomic<int32_t>> hits(kN);
  ParallelFor(0, kN, 17, [&](const ChunkRange& chunk) {
    for (int64_t i = chunk.begin; i < chunk.end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

/// Sums chunk-private float partials via ParallelReduceOrdered at the
/// given thread count; the ordered merge makes the result a pure
/// function of (n, grain), so any two thread counts must agree bitwise.
float OrderedFloatSum(int32_t num_threads, int64_t n, int64_t grain) {
  ScopedThreads threads(num_threads);
  float total = 0.0f;
  ParallelReduceOrdered<float>(
      0, n, grain,
      [](const ChunkRange& chunk, float& partial) {
        for (int64_t i = chunk.begin; i < chunk.end; ++i) {
          // Values with non-associative rounding behaviour: 1/(i+1).
          partial += 1.0f / static_cast<float>(i + 1);
        }
      },
      [&](const ChunkRange&, float&& partial) { total += partial; });
  return total;
}

TEST(ParallelReduceOrderedTest, MergesInChunkOrder) {
  ScopedThreads threads(4);
  std::vector<int64_t> merge_order;
  ParallelReduceOrdered<int64_t>(
      0, 97, 8,
      [](const ChunkRange& chunk, int64_t& state) { state = chunk.index; },
      [&](const ChunkRange& chunk, int64_t&& state) {
        EXPECT_EQ(state, chunk.index);
        merge_order.push_back(chunk.index);
      });
  std::vector<int64_t> expected(merge_order.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(merge_order, expected);
}

TEST(ThreadPoolTest, PoolHealthMetricsVisibleWithoutProfiler) {
  // The par.* gauges are part of the always-on metrics surface: they
  // must move after any pool job even when --profile is off.
  auto& metrics = obs::MetricsRegistry::Get();
  obs::Counter& busy = metrics.GetCounter("par.busy_micros");
  obs::Counter& capacity = metrics.GetCounter("par.capacity_micros");
  obs::Gauge& depth = metrics.GetGauge("par.queue_depth.peak");
  const int64_t busy_before = busy.Value();
  const int64_t capacity_before = capacity.Value();

  ScopedThreads scoped(2);
  ParallelFor(0, 20000, 64, [](const ChunkRange& r) {
    volatile int64_t sink = 0;
    for (int64_t i = r.begin; i < r.end; ++i) sink = sink + i;
  });

  EXPECT_GE(busy.Value(), busy_before);
  EXPECT_GT(capacity.Value(), capacity_before);
  // Capacity counts every worker's window; busy can never exceed it.
  EXPECT_LE(busy.Value(), capacity.Value());
  const double util = metrics.GetGauge("par.utilization").Value();
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.05);  // worker windows are clocked separately from wall
  // 20000/64 chunks through a 2-thread pool leaves a visible queue.
  EXPECT_GE(depth.Value(), 1.0);
  // Idle accounting exists (its value depends on wake timing, so only
  // non-negativity is asserted).
  EXPECT_GE(metrics.GetCounter("par.worker_idle_micros").Value(), 0);
}

TEST(ParallelReduceOrderedTest, FloatSumBitIdenticalAcrossThreadCounts) {
  const int64_t kN = 4096;
  const int64_t kGrain = 64;
  const float at1 = OrderedFloatSum(1, kN, kGrain);
  const float at2 = OrderedFloatSum(2, kN, kGrain);
  const float at8 = OrderedFloatSum(8, kN, kGrain);
  // Bit-exact, not EXPECT_FLOAT_EQ: this is the determinism contract.
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);

  // Sanity: a *different grain* is allowed to (and here does) change the
  // rounding — proving the test would catch a reassociated reduction.
  const float regrained = OrderedFloatSum(1, kN, kN);
  EXPECT_NE(at1, regrained);
}

TEST(BackgroundWorkerTest, ThrowingTaskSurfacesOnDrainNotTerminate) {
  BackgroundWorker worker("test-bg");
  ASSERT_TRUE(worker.Submit([] {
    throw std::runtime_error("disk exploded");
  }).ok());
  const Status drained = worker.Drain();
  EXPECT_EQ(drained.code(), StatusCode::kInternal);
  EXPECT_NE(drained.message().find("disk exploded"), std::string::npos);
  EXPECT_NE(drained.message().find("test-bg"), std::string::npos);
  // The error was consumed: the worker is healthy again.
  EXPECT_TRUE(worker.Drain().ok());
}

TEST(BackgroundWorkerTest, FailureKeepsLaterTasksRunningAndSubmitReports) {
  BackgroundWorker worker("test-bg");
  std::atomic<int> ran{0};
  ASSERT_TRUE(worker.Submit([] { throw 42; }).ok());  // non-std exception
  ASSERT_TRUE(worker.Drain().code() == StatusCode::kInternal);
  // A later Submit both enqueues its task and reports nothing stale.
  EXPECT_TRUE(worker.Submit([&] { ran.fetch_add(1); }).ok());
  EXPECT_TRUE(worker.Drain().ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(BackgroundWorkerTest, OnlyFirstFailureIsKept) {
  BackgroundWorker worker("test-bg");
  // The first task throws only once the second is queued. Otherwise it
  // may fail before the second Submit, which then returns "first" by
  // contract. The statuses are checked after the release so a failed
  // assertion cannot leave the worker blocked in its destructor.
  std::promise<void> second_submitted;
  const std::shared_future<void> release =
      second_submitted.get_future().share();
  const Status first = worker.Submit([release] {
    release.wait();
    throw std::runtime_error("first");
  });
  const Status second =
      worker.Submit([] { throw std::runtime_error("second"); });
  second_submitted.set_value();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const Status drained = worker.Drain();
  EXPECT_NE(drained.message().find("first"), std::string::npos);
  EXPECT_EQ(drained.message().find("second"), std::string::npos);
  EXPECT_TRUE(worker.Drain().ok());
}

}  // namespace
}  // namespace largeea::par
