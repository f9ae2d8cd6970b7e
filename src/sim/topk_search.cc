#include "src/sim/topk_search.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "src/common/macros.h"
#include "src/common/memory_tracker.h"
#include "src/la/ops.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/sim/lsh.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"
#include "src/stream/tile_store.h"

namespace largeea {

// Source rows per parallel chunk come from par::TopKRowGrain. The
// scatter below writes each result straight into its own
// SparseSimMatrix row from the parallel body, so the output is a pure
// per-row function of the inputs — any grain (and any thread count)
// produces identical bytes, which lets the kernels run with no merge
// tail at all.
//
// ScorePair and TopKHeap live in src/sim/topk_util.h so the
// single-query path (HNSW, serving) keeps byte-identical
// keep-set semantics with these batch kernels.

void ExactTopKInto(const MatrixRowRange& source,
                   std::span<const EntityId> row_ids,
                   const MatrixRowRange& target,
                   std::span<const EntityId> col_ids,
                   const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  LARGEEA_CHECK_GT(options.k, 0);
  const int64_t dim = source.cols();
  const simd::KernelTable& kt = simd::Kernels();

  // Every source row streams the full target once; the survivors are
  // (score, id) pairs. The brute-force scan dominates, so this is the
  // canonical bandwidth-bound kernel in a profile.
  obs::ProfileScope prof("sim.topk.exact");
  prof.AddBytes(4 * (source.rows() * dim + source.rows() * target.rows() * dim),
                source.rows() * options.k * 8);
  prof.AddFlops(2 * source.rows() * target.rows() * dim);

  // Chunks partition the source rows and row_ids are distinct, so each
  // parallel body writes a disjoint set of `out` rows — the scatter
  // happens in the body and the former serial result-merge tail is
  // gone. Per-row entry order (heap drain order) is unchanged, so the
  // output bytes match the merged version exactly.
  const int64_t row_grain = par::TopKRowGrain(source.rows());
  par::ParallelFor(
      0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
        TopKHeap heap(options.k);
        std::vector<std::pair<float, int32_t>> drained;
        for (int64_t i = rows.begin; i < rows.end; ++i) {
          // Deliberately a hot-path no-op unless LARGEEA_OBS_HOT_TRACING
          // is defined: per-row spans would dominate the scan they
          // measure.
          LARGEEA_TRACE_HOT_SPAN("topk/exact_row");
          heap.Clear();
          const float* src = source.Row(i);
          for (int64_t j = 0; j < target.rows(); ++j) {
            heap.Offer(
                static_cast<int32_t>(j),
                ScorePair(kt, src, target.Row(j), dim, options.metric));
          }
          heap.Drain(drained);
          for (const auto& [score, j] : drained) {
            out.Accumulate(row_ids[i], col_ids[j], score);
          }
        }
      });
  // Counters are accumulated outside the loop: one atomic add per call,
  // nothing per row or per candidate.
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("topk.exact.rows").Add(source.rows());
  registry.GetCounter("topk.exact.candidates_scanned")
      .Add(source.rows() * target.rows());
}

SparseSimMatrix ExactTopK(const Matrix& source, const Matrix& target,
                          const TopKOptions& options) {
  std::vector<EntityId> row_ids(source.rows());
  std::vector<EntityId> col_ids(target.rows());
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  SparseSimMatrix out(static_cast<int32_t>(source.rows()),
                      static_cast<int32_t>(target.rows()), options.k);
  ExactTopKInto(source, row_ids, target, col_ids, options, out);
  out.RefreshMemoryTracking();
  return out;
}

void LshTopKInto(const MatrixRowRange& source,
                 std::span<const EntityId> row_ids, const Matrix& target,
                 std::span<const EntityId> col_ids, const LshIndex& index,
                 const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  LARGEEA_CHECK_EQ(source.cols(), index.dim());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  const int64_t dim = source.cols();
  const simd::KernelTable& kt = simd::Kernels();

  // LSH candidate counts are data-dependent: the fixed source-read and
  // result-write traffic is declared up front, and the scored-candidate
  // traffic is added after the reduce once candidates_scanned is known
  // (ProfileScope accumulators are caller-thread-only by design).
  obs::ProfileScope prof("sim.topk.lsh");
  prof.AddBytes(4 * source.rows() * dim, source.rows() * options.k * 8);

  // Direct scatter, same argument as ExactTopKInto: disjoint source
  // rows → disjoint `out` rows. The data-dependent candidate count is
  // the only cross-chunk aggregate left — one relaxed add per chunk.
  std::atomic<int64_t> candidates_total{0};
  const int64_t row_grain = par::TopKRowGrain(source.rows());
  par::ParallelFor(
      0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
        TopKHeap heap(options.k);
        std::vector<std::pair<float, int32_t>> drained;
        std::vector<int32_t> candidates;
        int64_t candidates_scanned = 0;
        for (int64_t i = rows.begin; i < rows.end; ++i) {
          LARGEEA_TRACE_HOT_SPAN("topk/lsh_row");
          heap.Clear();
          const float* src = source.Row(i);
          index.Query(src, candidates);
          candidates_scanned += static_cast<int64_t>(candidates.size());
          for (const int32_t j : candidates) {
            heap.Offer(
                j, ScorePair(kt, src, target.Row(j), dim, options.metric));
          }
          heap.Drain(drained);
          for (const auto& [score, j] : drained) {
            out.Accumulate(row_ids[i], col_ids[j], score);
          }
        }
        candidates_total.fetch_add(candidates_scanned,
                                   std::memory_order_relaxed);
      });
  const int64_t candidates_scanned =
      candidates_total.load(std::memory_order_relaxed);
  prof.AddBytes(4 * candidates_scanned * dim, 0);
  prof.AddFlops(2 * candidates_scanned * dim);
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("topk.lsh.rows").Add(source.rows());
  registry.GetCounter("topk.lsh.candidates_scanned").Add(candidates_scanned);
}

void ExactTopKStreamedInto(const MatrixRowRange& source,
                           std::span<const EntityId> row_ids,
                           const stream::TileMatrix& target, bool prefetch,
                           const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK(target.complete());
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  // Tiles partition the target's rows, and the kept top-k per source row
  // is independent of candidate order, so this accumulation over tiles
  // equals one pass over the whole target.
  for (int64_t t = 0; t < target.num_tiles(); ++t) {
    if (prefetch) target.Prefetch(t + 1);
    const std::shared_ptr<const Matrix> tile = target.Tile(t);
    std::vector<EntityId> col_ids(tile->rows());
    std::iota(col_ids.begin(), col_ids.end(),
              static_cast<EntityId>(target.TileBegin(t)));
    ExactTopKInto(source, row_ids, *tile, col_ids, options, out);
  }
}

void LshTopKStreamedInto(const MatrixRowRange& source,
                         std::span<const EntityId> row_ids,
                         const stream::TileMatrix& target,
                         const LshIndex& index, bool prefetch,
                         const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK(target.complete());
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  LARGEEA_CHECK_EQ(source.cols(), index.dim());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_GT(options.k, 0);
  const int64_t dim = source.cols();
  const simd::KernelTable& kt = simd::Kernels();

  obs::ProfileScope prof("sim.topk.lsh");
  prof.AddBytes(4 * source.rows() * dim, source.rows() * options.k * 8);

  // Tile-major sweep. Step 1 plans the block: every row's sorted LSH
  // candidates, queried in parallel. Step 2 pins each needed target
  // tile once and offers every row its candidates inside that tile, so
  // a block reads each tile at most once instead of once per row. Each
  // row's heap lives across the tiles and sees its candidates in the
  // same ascending order as LshTopKInto, so the kept set and its drain
  // order (and hence the output bytes) are identical.
  struct RowSweep {
    std::vector<int32_t> candidates;  ///< sorted target rows
    size_t next = 0;                  ///< first candidate not yet offered
    TopKHeap heap;
  };
  std::vector<RowSweep> sweep(static_cast<size_t>(source.rows()),
                              RowSweep{{}, 0, TopKHeap(options.k)});
  const int64_t row_grain = par::TopKRowGrain(source.rows());
  par::ParallelFor(
      0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
        // Query() leaves pre-dedup capacity behind; the plan keeps
        // exact-size copies so its tracked bytes are its real bytes.
        std::vector<int32_t> candidates;
        for (int64_t i = rows.begin; i < rows.end; ++i) {
          LARGEEA_TRACE_HOT_SPAN("topk/lsh_plan_row");
          index.Query(source.Row(i), candidates);
          sweep[i].candidates.assign(candidates.begin(), candidates.end());
        }
      });
  // The plan and the heaps stay live for the whole sweep; tracking them
  // lets the tile cache's headroom and the budget's peak see them.
  int64_t candidates_scanned = 0;
  for (const RowSweep& row : sweep) {
    candidates_scanned += static_cast<int64_t>(row.candidates.size());
  }
  const TrackedAllocation tracked_sweep(
      candidates_scanned * static_cast<int64_t>(sizeof(int32_t)) +
      source.rows() * options.k *
          static_cast<int64_t>(sizeof(std::pair<float, int32_t>)));

  // Tiles no row of the block has a candidate in are never pinned, so a
  // small block (tiny tiles) reads no more tiles than its candidates
  // touch. Sorted candidates let each row jump a whole tile at a time.
  std::vector<char> needed(static_cast<size_t>(target.num_tiles()), 0);
  for (const RowSweep& row : sweep) {
    for (auto it = row.candidates.begin(); it != row.candidates.end();) {
      const int64_t t = *it / target.tile_rows();
      needed[t] = 1;
      it = std::lower_bound(it, row.candidates.end(), target.TileEnd(t));
    }
  }
  std::vector<int64_t> tiles;
  for (int64_t t = 0; t < target.num_tiles(); ++t) {
    if (needed[t]) tiles.push_back(t);
  }

  for (size_t n = 0; n < tiles.size(); ++n) {
    if (prefetch && n + 1 < tiles.size()) target.Prefetch(tiles[n + 1]);
    const int64_t t = tiles[n];
    const std::shared_ptr<const Matrix> tile = target.Tile(t);
    const int64_t tile_begin = target.TileBegin(t);
    const int64_t tile_end = target.TileEnd(t);
    par::ParallelFor(
        0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
          for (int64_t i = rows.begin; i < rows.end; ++i) {
            RowSweep& row = sweep[i];
            const float* src = source.Row(i);
            for (; row.next < row.candidates.size() &&
                   row.candidates[row.next] < tile_end;
                 ++row.next) {
              const int32_t j = row.candidates[row.next];
              row.heap.Offer(j, ScorePair(kt, src, tile->Row(j - tile_begin),
                                          dim, options.metric));
            }
          }
        });
  }

  // Same direct scatter as LshTopKInto: disjoint rows, disjoint writes.
  par::ParallelFor(
      0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
        std::vector<std::pair<float, int32_t>> drained;
        for (int64_t i = rows.begin; i < rows.end; ++i) {
          sweep[i].heap.Drain(drained);
          for (const auto& [score, j] : drained) {
            out.Accumulate(row_ids[i], j, score);
          }
        }
      });
  prof.AddBytes(4 * candidates_scanned * dim, 0);
  prof.AddFlops(2 * candidates_scanned * dim);
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("topk.lsh.rows").Add(source.rows());
  registry.GetCounter("topk.lsh.candidates_scanned").Add(candidates_scanned);
}

}  // namespace largeea
