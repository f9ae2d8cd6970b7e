#include "src/sim/topk_search.h"

#include <algorithm>
#include <atomic>
#include <bit>
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

// Both entries sweep tile-major through one block step (OfferBlock): a
// block of source rows visits a target range in L2-sized tiles of
// par::TopKTileRows rows, offering every row its candidates inside the
// tile to a heap that lives across tiles. Without an index every target
// row is a candidate (OfferRows); with one, each row's candidates are
// the set bits of its plan, one bit per target row (OfferCandidates).
// The kept set is a pure function of the candidate set, so the bytes
// match a row-at-a-time scan. Candidates are scored in fours
// (ScorePair4) in ascending id order. Rows drain into disjoint `out`
// rows, so any grain (and any thread count) produces identical bytes
// with no merge tail at all.
//
// ScorePair, ScorePair4, OfferRows and TopKHeap live in
// src/sim/topk_util.h so the single-query path (HNSW, serving) keeps
// byte-identical scores and keep-set semantics with this batch sweep.

namespace {

// Drains every row's heap into `out` (direct scatter: disjoint source
// rows write disjoint `out` rows). `col_ids` maps target rows to
// entity ids; empty means the identity.
void DrainHeaps(std::span<TopKHeap> heaps, std::span<const EntityId> row_ids,
                std::span<const EntityId> col_ids, SparseSimMatrix& out) {
  std::vector<std::pair<float, int32_t>> drained;
  for (size_t i = 0; i < heaps.size(); ++i) {
    heaps[i].Drain(drained);
    for (const auto& [score, j] : drained) {
      out.Accumulate(row_ids[i], col_ids.empty() ? j : col_ids[j], score);
    }
  }
}

// `rows` heaps of capacity `k`, reserved up front.
std::vector<TopKHeap> ReservedHeaps(int64_t rows, int32_t k) {
  std::vector<TopKHeap> heaps(static_cast<size_t>(rows), TopKHeap(k));
  for (TopKHeap& heap : heaps) heap.Reserve();
  return heaps;
}

// Plans source rows [begin, end): one bitset of `words` words per row,
// filled by LshIndex::Query. Set bits are the row's candidates in
// ascending order, already de-duplicated. Returns the number of
// candidates planned.
int64_t PlanCandidates(const MatrixRowRange& source, int64_t begin,
                       int64_t end, const LshIndex& index, int64_t words,
                       uint64_t* bits) {
  int64_t candidates = 0;
  for (int64_t i = begin; i < end; ++i) {
    LARGEEA_TRACE_HOT_SPAN("topk/lsh_plan_row");
    uint64_t* row_bits = bits + (i - begin) * words;
    index.Query(source.Row(i), row_bits);
    for (int64_t w = 0; w < words; ++w) {
      candidates += std::popcount(row_bits[w]);
    }
  }
  return candidates;
}

// Word `w` of `bits` with the bits outside [begin, end) cleared; `w`
// must lie in [begin / 64, (end - 1) / 64].
uint64_t WordInRange(const uint64_t* bits, int64_t w, int64_t begin,
                     int64_t end) {
  uint64_t word = bits[w];
  if (w == begin >> 6) word &= ~uint64_t{0} << (begin & 63);
  if (w == (end - 1) >> 6 && (end & 63) != 0) {
    word &= (uint64_t{1} << (end & 63)) - 1;
  }
  return word;
}

// Offers `src` every candidate among target rows [begin, end) — the set
// bits of `bits` in that range, ascending — scored in fours against
// `rows`, which points at target row `begin` with rows `dim` floats
// apart.
void OfferCandidates(const simd::KernelTable& kt, const float* src,
                     const uint64_t* bits, int64_t begin, int64_t end,
                     const float* rows, int64_t dim, SimMetric metric,
                     TopKHeap& heap) {
  int32_t ids[4];
  const float* four[4];
  float scores[4];
  int n = 0;
  for (int64_t w = begin >> 6; begin < end && w <= (end - 1) >> 6; ++w) {
    for (uint64_t word = WordInRange(bits, w, begin, end); word != 0;
         word &= word - 1) {
      const int64_t j = w * 64 + std::countr_zero(word);
      ids[n] = static_cast<int32_t>(j);
      four[n] = rows + (j - begin) * dim;
      if (++n == 4) {
        ScorePair4(kt, src, four, dim, metric, scores);
        for (int q = 0; q < 4; ++q) heap.Offer(ids[q], scores[q]);
        n = 0;
      }
    }
  }
  for (int q = 0; q < n; ++q) {
    heap.Offer(ids[q], ScorePair(kt, src, four[q], dim, metric));
  }
}

// The block step. Offers the rows of `heaps` — source rows from `begin`
// on — their candidates among the target rows that `range` holds, the
// first of which is target row `range_begin`: every row when `plan` is
// null, else the set bits of the heap's row plan, `words` words apiece.
// The range is walked in tiles of `tile_rows` rows, so each tile stays
// L2-resident while every row of the block scores against it.
void OfferBlock(const simd::KernelTable& kt, const MatrixRowRange& source,
                int64_t begin, std::span<TopKHeap> heaps,
                const uint64_t* plan, int64_t words,
                const MatrixRowRange& range, int64_t range_begin,
                int64_t tile_rows, SimMetric metric) {
  // Deliberately a hot-path no-op unless LARGEEA_OBS_HOT_TRACING is
  // defined: per-block spans would crowd the trace.
  LARGEEA_TRACE_HOT_SPAN("topk/block");
  const int64_t dim = source.cols();
  for (int64_t tile = 0; tile < range.rows(); tile += tile_rows) {
    const int64_t tile_begin = range_begin + tile;
    const int64_t tile_end =
        range_begin + std::min(tile + tile_rows, range.rows());
    const float* rows = range.Row(tile);
    for (size_t r = 0; r < heaps.size(); ++r) {
      const float* src = source.Row(begin + static_cast<int64_t>(r));
      if (plan == nullptr) {
        OfferRows(kt, src, tile_begin, tile_end, rows, dim, metric,
                  /*streaming=*/false, heaps[r]);
      } else {
        OfferCandidates(kt, src, plan + r * words, tile_begin, tile_end,
                        rows, dim, metric, heaps[r]);
      }
    }
  }
}

void CheckSweep(const MatrixRowRange& source,
                std::span<const EntityId> row_ids, int64_t target_rows,
                int64_t target_cols, const LshIndex* index,
                const TopKOptions& options) {
  LARGEEA_CHECK_EQ(source.cols(), target_cols);
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_GT(options.k, 0);
  if (index != nullptr) {
    LARGEEA_CHECK_EQ(source.cols(), index->dim());
    LARGEEA_CHECK_LE(index->num_rows(), target_rows);
  }
}

const char* ScopeName(const LshIndex* index) {
  return index == nullptr ? "sim.topk.exact" : "sim.topk.lsh";
}

// Declares a finished sweep's traffic and counts it. The traffic model:
// every source row is read once; an exact sweep reads the whole target
// from beyond L2 once per block of `block_rows` rows and scores every
// pair, a planned one reads and scores each of its `planned`
// candidates; every row writes its k (score, id) pairs. The counters
// take one atomic add per call, nothing per row or per candidate.
void RecordSweep(obs::ProfileScope& prof, const LshIndex* index,
                 int64_t rows, int64_t block_rows, int64_t target_rows,
                 int64_t dim, int32_t k, int64_t planned) {
  const bool exact = index == nullptr;
  const int64_t scanned = exact ? rows * target_rows : planned;
  const int64_t target_reads =
      exact ? (rows + block_rows - 1) / block_rows * target_rows : planned;
  prof.AddBytes(4 * (rows + target_reads) * dim, rows * k * 8);
  prof.AddFlops(2 * scanned * dim);
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter(exact ? "topk.exact.rows" : "topk.lsh.rows").Add(rows);
  registry
      .GetCounter(exact ? "topk.exact.candidates_scanned"
                        : "topk.lsh.candidates_scanned")
      .Add(scanned);
}

}  // namespace

void TopKInto(const MatrixRowRange& source, std::span<const EntityId> row_ids,
              const MatrixRowRange& target, std::span<const EntityId> col_ids,
              const LshIndex* index, const TopKOptions& options,
              SparseSimMatrix& out) {
  CheckSweep(source, row_ids, target.rows(), target.cols(), index, options);
  LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  const int64_t dim = source.cols();
  const int64_t words = index == nullptr ? 0 : BitsetWords(target.rows());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t block_rows = par::TopKBlockRows(source.rows(), dim);
  const int64_t tile_rows = par::TopKTileRows(dim);
  obs::ProfileScope prof(ScopeName(index));

  // Parallel blocks that each plan, sweep and drain their own rows. A
  // parallel chunk may hold several blocks (ParallelFor caps the chunk
  // count); the planned candidate count is the only cross-chunk
  // aggregate — one relaxed add per chunk.
  std::atomic<int64_t> planned{0};
  par::ParallelFor(
      0, source.rows(), block_rows, [&](const par::ChunkRange& chunk) {
        std::vector<TopKHeap> heaps = ReservedHeaps(
            std::min(block_rows, chunk.end - chunk.begin), options.k);
        std::vector<uint64_t> plan(heaps.size() * static_cast<size_t>(words));
        int64_t candidates = 0;
        for (int64_t begin = chunk.begin; begin < chunk.end;
             begin += block_rows) {
          const int64_t rows = std::min(block_rows, chunk.end - begin);
          if (index != nullptr) {
            std::fill(plan.begin(), plan.end(), 0);
            candidates += PlanCandidates(source, begin, begin + rows, *index,
                                         words, plan.data());
          }
          OfferBlock(kt, source, begin, std::span(heaps).first(rows),
                     index == nullptr ? nullptr : plan.data(), words, target,
                     /*range_begin=*/0, tile_rows, options.metric);
          DrainHeaps(std::span(heaps).first(rows),
                     row_ids.subspan(begin, rows), col_ids, out);
        }
        planned.fetch_add(candidates, std::memory_order_relaxed);
      });
  RecordSweep(prof, index, source.rows(), block_rows, target.rows(), dim,
              options.k, planned.load(std::memory_order_relaxed));
}

void TopKInto(const MatrixRowRange& source, std::span<const EntityId> row_ids,
              const stream::TileMatrix& target, const LshIndex* index,
              const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK(target.complete());
  CheckSweep(source, row_ids, target.rows(), target.cols(), index, options);
  const int64_t rows = source.rows();
  const int64_t dim = source.cols();
  const int64_t words = index == nullptr ? 0 : BitsetWords(target.rows());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t block_rows = par::TopKBlockRows(rows, dim);
  const int64_t tile_rows = par::TopKTileRows(dim);
  obs::ProfileScope prof(ScopeName(index));

  // Pinned tiles on the outside, with the whole call as one block: plan
  // every row's candidates in parallel, then pin each spilled tile that
  // holds a candidate once, in order, prefetching the next one, and run
  // the block step over it for every block of rows. A call therefore
  // pins each tile at most once, however many rows it has.
  std::vector<uint64_t> plan(static_cast<size_t>(rows * words), 0);
  std::atomic<int64_t> planned{0};
  if (index != nullptr) {
    par::ParallelFor(0, rows, block_rows, [&](const par::ChunkRange& chunk) {
      planned.fetch_add(
          PlanCandidates(source, chunk.begin, chunk.end, *index, words,
                         plan.data() + chunk.begin * words),
          std::memory_order_relaxed);
    });
  }
  std::vector<TopKHeap> heaps = ReservedHeaps(rows, options.k);
  // The plan and the filled heaps stay live for the whole sweep;
  // tracking them lets the tile cache's headroom and the budget's peak
  // see them.
  const TrackedAllocation tracked_plan(
      static_cast<int64_t>(plan.size() * sizeof(uint64_t)) +
      rows * options.k *
          static_cast<int64_t>(sizeof(std::pair<float, int32_t>)));

  // Every tile without a plan; with one, only the tiles where some row
  // has a candidate, so a small block (tiny tiles) reads no more tiles
  // than its candidates touch.
  std::vector<int64_t> tiles;
  std::vector<uint64_t> any(static_cast<size_t>(words), 0);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t w = 0; w < words; ++w) any[w] |= plan[i * words + w];
  }
  for (int64_t t = 0; t < target.num_tiles(); ++t) {
    const int64_t begin = target.TileBegin(t);
    const int64_t end = target.TileEnd(t);
    bool needed = index == nullptr;
    for (int64_t w = begin >> 6; !needed && w <= (end - 1) >> 6; ++w) {
      needed = WordInRange(any.data(), w, begin, end) != 0;
    }
    if (needed) tiles.push_back(t);
  }

  for (size_t n = 0; n < tiles.size(); ++n) {
    if (n + 1 < tiles.size()) target.Prefetch(tiles[n + 1]);
    const int64_t t = tiles[n];
    const std::shared_ptr<const Matrix> tile = target.Tile(t);
    par::ParallelFor(0, rows, block_rows, [&](const par::ChunkRange& chunk) {
      for (int64_t begin = chunk.begin; begin < chunk.end;
           begin += block_rows) {
        OfferBlock(kt, source, begin,
                   std::span(heaps).subspan(
                       begin, std::min(block_rows, chunk.end - begin)),
                   index == nullptr ? nullptr : plan.data() + begin * words,
                   words, *tile, target.TileBegin(t), tile_rows,
                   options.metric);
      }
    });
  }

  par::ParallelFor(0, rows, block_rows, [&](const par::ChunkRange& chunk) {
    DrainHeaps(std::span(heaps).subspan(chunk.begin, chunk.end - chunk.begin),
               row_ids.subspan(chunk.begin, chunk.end - chunk.begin), {},
               out);
  });
  RecordSweep(prof, index, rows, block_rows, target.rows(), dim, options.k,
              planned.load(std::memory_order_relaxed));
}

SparseSimMatrix ExactTopK(const Matrix& source, const Matrix& target,
                          const TopKOptions& options) {
  std::vector<EntityId> row_ids(source.rows());
  std::vector<EntityId> col_ids(target.rows());
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  SparseSimMatrix out(static_cast<int32_t>(source.rows()),
                      static_cast<int32_t>(target.rows()), options.k);
  TopKInto(source, row_ids, target, col_ids, /*index=*/nullptr, options, out);
  out.RefreshMemoryTracking();
  return out;
}

}  // namespace largeea
