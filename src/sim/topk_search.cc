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

// Both in-memory kernels sweep tile-major: each ParallelFor chunk walks
// its source rows in blocks of par::TopKBlockRows, and a block visits
// the target in L2-sized tiles of par::TopKTileRows rows, offering every
// row its candidates inside the tile to a heap that lives across tiles.
// The kept set is a pure function of the candidate set, so the bytes
// match a row-at-a-time scan. Candidates are scored in fours
// (ScorePair4) in ascending id order. Blocks write disjoint `out` rows
// straight from the parallel body, so any grain (and any thread count)
// produces identical bytes with no merge tail at all.
//
// ScorePair, ScorePair4, OfferRows and TopKHeap live in
// src/sim/topk_util.h so the single-query path (HNSW, serving) keeps
// byte-identical scores and keep-set semantics with these batch kernels.

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

// One reserved heap per row of the largest block a chunk of `chunk_rows`
// rows holds.
std::vector<TopKHeap> BlockHeaps(int64_t block_rows, int64_t chunk_rows,
                                 int32_t k) {
  std::vector<TopKHeap> heaps(
      static_cast<size_t>(std::min(block_rows, chunk_rows)), TopKHeap(k));
  for (TopKHeap& heap : heaps) heap.Reserve();
  return heaps;
}

}  // namespace

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
  const int64_t block_rows = par::TopKBlockRows(source.rows(), dim);
  const int64_t tile_rows = par::TopKTileRows(dim);

  // Tile-major traffic: every source row is read once, and the whole
  // target once per block of source rows (each tile from beyond L2,
  // then from L2 for the rest of the block); the survivors are
  // (score, id) pairs.
  obs::ProfileScope prof("sim.topk.exact");
  const int64_t blocks = (source.rows() + block_rows - 1) / block_rows;
  prof.AddBytes(4 * (source.rows() + blocks * target.rows()) * dim,
                source.rows() * options.k * 8);
  prof.AddFlops(2 * source.rows() * target.rows() * dim);

  par::ParallelFor(
      0, source.rows(), block_rows, [&](const par::ChunkRange& chunk) {
        std::vector<TopKHeap> heaps =
            BlockHeaps(block_rows, chunk.end - chunk.begin, options.k);
        for (int64_t begin = chunk.begin; begin < chunk.end;
             begin += block_rows) {
          // Deliberately a hot-path no-op unless LARGEEA_OBS_HOT_TRACING
          // is defined: per-block spans would crowd the trace.
          LARGEEA_TRACE_HOT_SPAN("topk/exact_block");
          const int64_t rows = std::min(block_rows, chunk.end - begin);
          for (int64_t tile = 0; tile < target.rows(); tile += tile_rows) {
            const int64_t tile_end = std::min(tile + tile_rows, target.rows());
            for (int64_t r = 0; r < rows; ++r) {
              OfferRows(kt, source.Row(begin + r), tile, tile_end,
                        target.Row(tile), dim, options.metric,
                        /*streaming=*/false, heaps[r]);
            }
          }
          DrainHeaps(std::span(heaps).first(rows),
                     row_ids.subspan(begin, rows), col_ids, out);
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

namespace {

// A block's candidate plan: one bitset of BitsetWords(target rows) words
// per source row, filled by LshIndex::Query. Set bits are the row's
// candidates in ascending order, already de-duplicated. Returns the
// number of candidates planned.
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

void RecordLshScan(obs::ProfileScope& prof, int64_t rows, int64_t dim,
                   int64_t candidates_scanned) {
  prof.AddBytes(4 * candidates_scanned * dim, 0);
  prof.AddFlops(2 * candidates_scanned * dim);
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("topk.lsh.rows").Add(rows);
  registry.GetCounter("topk.lsh.candidates_scanned").Add(candidates_scanned);
}

}  // namespace

void LshTopKInto(const MatrixRowRange& source,
                 std::span<const EntityId> row_ids, const Matrix& target,
                 std::span<const EntityId> col_ids, const LshIndex& index,
                 const TopKOptions& options, SparseSimMatrix& out) {
  LARGEEA_CHECK_EQ(source.cols(), target.cols());
  LARGEEA_CHECK_EQ(source.cols(), index.dim());
  LARGEEA_CHECK_LE(index.num_rows(), target.rows());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  LARGEEA_CHECK_GT(options.k, 0);
  const int64_t dim = source.cols();
  const int64_t words = BitsetWords(target.rows());
  const simd::KernelTable& kt = simd::Kernels();

  // LSH candidate counts are data-dependent: the fixed source-read and
  // result-write traffic is declared up front, and the scored-candidate
  // traffic is added after the loop once candidates_scanned is known
  // (ProfileScope accumulators are caller-thread-only by design).
  obs::ProfileScope prof("sim.topk.lsh");
  prof.AddBytes(4 * source.rows() * dim, source.rows() * options.k * 8);

  // The exact kernel's tile-major sweep, with each block's candidate
  // bitsets planned before its tiles are walked, so a row is offered
  // only its set bits inside each tile. A parallel chunk may hold
  // several blocks (ParallelFor caps the chunk count); the candidate
  // count is the only cross-chunk aggregate — one relaxed add per
  // chunk.
  std::atomic<int64_t> candidates_total{0};
  const int64_t block_rows = par::TopKBlockRows(source.rows(), dim);
  const int64_t tile_rows = par::TopKTileRows(dim);
  par::ParallelFor(
      0, source.rows(), block_rows, [&](const par::ChunkRange& chunk) {
        std::vector<TopKHeap> heaps =
            BlockHeaps(block_rows, chunk.end - chunk.begin, options.k);
        std::vector<uint64_t> bits(heaps.size() * static_cast<size_t>(words));
        int64_t candidates = 0;
        for (int64_t begin = chunk.begin; begin < chunk.end;
             begin += block_rows) {
          const int64_t rows = std::min(block_rows, chunk.end - begin);
          std::fill(bits.begin(), bits.end(), 0);
          candidates += PlanCandidates(source, begin, begin + rows, index,
                                       words, bits.data());
          for (int64_t tile = 0; tile < target.rows(); tile += tile_rows) {
            const int64_t tile_end = std::min(tile + tile_rows, target.rows());
            for (int64_t r = 0; r < rows; ++r) {
              OfferCandidates(kt, source.Row(begin + r),
                              bits.data() + r * words, tile, tile_end,
                              target.Row(tile), dim, options.metric,
                              heaps[r]);
            }
          }
          DrainHeaps(std::span(heaps).first(rows),
                     row_ids.subspan(begin, rows), col_ids, out);
        }
        candidates_total.fetch_add(candidates, std::memory_order_relaxed);
      });
  RecordLshScan(prof, source.rows(), dim,
                candidates_total.load(std::memory_order_relaxed));
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
  LARGEEA_CHECK_LE(index.num_rows(), target.rows());
  LARGEEA_CHECK_EQ(static_cast<size_t>(source.rows()), row_ids.size());
  LARGEEA_CHECK_GT(options.k, 0);
  const int64_t dim = source.cols();
  const int64_t rows = source.rows();
  const int64_t words = BitsetWords(target.rows());
  const simd::KernelTable& kt = simd::Kernels();

  obs::ProfileScope prof("sim.topk.lsh");
  prof.AddBytes(4 * rows * dim, rows * options.k * 8);

  // The same tile-major sweep as LshTopKInto, with the whole call as one
  // block and the spilled tiles as its tiles: plan every row's candidate
  // bitset in parallel, then pin each needed tile once, in order
  // (prefetching the next one when asked), and offer every row its
  // candidates inside it. A call therefore pins each tile at most once,
  // however many rows it has.
  const int64_t block_rows = par::TopKBlockRows(rows, dim);
  std::vector<uint64_t> bits(static_cast<size_t>(rows * words), 0);
  std::atomic<int64_t> candidates_total{0};
  par::ParallelFor(0, rows, block_rows, [&](const par::ChunkRange& chunk) {
    candidates_total.fetch_add(
        PlanCandidates(source, chunk.begin, chunk.end, index, words,
                       bits.data() + chunk.begin * words),
        std::memory_order_relaxed);
  });
  std::vector<TopKHeap> heaps(static_cast<size_t>(rows), TopKHeap(options.k));
  for (TopKHeap& heap : heaps) heap.Reserve();
  // The bitsets and the filled heaps stay live for the whole sweep;
  // tracking them lets the tile cache's headroom and the budget's peak
  // see them.
  const TrackedAllocation tracked_plan(
      rows * words * static_cast<int64_t>(sizeof(uint64_t)) +
      rows * options.k *
          static_cast<int64_t>(sizeof(std::pair<float, int32_t>)));

  // Tiles no row of the block has a candidate in are never pinned, so a
  // small block (tiny tiles) reads no more tiles than its candidates
  // touch.
  std::vector<uint64_t> any(static_cast<size_t>(words), 0);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t w = 0; w < words; ++w) any[w] |= bits[i * words + w];
  }
  std::vector<int64_t> tiles;
  for (int64_t t = 0; t < target.num_tiles(); ++t) {
    const int64_t begin = target.TileBegin(t);
    const int64_t end = target.TileEnd(t);
    for (int64_t w = begin >> 6; w <= (end - 1) >> 6; ++w) {
      if (WordInRange(any.data(), w, begin, end) != 0) {
        tiles.push_back(t);
        break;
      }
    }
  }

  for (size_t n = 0; n < tiles.size(); ++n) {
    if (prefetch && n + 1 < tiles.size()) target.Prefetch(tiles[n + 1]);
    const int64_t t = tiles[n];
    const std::shared_ptr<const Matrix> tile = target.Tile(t);
    const int64_t tile_begin = target.TileBegin(t);
    const int64_t tile_end = target.TileEnd(t);
    par::ParallelFor(0, rows, block_rows, [&](const par::ChunkRange& chunk) {
      for (int64_t i = chunk.begin; i < chunk.end; ++i) {
        OfferCandidates(kt, source.Row(i), bits.data() + i * words,
                        tile_begin, tile_end, tile->Row(0), dim,
                        options.metric, heaps[i]);
      }
    });
  }

  par::ParallelFor(0, rows, block_rows, [&](const par::ChunkRange& chunk) {
    DrainHeaps(std::span(heaps).subspan(chunk.begin, chunk.end - chunk.begin),
               row_ids.subspan(chunk.begin, chunk.end - chunk.begin), {},
               out);
  });
  RecordLshScan(prof, rows, dim,
                candidates_total.load(std::memory_order_relaxed));
}

}  // namespace largeea
