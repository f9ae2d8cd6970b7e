// Top-k similarity search between embedding matrices (Faiss substitute).
//
// Two paths, matching how the paper uses Faiss:
//   * exact blocked search — every (source, target) pair scored, only the
//     top-k per source kept;
//   * approximate search through a random-hyperplane LSH index
//     (src/sim/lsh.h) — candidates from colliding buckets are scored
//     exactly. Used at the DBP1M tier where exact search is too slow.
//
// Both write into a global SparseSimMatrix through row/column id maps, so
// mini-batch results land directly in the full M_s.
#ifndef LARGEEA_SIM_TOPK_SEARCH_H_
#define LARGEEA_SIM_TOPK_SEARCH_H_

#include <cstdint>
#include <span>

#include "src/la/matrix.h"
#include "src/sim/sparse_sim.h"

namespace largeea {

/// Similarity scoring function between two embedding rows.
enum class SimMetric {
  /// 1 / (1 + L1 distance) — the paper's Manhattan choice.
  kManhattan,
  /// Plain dot product (cosine once rows are L2-normalised).
  kDot,
};

struct TopKOptions {
  /// Candidates kept per source entity (the paper's φ = 50 for SENS).
  int32_t k = 50;
  SimMetric metric = SimMetric::kManhattan;
};

/// Scores every source row against every target row; keeps top-k, with
/// score ties broken towards the smaller column id so the kept set is
/// independent of scan order. `row_ids[i]` / `col_ids[j]` map view rows
/// to entity ids in `out`. Both sides take row-range views (a whole
/// Matrix converts implicitly), so callers can pass windows into the
/// full embedding matrices instead of materialised row copies.
/// Swept tile-major: parallel blocks of source rows
/// (par::TopKBlockRows) walk the target in L2-sized tiles
/// (par::TopKTileRows), scoring four target rows per kernel call into
/// heaps kept across tiles. The output is bit-identical at any thread
/// count and to a pair-at-a-time scan.
void ExactTopKInto(const MatrixRowRange& source,
                   std::span<const EntityId> row_ids,
                   const MatrixRowRange& target,
                   std::span<const EntityId> col_ids,
                   const TopKOptions& options, SparseSimMatrix& out);

/// Convenience wrapper: identity id maps, fresh matrix.
SparseSimMatrix ExactTopK(const Matrix& source, const Matrix& target,
                          const TopKOptions& options);

class LshIndex;

namespace stream {
class TileMatrix;
}  // namespace stream

/// Approximate variant: candidates come from `index` (built over `target`),
/// then are scored exactly with `options.metric`. Swept tile-major like
/// ExactTopKInto: each parallel block of source rows plans its candidate
/// bitsets, then walks the target in L2-sized tiles and offers every row
/// its in-tile candidates, scored in fours, to a heap kept across
/// tiles. Same deterministic tie-breaking as ExactTopKInto, so the
/// output is bit-identical at any thread count; `target` stays a full
/// Matrix because LSH candidate ids index its absolute rows.
void LshTopKInto(const MatrixRowRange& source,
                 std::span<const EntityId> row_ids, const Matrix& target,
                 std::span<const EntityId> col_ids, const LshIndex& index,
                 const TopKOptions& options, SparseSimMatrix& out);

/// Memory-budgeted exact variant: the target lives in a TileStore; tiles
/// are visited in order (prefetching the next while the current one is
/// scored) and accumulated into the global per-row top-k. Because the
/// kept set is a pure function of the candidate set, the result is
/// bit-identical to one ExactTopKInto over the whole target. Column ids
/// are the target's absolute row indices.
void ExactTopKStreamedInto(const MatrixRowRange& source,
                           std::span<const EntityId> row_ids,
                           const stream::TileMatrix& target, bool prefetch,
                           const TopKOptions& options, SparseSimMatrix& out);

/// Memory-budgeted approximate variant, swept tile-major: the block's
/// rows are first queried against `index` (built over the tiled target,
/// e.g. incrementally) into a tracked plan of candidate bitsets, one bit
/// per target row; then each target tile holding a candidate is pinned
/// once, in order (prefetching the next such tile when `prefetch`), and
/// every row scores its candidates inside it into a heap kept across
/// tiles. A call therefore pins each tile at most once, however many
/// rows it has. Bit-identical to LshTopKInto over the same target.
/// Column ids are the target's absolute row indices.
void LshTopKStreamedInto(const MatrixRowRange& source,
                         std::span<const EntityId> row_ids,
                         const stream::TileMatrix& target,
                         const LshIndex& index, bool prefetch,
                         const TopKOptions& options, SparseSimMatrix& out);

}  // namespace largeea

#endif  // LARGEEA_SIM_TOPK_SEARCH_H_
