// Top-k similarity search between embedding matrices (Faiss substitute).
//
// One sweep, matching how the paper uses Faiss: blocks of source rows
// walk the target in L2-sized tiles, offering every row its candidates
// inside each tile to a heap kept across tiles, and keep the top-k per
// source row. The candidates are either every target row (exact search)
// or the rows that share a bucket with the source row in a
// random-hyperplane LSH index (src/sim/lsh.h), scored exactly — the
// DBP1M-tier setting, where exact search is slower.
//
// Two entries, one per target kind, run that same block step and differ
// only in their outer loop: an in-memory target, or a target spilled to
// a TileStore under a memory budget. Both write into a global
// SparseSimMatrix through row/column id maps, so mini-batch results
// land directly in the full M_s.
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

class LshIndex;

namespace stream {
class TileMatrix;
}  // namespace stream

/// Keeps the top-k target rows per source row. A null `index` makes
/// every target row a candidate (exact search); otherwise the candidates
/// of a source row are the target rows `index` (built over `target`)
/// returns for it. Candidates are scored with `options.metric`, and
/// score ties break towards the smaller column id, so the kept set is a
/// pure function of the candidate set. `row_ids[i]` / `col_ids[j]` map
/// view rows to entity ids in `out`. Both sides take row-range views (a
/// whole Matrix converts implicitly), so callers can pass windows into
/// the full embedding matrices instead of materialised row copies.
/// Swept tile-major: parallel blocks of source rows (par::TopKBlockRows)
/// each plan their candidate bitsets (with an index), walk the target in
/// L2-sized tiles (par::TopKTileRows) scoring four candidates per kernel
/// call into heaps kept across tiles, and drain their own rows. The
/// output is bit-identical at any thread count and to a pair-at-a-time
/// scan.
void TopKInto(const MatrixRowRange& source, std::span<const EntityId> row_ids,
              const MatrixRowRange& target, std::span<const EntityId> col_ids,
              const LshIndex* index, const TopKOptions& options,
              SparseSimMatrix& out);

/// Memory-budgeted variant: the target is a complete TileMatrix in a
/// TileStore, and column ids are its absolute row indices. The whole
/// call is one block: every row's candidates are planned first (with a
/// non-null `index`, built over the tiled target, e.g. incrementally),
/// then each spilled tile holding a candidate is pinned once, in order,
/// with the next such tile prefetched, and every row is offered its
/// candidates inside it, by the same block step, to a heap kept across
/// the spilled tiles. The plan and the heaps are tracked for the
/// budget. Bit-identical to the in-memory entry over the same target.
void TopKInto(const MatrixRowRange& source, std::span<const EntityId> row_ids,
              const stream::TileMatrix& target, const LshIndex* index,
              const TopKOptions& options, SparseSimMatrix& out);

/// Convenience wrapper: exact search, identity id maps, fresh matrix.
SparseSimMatrix ExactTopK(const Matrix& source, const Matrix& target,
                          const TopKOptions& options);

}  // namespace largeea

#endif  // LARGEEA_SIM_TOPK_SEARCH_H_
