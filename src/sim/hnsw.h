// Deterministic HNSW-style navigable small-world graph index.
//
// The serving layer needs single-query top-k in sub-millisecond time;
// LSH multiprobe answers that for hash-friendly distributions but its
// candidate counts balloon on dense clusters, and the exact path is a
// full matrix scan. HNSW gives logarithmic-ish search by greedy descent
// through a layered proximity graph.
//
// Determinism contract (same as every other sim:: component):
//   * level assignment is a pure function of (seed, row id) — not of
//     insertion timing;
//   * nodes insert in batches of consecutive row ids whose sizes depend
//     only on how many nodes the graph already holds. A batch's nodes
//     search the graph as it stood before the batch, in parallel, each
//     writing only its own lists; then, one list per task, the back-links
//     land in id order and each list is pruned at most once;
//   * every priority decision (beam ordering, neighbor selection,
//     pruning) breaks score ties towards the smaller id via
//     TopKHeap::Better, so the finished graph and every query answer
//     are bit-identical across runs, thread counts, and SIMD backends.
//
// Search returns exact scores: candidates surfaced by the graph walk
// are scored with the same ScorePair/ScorePair4 kernels the batch scan
// uses, so the "re-rank" of the shortlist is inherent — an HNSW answer
// can only differ from the exact scan by *missing* a candidate
// (recall), never by mis-ranking one it found.
//
// The finished graph is CSR over (node, layer) slots: node v's layers
// 0..level(v) are the slots [node_slots[v], node_slots[v + 1]), and slot
// s lists links[list_offsets[s], list_offsets[s + 1]). The build freezes
// its lists into these three arrays; the serve index stores them in its
// image and a loaded index walks them in the mapping (FromCsr).
#ifndef LARGEEA_SIM_HNSW_H_
#define LARGEEA_SIM_HNSW_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/flat_array.h"
#include "src/la/matrix.h"
#include "src/rt/status.h"
#include "src/sim/topk_search.h"

namespace largeea {

struct HnswOptions {
  /// Max neighbors per node on layers > 0 (the classic M); layer 0
  /// keeps 2*M. Higher = better recall, bigger graph.
  int32_t max_neighbors = 12;
  /// Beam width while building. Build cost scales linearly with it.
  int32_t ef_construction = 80;
  /// Default beam width at layer 0 while querying (raised to k when
  /// k is larger). Higher = better recall, slower queries.
  int32_t ef_search = 64;
  uint64_t seed = 7;
};

/// Layered proximity graph over the rows of a data matrix. Immutable
/// after construction; QueryTopK is const and thread-safe (each query
/// carries its own scratch, its visited set reused per thread). The data
/// rows are borrowed, not copied — the caller keeps them alive for the
/// index's lifetime.
class HnswIndex {
 public:
  /// Builds the graph over `data` rows with similarity `metric`.
  HnswIndex(MatrixRowRange data, SimMetric metric, const HnswOptions& options);

  /// A graph laid out earlier — the serve index's, borrowed from its
  /// image — over `data`. DATA_LOSS for a graph QueryTopK could walk out
  /// of bounds: a node with no layer or above RandomLevel's cap of 32, CSR
  /// offsets that do not ascend from 0 to their array's end, a neighbor
  /// id out of range or listed on a layer above its own top, or an entry
  /// point that is not on the top layer.
  static StatusOr<HnswIndex> FromCsr(MatrixRowRange data, SimMetric metric,
                                     const HnswOptions& options,
                                     int32_t entry_point, int32_t max_level,
                                     FlatArray<uint64_t> node_slots,
                                     FlatArray<uint64_t> list_offsets,
                                     FlatArray<int32_t> links);

  /// Appends the exact-scored top-k rows for `query` (length dim()) to
  /// `out` as (score, row) pairs in deterministic (score desc, id asc)
  /// order. `out` is cleared first. Thread-safe.
  void QueryTopK(const float* query, int32_t k,
                 std::vector<std::pair<float, int32_t>>& out) const;

  int64_t size() const { return data_.rows(); }
  int64_t dim() const { return data_.cols(); }
  int32_t entry_point() const { return entry_point_; }
  int32_t max_level() const { return max_level_; }
  /// Total directed edges across all layers (graph-size telemetry).
  int64_t num_edges() const { return static_cast<int64_t>(links_.size()); }

  // The CSR arrays (see the file comment).
  std::span<const uint64_t> node_slots() const { return node_slots_.span(); }
  std::span<const uint64_t> list_offsets() const {
    return list_offsets_.span();
  }
  std::span<const int32_t> links() const { return links_.span(); }
  /// Node `node`'s neighbors on layer `level` (<= its top layer).
  std::span<const int32_t> Neighbors(int32_t node, int32_t level) const {
    const uint64_t slot = node_slots_[static_cast<size_t>(node)] + level;
    return links_.span().subspan(
        list_offsets_[slot], list_offsets_[slot + 1] - list_offsets_[slot]);
  }

 private:
  HnswIndex(MatrixRowRange data, SimMetric metric, const HnswOptions& options,
            int32_t entry_point, int32_t max_level,
            FlatArray<uint64_t> node_slots, FlatArray<uint64_t> list_offsets,
            FlatArray<int32_t> links);

  struct Lists;
  struct BuildScratch;
  struct BackLink;

  /// Epoch-stamped visited marks: NewEpoch() invalidates every mark in
  /// O(1) instead of an O(n) clear, so a search only pays for the nodes
  /// it actually touches. One full zeroing happens on (re)size and on
  /// the rare stamp wrap-around; everything else is amortised O(1).
  /// Each build worker and each querying thread reuses one VisitedSet —
  /// with a plain byte array that was n clears of n bytes, quadratic
  /// memset traffic in the build and an n-stamp allocation per query.
  struct VisitedSet {
    std::vector<uint16_t> stamp;
    uint16_t epoch = 0;

    void NewEpoch(size_t n) {
      if (stamp.size() != n || ++epoch == 0) {
        stamp.assign(n, 0);
        epoch = 1;
      }
    }
    /// True if already visited this epoch; marks visited either way.
    bool TestAndSet(int32_t i) {
      if (stamp[static_cast<size_t>(i)] == epoch) return true;
      stamp[static_cast<size_t>(i)] = epoch;
      return false;
    }
  };

  int32_t RandomLevel(int32_t node) const;
  /// Lays the built lists out as the CSR arrays, in (node, layer) order.
  void Freeze(const Lists& g);
  /// Link cap of layer `lc`: 2*M at layer 0, M above.
  int32_t MaxLinks(int32_t lc) const {
    return lc == 0 ? 2 * options_.max_neighbors : options_.max_neighbors;
  }
  /// Build phase A for `node` of the batch starting at `batch_begin`:
  /// searches the graph as it stood before the batch, adds the batch's
  /// earlier nodes as candidates, and writes the node's own lists.
  /// Returns the pair scores computed.
  int64_t Connect(int32_t node, int32_t batch_begin, Lists& g,
                  BuildScratch& s) const;
  /// Build phase C for one list: appends the batch's back-links
  /// [first, last) (one list, ascending node) and prunes the list once
  /// if it exceeds its cap. Returns the pair scores computed.
  int64_t LinkBack(const BackLink* first, const BackLink* last, Lists& g,
                   BuildScratch& s) const;
  /// Greedy beam search on one layer from `entry` over the lists that
  /// `neighbors(node, level)` returns (the build's or the CSR); fills
  /// `best` with up to `ef` (score, id) pairs, best first. `visited` is
  /// caller scratch and gets a fresh epoch here. Each expanded node's
  /// unvisited neighbors are scored in fours. Returns the pair scores
  /// computed.
  template <typename NeighborsFn>
  int64_t SearchLayer(const float* query, int32_t entry, int32_t ef,
                      int32_t level, const NeighborsFn& neighbors,
                      std::vector<std::pair<float, int32_t>>& best,
                      VisitedSet& visited) const;
  /// The select-neighbors heuristic: keeps a candidate only if it is
  /// closer to the query than to every already-kept neighbor (then
  /// fills from the pruned remainder, preserving connectivity). Returns
  /// the pair scores computed.
  int64_t SelectNeighbors(const std::vector<std::pair<float, int32_t>>& sorted,
                          int32_t m, std::vector<int32_t>& out) const;

  MatrixRowRange data_;
  SimMetric metric_;
  HnswOptions options_;
  /// 1 / ln(M): the level-assignment temperature from the HNSW paper.
  double level_mult_ = 0.0;

  int32_t entry_point_ = -1;
  int32_t max_level_ = -1;
  FlatArray<uint64_t> node_slots_;
  FlatArray<uint64_t> list_offsets_;
  FlatArray<int32_t> links_;
};

}  // namespace largeea

#endif  // LARGEEA_SIM_HNSW_H_
