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
#ifndef LARGEEA_SIM_HNSW_H_
#define LARGEEA_SIM_HNSW_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/la/matrix.h"
#include "src/rt/binary_io.h"
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
/// after construction; Query/QueryTopK are const and thread-safe (each
/// query carries its own scratch). The data matrix is borrowed, not
/// copied — the caller keeps it alive for the index's lifetime.
class HnswIndex {
 public:
  /// Builds the graph over `data` rows with similarity `metric`.
  HnswIndex(const Matrix& data, SimMetric metric, const HnswOptions& options);

  /// Appends the exact-scored top-k rows for `query` (length dim()) to
  /// `out` as (score, row) pairs in deterministic (score desc, id asc)
  /// order. `out` is cleared first. Thread-safe.
  void QueryTopK(const float* query, int32_t k,
                 std::vector<std::pair<float, int32_t>>& out) const;

  int64_t size() const { return static_cast<int64_t>(levels_.size()); }
  int64_t dim() const { return data_->cols(); }
  int32_t max_level() const { return max_level_; }
  /// Total directed edges across all layers (graph-size telemetry).
  int64_t num_edges() const;

  /// Appends the graph structure (options, levels, adjacency) to `w`.
  /// The data matrix is serialised separately by the caller.
  void Serialize(rt::BinaryWriter& w) const;

  /// Rebuilds an index from Serialize() output over an already-loaded
  /// data matrix. kDataLoss on truncated or inconsistent payloads.
  static StatusOr<HnswIndex> Deserialize(rt::BinaryReader& r,
                                         const Matrix& data, SimMetric metric);

 private:
  /// Deserialization constructor: graph fields are filled by the caller.
  HnswIndex(const Matrix& data, SimMetric metric);

  struct BuildScratch;
  struct BackLink;

  /// Epoch-stamped visited marks: NewEpoch() invalidates every mark in
  /// O(1) instead of an O(n) clear, so a search only pays for the nodes
  /// it actually touches. One full zeroing happens on (re)size and on
  /// the rare stamp wrap-around; everything else is amortised O(1).
  /// Each build worker reuses one VisitedSet across its insertions —
  /// with a plain byte array that was n clears of n bytes, quadratic
  /// memset traffic.
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
  /// Link cap of layer `lc`: 2*M at layer 0, M above.
  int32_t MaxLinks(int32_t lc) const {
    return lc == 0 ? 2 * options_.max_neighbors : options_.max_neighbors;
  }
  /// Build phase A for `node` of the batch starting at `batch_begin`:
  /// searches the graph as it stood before the batch, adds the batch's
  /// earlier nodes as candidates, and writes the node's own lists.
  /// Returns the pair scores computed.
  int64_t Connect(int32_t node, int32_t batch_begin, BuildScratch& s);
  /// Build phase C for one list: appends the batch's back-links
  /// [first, last) (one list, ascending node) and prunes the list once
  /// if it exceeds its cap. Returns the pair scores computed.
  int64_t LinkBack(const BackLink* first, const BackLink* last,
                   BuildScratch& s);
  /// Greedy beam search on one layer from `entry`; fills `best` with up
  /// to `ef` (score, id) pairs, best first. `visited` is caller scratch
  /// and gets a fresh epoch here. Each expanded node's unvisited
  /// neighbors are scored in fours. Returns the pair scores computed.
  int64_t SearchLayer(const float* query, int32_t entry, int32_t ef,
                      int32_t level,
                      std::vector<std::pair<float, int32_t>>& best,
                      VisitedSet& visited) const;
  /// The select-neighbors heuristic: keeps a candidate only if it is
  /// closer to the query than to every already-kept neighbor (then
  /// fills from the pruned remainder, preserving connectivity). Returns
  /// the pair scores computed.
  int64_t SelectNeighbors(const std::vector<std::pair<float, int32_t>>& sorted,
                          int32_t m, std::vector<int32_t>& out) const;

  const Matrix* data_;
  SimMetric metric_;
  HnswOptions options_;
  /// 1 / ln(M): the level-assignment temperature from the HNSW paper.
  double level_mult_ = 0.0;

  std::vector<int32_t> levels_;  ///< levels_[node] = top layer of node
  /// links_[node][level] = neighbor ids, for level in [0, levels_[node]].
  std::vector<std::vector<std::vector<int32_t>>> links_;
  int32_t entry_point_ = -1;
  int32_t max_level_ = -1;
};

}  // namespace largeea

#endif  // LARGEEA_SIM_HNSW_H_
