// Shared top-k accumulation primitives for the similarity kernels.
//
// TopKHeap and ScorePair started life inside topk_search.cc; the
// single-query path (the HNSW graph index, the serve index's exact scan
// and its re-rank) needs the exact same deterministic keep-set
// semantics, so they live here. Any change to the tie-break rule below
// changes which candidates survive everywhere at once — batch, ANN, and
// serving stay in agreement by construction.
#ifndef LARGEEA_SIM_TOPK_UTIL_H_
#define LARGEEA_SIM_TOPK_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/la/ops.h"
#include "src/sim/topk_search.h"
#include "src/simd/simd.h"

namespace largeea {

// The kernel table is resolved once per call (one atomic load) and
// passed down, so the per-candidate scoring never re-reads the
// dispatch pointer inside the hot loop.
inline float ScorePair(const simd::KernelTable& kt, const float* a,
                       const float* b, int64_t dim, SimMetric metric) {
  switch (metric) {
    case SimMetric::kManhattan:
      return ManhattanSimilarity(kt.manhattan(a, b, dim));
    case SimMetric::kDot:
      return kt.dot(a, b, dim);
  }
  return 0.0f;  // unreachable
}

// Fixed-capacity top-k accumulator: a binary min-heap on (score, id).
// Ties at the k-boundary break towards the smaller column id, so the
// surviving set is a pure function of the candidate set — scan order
// (and therefore tiling or thread count) cannot change it.
class TopKHeap {
 public:
  explicit TopKHeap(int32_t k) : k_(k) {}

  void Offer(int32_t id, float score) {
    if (static_cast<int32_t>(heap_.size()) < k_) {
      heap_.push_back({score, id});
      std::push_heap(heap_.begin(), heap_.end(), Better);
    } else if (Better({score, id}, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Better);
      heap_.back() = {score, id};
      std::push_heap(heap_.begin(), heap_.end(), Better);
    }
  }

  /// Empties the heap into `out` in deterministic (score desc, id asc)
  /// order. `out` is cleared first.
  void Drain(std::vector<std::pair<float, int32_t>>& out) {
    out.clear();
    out.swap(heap_);
    std::sort(out.begin(), out.end(), Better);
  }

  void Clear() { heap_.clear(); }

  /// Allocates all k entries now, so a heap's bytes are known before it
  /// fills and it never regrows.
  void Reserve() { heap_.reserve(static_cast<size_t>(k_)); }

  /// Strict ranking: higher score first, then smaller id. Used both as
  /// the heap comparator (front = worst kept item) and the drain order.
  static bool Better(const std::pair<float, int32_t>& a,
                     const std::pair<float, int32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }

 private:
  int32_t k_;
  std::vector<std::pair<float, int32_t>> heap_;
};

}  // namespace largeea

#endif  // LARGEEA_SIM_TOPK_UTIL_H_
