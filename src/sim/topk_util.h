// Shared top-k accumulation primitives for the similarity kernels.
//
// TopKHeap, ScorePair, ScorePair4 and OfferRows started life inside
// topk_search.cc; the single-query path (the HNSW graph index, the serve
// index's exact scan and its re-rank) needs the exact same scores and
// deterministic keep-set semantics, so they live here. Any change to the
// tie-break rule below changes which candidates survive everywhere at
// once — batch, ANN, and serving stay in agreement by construction.
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

// Scores `a` against the four rows b[0..3] in one kernel call: out[q] is
// bit-identical to ScorePair(kt, a, b[q], dim, metric). Every loop that
// scores one row against many goes through this in fours, leaving only
// the last 1-3 pairs of a run to ScorePair.
inline void ScorePair4(const simd::KernelTable& kt, const float* a,
                       const float* const b[4], int64_t dim, SimMetric metric,
                       float out[4]) {
  switch (metric) {
    case SimMetric::kManhattan:
      kt.manhattan4(a, b, dim, out);
      for (int q = 0; q < 4; ++q) out[q] = ManhattanSimilarity(out[q]);
      return;
    case SimMetric::kDot:
      kt.dot4(a, b, dim, out);
      return;
  }
}

// Scores `a` against rows[0..n) into scores[0..n): fours through
// ScorePair4, the last n % 4 through ScorePair.
inline void ScoreRows(const simd::KernelTable& kt, const float* a,
                      const float* const* rows, int64_t n, int64_t dim,
                      SimMetric metric, float* scores) {
  int64_t t = 0;
  for (; t + 4 <= n; t += 4) {
    ScorePair4(kt, a, rows + t, dim, metric, scores + t);
  }
  for (; t < n; ++t) scores[t] = ScorePair(kt, a, rows[t], dim, metric);
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

// Offers `a` the rows [begin, end) to `heap` in ascending id order,
// scored in fours; `rows` points at row `begin`, rows `dim` floats
// apart. `streaming` is for a scan that reads the rows from beyond L2
// once (one query against a whole matrix): four rows read side by side
// defeat the hardware stream prefetcher there (a DBP1M serve-index scan
// ran ~20% slower than one row at a time), so the group two ahead is
// prefetched in software. A tile the caller re-reads from L2 passes
// false: there the prefetches only cost issue slots (~20% at dim 192).
inline void OfferRows(const simd::KernelTable& kt, const float* a,
                      int64_t begin, int64_t end, const float* rows,
                      int64_t dim, SimMetric metric, bool streaming,
                      TopKHeap& heap) {
  constexpr int64_t kPrefetchRows = 8;
  int64_t j = begin;
  float scores[4];
  for (; j + 4 <= end; j += 4) {
    const float* row = rows + (j - begin) * dim;
    if (streaming && j + kPrefetchRows + 4 <= end) {
      const float* ahead = row + kPrefetchRows * dim;
      for (int64_t off = 0; off < 4 * dim; off += 16) {
        __builtin_prefetch(ahead + off);
      }
    }
    const float* four[4] = {row, row + dim, row + 2 * dim, row + 3 * dim};
    ScorePair4(kt, a, four, dim, metric, scores);
    for (int q = 0; q < 4; ++q) {
      heap.Offer(static_cast<int32_t>(j + q), scores[q]);
    }
  }
  for (; j < end; ++j) {
    heap.Offer(static_cast<int32_t>(j),
               ScorePair(kt, a, rows + (j - begin) * dim, dim, metric));
  }
}

}  // namespace largeea

#endif  // LARGEEA_SIM_TOPK_UTIL_H_
