#include "src/sim/hnsw.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea {

HnswIndex::HnswIndex(const Matrix& data, SimMetric metric)
    : data_(&data), metric_(metric) {}

HnswIndex::HnswIndex(const Matrix& data, SimMetric metric,
                     const HnswOptions& options)
    : data_(&data), metric_(metric), options_(options) {
  LARGEEA_CHECK_GT(options.max_neighbors, 1);
  LARGEEA_CHECK_GT(options.ef_construction, 0);
  level_mult_ = 1.0 / std::log(static_cast<double>(options.max_neighbors));

  const int64_t n = data.rows();
  levels_.resize(n);
  links_.resize(n);
  if (n == 0) return;

  obs::Span span("hnsw/build");
  span.AddAttr("rows", n);
  obs::ProfileScope prof("sim.hnsw.build");
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t dim = data.cols();

  VisitedSet visited;
  std::vector<std::pair<float, int32_t>> best;
  std::vector<int32_t> selected;
  std::vector<const float*> link_rows;
  std::vector<float> link_scores;
  std::vector<std::pair<float, int32_t>> scored;
  std::vector<int32_t> pruned;
  // Pair scores computed, summed locally and published once.
  int64_t scores = 0;
  // Sequential ascending-row insertion: the graph is a fold over rows
  // 0..n-1, which together with the pure level function makes the
  // finished structure a deterministic function of (data, options).
  for (int32_t node = 0; node < n; ++node) {
    const int32_t level = RandomLevel(node);
    levels_[node] = level;
    links_[node].resize(level + 1);

    if (entry_point_ < 0) {
      entry_point_ = node;
      max_level_ = level;
      continue;
    }

    const float* query = data_->Row(node);
    int32_t ep = entry_point_;
    // Greedy descent through layers above the new node's top level.
    for (int32_t lc = max_level_; lc > level; --lc) {
      scores += SearchLayer(query, ep, /*ef=*/1, lc, best, visited);
      if (!best.empty()) ep = best.front().second;
    }
    // Connect on every shared layer, top down.
    for (int32_t lc = std::min(level, max_level_); lc >= 0; --lc) {
      scores +=
          SearchLayer(query, ep, options_.ef_construction, lc, best, visited);
      const int32_t m = lc == 0 ? 2 * options_.max_neighbors
                                : options_.max_neighbors;
      scores += SelectNeighbors(best, m, selected);
      links_[node][lc] = selected;
      if (!best.empty()) ep = best.front().second;
      // Back-links, pruning any neighbor that now exceeds its cap with
      // the same heuristic (rescored in fours relative to that neighbor).
      for (const int32_t nb : selected) {
        std::vector<int32_t>& nb_links = links_[nb][lc];
        nb_links.push_back(node);
        if (static_cast<int32_t>(nb_links.size()) > m) {
          link_rows.clear();
          for (const int32_t cand : nb_links) {
            link_rows.push_back(data_->Row(cand));
          }
          link_scores.resize(nb_links.size());
          ScoreRows(kt, data_->Row(nb), link_rows.data(),
                    static_cast<int64_t>(nb_links.size()), dim, metric_,
                    link_scores.data());
          scores += static_cast<int64_t>(nb_links.size());
          scored.clear();
          for (size_t t = 0; t < nb_links.size(); ++t) {
            scored.push_back({link_scores[t], nb_links[t]});
          }
          std::sort(scored.begin(), scored.end(), TopKHeap::Better);
          scores += SelectNeighbors(scored, m, pruned);
          nb_links = pruned;
        }
      }
    }
    if (level > max_level_) {
      entry_point_ = node;
      max_level_ = level;
    }
  }
  prof.AddBytes(4 * scores * dim, 0);
  prof.AddFlops(2 * scores * dim);
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("hnsw.nodes_built").Add(n);
  registry.GetCounter("hnsw.build_scores").Add(scores);
}

int32_t HnswIndex::RandomLevel(int32_t node) const {
  // Keyed per node, not drawn from a shared stream: the level depends
  // only on (seed, node), never on how many draws earlier nodes made.
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(node));
  const double u = rng.UniformDouble();
  // u == 0 would give log(0); the generator's smallest nonzero value
  // caps the level at a sane bound anyway, but guard explicitly.
  const double draw = u > 0.0 ? -std::log(u) * level_mult_ : 32.0;
  return static_cast<int32_t>(std::min(draw, 32.0));
}

int64_t HnswIndex::SearchLayer(const float* query, int32_t entry,
                               int32_t ef, int32_t level,
                               std::vector<std::pair<float, int32_t>>& best,
                               VisitedSet& visited) const {
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t dim = data_->cols();
  visited.NewEpoch(levels_.size());
  visited.TestAndSet(entry);

  // `frontier` pops the highest-similarity unexpanded node first;
  // `kept` holds the ef best results seen, worst first so the floor is
  // O(1) to read. Both orderings break ties by TopKHeap::Better, so the
  // expansion sequence is deterministic.
  std::vector<std::pair<float, int32_t>> frontier;  // max-heap by Better
  std::vector<std::pair<float, int32_t>> kept;      // min-heap by !Better
  const auto frontier_less = [](const std::pair<float, int32_t>& a,
                                const std::pair<float, int32_t>& b) {
    return TopKHeap::Better(b, a);  // heap top = best
  };
  const auto kept_less = [](const std::pair<float, int32_t>& a,
                            const std::pair<float, int32_t>& b) {
    return TopKHeap::Better(a, b);  // heap top = worst kept
  };

  const std::pair<float, int32_t> start{
      ScorePair(kt, query, data_->Row(entry), dim, metric_), entry};
  frontier.push_back(start);
  kept.push_back(start);
  int64_t scores = 1;

  std::vector<int32_t> unvisited;
  std::vector<const float*> rows;
  std::vector<float> scored;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), frontier_less);
    const std::pair<float, int32_t> cur = frontier.back();
    frontier.pop_back();
    // The best unexpanded candidate is already worse than the worst
    // kept result: the beam cannot improve further.
    if (static_cast<int32_t>(kept.size()) >= ef &&
        TopKHeap::Better(kept.front(), cur)) {
      break;
    }
    // The walk is bound by the latency of gathering random rows from a
    // matrix far larger than cache; mark this node's unvisited
    // neighbors first and start all their fetches before scoring the
    // first one, so the misses overlap instead of serialising. They
    // are scored in fours, then offered in list order, so the beam
    // sees the same sequence as a pair-at-a-time walk.
    unvisited.clear();
    rows.clear();
    for (const int32_t nb : links_[cur.second][level]) {
      if (visited.TestAndSet(nb)) continue;
      unvisited.push_back(nb);
      const float* row = data_->Row(nb);
      rows.push_back(row);
      for (int64_t off = 0; off < dim; off += 16) {
        __builtin_prefetch(row + off);
      }
    }
    const int64_t n = static_cast<int64_t>(unvisited.size());
    scored.resize(unvisited.size());
    ScoreRows(kt, query, rows.data(), n, dim, metric_, scored.data());
    scores += n;
    for (int64_t t = 0; t < n; ++t) {
      const std::pair<float, int32_t> cand{scored[t], unvisited[t]};
      if (static_cast<int32_t>(kept.size()) < ef ||
          TopKHeap::Better(cand, kept.front())) {
        frontier.push_back(cand);
        std::push_heap(frontier.begin(), frontier.end(), frontier_less);
        kept.push_back(cand);
        std::push_heap(kept.begin(), kept.end(), kept_less);
        if (static_cast<int32_t>(kept.size()) > ef) {
          std::pop_heap(kept.begin(), kept.end(), kept_less);
          kept.pop_back();
        }
      }
    }
  }
  best.swap(kept);
  std::sort(best.begin(), best.end(), TopKHeap::Better);
  return scores;
}

int64_t HnswIndex::SelectNeighbors(
    const std::vector<std::pair<float, int32_t>>& sorted, int32_t m,
    std::vector<int32_t>& out) const {
  out.clear();
  if (static_cast<int32_t>(sorted.size()) <= m) {
    for (const auto& [score, id] : sorted) out.push_back(id);
    return 0;
  }
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t dim = data_->cols();
  int64_t scores = 0;
  // Diversity heuristic from the HNSW paper: keep a candidate only if
  // the query is its closest anchor among the already-kept set, so the
  // kept edges spread across clusters instead of piling into one. The
  // kept set is checked in order, four per kernel call; the scores past
  // the first failed check are discarded, so the decision is the
  // pair-at-a-time one.
  std::vector<int32_t> pruned;
  for (const auto& [score, id] : sorted) {
    if (static_cast<int32_t>(out.size()) >= m) break;
    bool keep = true;
    const float* vec = data_->Row(id);
    size_t s = 0;
    float four_scores[4];
    for (; keep && s + 4 <= out.size(); s += 4) {
      const float* four[4] = {data_->Row(out[s]), data_->Row(out[s + 1]),
                              data_->Row(out[s + 2]), data_->Row(out[s + 3])};
      ScorePair4(kt, vec, four, dim, metric_, four_scores);
      scores += 4;
      for (int q = 0; q < 4 && keep; ++q) keep = !(four_scores[q] > score);
    }
    for (; keep && s < out.size(); ++s) {
      ++scores;
      keep = !(ScorePair(kt, vec, data_->Row(out[s]), dim, metric_) > score);
    }
    if (keep) {
      out.push_back(id);
    } else {
      pruned.push_back(id);
    }
  }
  // Fill from the pruned remainder (best first — `sorted` order) so
  // every node keeps m edges and the graph stays navigable.
  for (size_t i = 0; i < pruned.size() &&
                     static_cast<int32_t>(out.size()) < m; ++i) {
    out.push_back(pruned[i]);
  }
  return scores;
}

void HnswIndex::QueryTopK(
    const float* query, int32_t k,
    std::vector<std::pair<float, int32_t>>& out) const {
  out.clear();
  if (entry_point_ < 0 || k <= 0) return;
  LARGEEA_TRACE_HOT_SPAN("hnsw/query");

  VisitedSet visited;
  std::vector<std::pair<float, int32_t>> best;
  int32_t ep = entry_point_;
  for (int32_t lc = max_level_; lc > 0; --lc) {
    SearchLayer(query, ep, /*ef=*/1, lc, best, visited);
    if (!best.empty()) ep = best.front().second;
  }
  const int32_t ef = std::max(options_.ef_search, k);
  SearchLayer(query, ep, ef, /*level=*/0, best, visited);

  // Scores in `best` are already exact (ScorePair), so the re-rank is
  // a deterministic top-k cut of the shortlist.
  TopKHeap heap(k);
  for (const auto& [score, id] : best) heap.Offer(id, score);
  heap.Drain(out);
}

int64_t HnswIndex::num_edges() const {
  int64_t edges = 0;
  for (const auto& node : links_) {
    for (const auto& layer : node) edges += static_cast<int64_t>(layer.size());
  }
  return edges;
}

void HnswIndex::Serialize(rt::BinaryWriter& w) const {
  w.I32(options_.max_neighbors);
  w.I32(options_.ef_construction);
  w.I32(options_.ef_search);
  w.U64(options_.seed);
  w.I32(entry_point_);
  w.I32(max_level_);
  w.I32Array(levels_);
  for (size_t node = 0; node < links_.size(); ++node) {
    for (const std::vector<int32_t>& layer : links_[node]) {
      w.I32Array(layer);
    }
  }
}

StatusOr<HnswIndex> HnswIndex::Deserialize(rt::BinaryReader& r,
                                           const Matrix& data,
                                           SimMetric metric) {
  HnswIndex index(data, metric);
  LARGEEA_RETURN_IF_ERROR(r.I32(&index.options_.max_neighbors));
  LARGEEA_RETURN_IF_ERROR(r.I32(&index.options_.ef_construction));
  LARGEEA_RETURN_IF_ERROR(r.I32(&index.options_.ef_search));
  LARGEEA_RETURN_IF_ERROR(r.U64(&index.options_.seed));
  if (index.options_.max_neighbors <= 1) {
    return DataLossError("hnsw: implausible max_neighbors");
  }
  index.level_mult_ =
      1.0 / std::log(static_cast<double>(index.options_.max_neighbors));
  LARGEEA_RETURN_IF_ERROR(r.I32(&index.entry_point_));
  LARGEEA_RETURN_IF_ERROR(r.I32(&index.max_level_));
  LARGEEA_RETURN_IF_ERROR(r.I32Array(&index.levels_));
  const int64_t n = static_cast<int64_t>(index.levels_.size());
  if (n != data.rows()) {
    return DataLossError("hnsw: graph has " + std::to_string(n) +
                         " nodes but data matrix has " +
                         std::to_string(data.rows()) + " rows");
  }
  if (n > 0 && (index.entry_point_ < 0 || index.entry_point_ >= n)) {
    return DataLossError("hnsw: entry point out of range");
  }
  index.links_.resize(n);
  for (int64_t node = 0; node < n; ++node) {
    const int32_t level = index.levels_[node];
    if (level < 0 || level > index.max_level_) {
      return DataLossError("hnsw: node level out of range");
    }
    index.links_[node].resize(level + 1);
    for (int32_t lc = 0; lc <= level; ++lc) {
      LARGEEA_RETURN_IF_ERROR(r.I32Array(&index.links_[node][lc]));
      for (const int32_t nb : index.links_[node][lc]) {
        if (nb < 0 || nb >= n) {
          return DataLossError("hnsw: neighbor id out of range");
        }
      }
    }
  }
  return index;
}

}  // namespace largeea
