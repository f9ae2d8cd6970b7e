#include "src/sim/hnsw.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/par/parallel_for.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea {

namespace {

/// RandomLevel's cap, and the highest level Deserialize accepts.
constexpr int32_t kMaxLevel = 32;

/// Nodes per build batch, as a pure function of how many the graph
/// already holds: a batch searches a graph that knows none of its nodes,
/// so a small graph grows nearly one node at a time, and the cap bounds
/// the in-batch candidates each node scores directly.
int64_t BatchSize(int64_t inserted) {
  return std::clamp<int64_t>(inserted / 16, 1, 256);
}

}  // namespace

HnswIndex::HnswIndex(const Matrix& data, SimMetric metric)
    : data_(&data), metric_(metric) {}

/// One back-link a batch adds: `node` joins `nb`'s list at layer `lc`.
struct HnswIndex::BackLink {
  int32_t nb;
  int32_t lc;
  int32_t node;

  bool operator<(const BackLink& o) const {
    return std::tie(nb, lc, node) < std::tie(o.nb, o.lc, o.node);
  }
};

/// Per-worker state of the parallel build phases. No field reaches the
/// graph except through the node or list its task owns.
struct HnswIndex::BuildScratch {
  VisitedSet visited;
  std::vector<std::pair<float, int32_t>> best;
  std::vector<const float*> rows;
  std::vector<float> row_scores;
  std::vector<int32_t> pruned;
  int64_t scores = 0;
};

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
  for (int32_t node = 0; node < n; ++node) {
    levels_[node] = RandomLevel(node);
    links_[node].resize(levels_[node] + 1);
  }
  entry_point_ = 0;
  max_level_ = levels_[0];

  // Per-worker scratch: a chunk takes a free one and gives it back, so
  // no more exist than chunks run at once (each VisitedSet holds n
  // stamps). Which one a chunk gets never reaches the graph.
  std::mutex scratch_mu;
  std::vector<std::unique_ptr<BuildScratch>> scratch;
  const auto each_chunk = [&](int64_t begin, int64_t end, const auto& body) {
    par::ParallelFor(begin, end, 1, [&](const par::ChunkRange& chunk) {
      std::unique_ptr<BuildScratch> s;
      {
        std::lock_guard<std::mutex> lock(scratch_mu);
        if (scratch.empty()) {
          s = std::make_unique<BuildScratch>();
        } else {
          s = std::move(scratch.back());
          scratch.pop_back();
        }
      }
      for (int64_t i = chunk.begin; i < chunk.end; ++i) body(i, *s);
      std::lock_guard<std::mutex> lock(scratch_mu);
      scratch.push_back(std::move(s));
    });
  };

  // Batched insertion of rows 1..n-1. Every phase is a pure function of
  // the graph before the batch, so the graph is one at any thread count,
  // and a batch of one node is exactly one serial insertion.
  std::vector<BackLink> back_links;
  std::vector<int64_t> list_starts;
  int64_t batches = 1;  // row 0 alone
  for (int64_t begin = 1; begin < n; ++batches) {
    const int64_t end = std::min(n, begin + BatchSize(begin));
    // Phase A: each node searches the graph before the batch and writes
    // its own lists. No old node links to a new one until phase C, so
    // no search of this batch reads a list another task writes.
    each_chunk(begin, end, [&](int64_t node, BuildScratch& s) {
      s.scores += Connect(static_cast<int32_t>(node),
                          static_cast<int32_t>(begin), s);
    });
    // Phase B, serial in id order: the entry point moves to the first
    // node that tops the graph, and the back-links are grouped by list.
    back_links.clear();
    for (int64_t node = begin; node < end; ++node) {
      const int32_t level = levels_[node];
      for (int32_t lc = 0; lc <= level; ++lc) {
        for (const int32_t nb : links_[node][lc]) {
          back_links.push_back({nb, lc, static_cast<int32_t>(node)});
        }
      }
      if (level > max_level_) {
        entry_point_ = static_cast<int32_t>(node);
        max_level_ = level;
      }
    }
    std::sort(back_links.begin(), back_links.end());
    list_starts.clear();
    for (size_t i = 0; i < back_links.size(); ++i) {
      if (i == 0 || back_links[i].nb != back_links[i - 1].nb ||
          back_links[i].lc != back_links[i - 1].lc) {
        list_starts.push_back(static_cast<int64_t>(i));
      }
    }
    list_starts.push_back(static_cast<int64_t>(back_links.size()));
    // Phase C: one task per list appends its back-links and prunes once.
    each_chunk(0, static_cast<int64_t>(list_starts.size()) - 1,
               [&](int64_t list, BuildScratch& s) {
                 s.scores += LinkBack(&back_links[list_starts[list]],
                                      &back_links[list_starts[list + 1]], s);
               });
    begin = end;
  }
  int64_t scores = 0;
  for (const auto& s : scratch) scores += s->scores;
  span.AddAttr("batches", batches);
  prof.AddBytes(4 * scores * data.cols(), 0);
  prof.AddFlops(2 * scores * data.cols());
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("hnsw.nodes_built").Add(n);
  registry.GetCounter("hnsw.build_scores").Add(scores);
}

int64_t HnswIndex::Connect(int32_t node, int32_t batch_begin,
                           BuildScratch& s) {
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t dim = data_->cols();
  const float* query = data_->Row(node);
  const int32_t level = levels_[node];
  // The batch's earlier nodes are not in the graph yet: score them
  // directly, once for every layer.
  const int32_t earlier = node - batch_begin;
  s.rows.clear();
  for (int32_t j = batch_begin; j < node; ++j) s.rows.push_back(data_->Row(j));
  s.row_scores.resize(static_cast<size_t>(earlier));
  ScoreRows(kt, query, s.rows.data(), earlier, dim, metric_,
            s.row_scores.data());
  int64_t scores = earlier;

  int32_t ep = entry_point_;
  // Greedy descent through layers above the new node's top level.
  for (int32_t lc = max_level_; lc > level; --lc) {
    scores += SearchLayer(query, ep, /*ef=*/1, lc, s.best, s.visited);
    ep = s.best.front().second;
  }
  // Connect on every layer, top down; above the graph's top layer only
  // the batch's earlier nodes are candidates.
  for (int32_t lc = level; lc >= 0; --lc) {
    s.best.clear();
    if (lc <= max_level_) {
      scores += SearchLayer(query, ep, options_.ef_construction, lc, s.best,
                            s.visited);
      ep = s.best.front().second;
    }
    const size_t searched = s.best.size();
    for (int32_t j = 0; j < earlier; ++j) {
      if (levels_[batch_begin + j] >= lc) {
        s.best.push_back({s.row_scores[j], batch_begin + j});
      }
    }
    if (s.best.size() > searched) {
      std::sort(s.best.begin(), s.best.end(), TopKHeap::Better);
      if (static_cast<int32_t>(s.best.size()) > options_.ef_construction) {
        s.best.resize(options_.ef_construction);
      }
    }
    scores += SelectNeighbors(s.best, MaxLinks(lc), links_[node][lc]);
  }
  return scores;
}

int64_t HnswIndex::LinkBack(const BackLink* first, const BackLink* last,
                            BuildScratch& s) {
  const int32_t nb = first->nb;
  const int32_t m = MaxLinks(first->lc);
  std::vector<int32_t>& list = links_[nb][first->lc];
  for (const BackLink* b = first; b != last; ++b) list.push_back(b->node);
  if (static_cast<int32_t>(list.size()) <= m) return 0;
  // Over its cap: rescore the list relative to `nb` (in fours) and keep
  // what the select-neighbors heuristic keeps.
  s.rows.clear();
  for (const int32_t cand : list) s.rows.push_back(data_->Row(cand));
  s.row_scores.resize(list.size());
  ScoreRows(simd::Kernels(), data_->Row(nb), s.rows.data(),
            static_cast<int64_t>(list.size()), data_->cols(), metric_,
            s.row_scores.data());
  s.best.clear();
  for (size_t t = 0; t < list.size(); ++t) {
    s.best.push_back({s.row_scores[t], list[t]});
  }
  std::sort(s.best.begin(), s.best.end(), TopKHeap::Better);
  const int64_t scores =
      static_cast<int64_t>(list.size()) + SelectNeighbors(s.best, m, s.pruned);
  list.swap(s.pruned);
  return scores;
}

int32_t HnswIndex::RandomLevel(int32_t node) const {
  // Keyed per node, not drawn from a shared stream: the level depends
  // only on (seed, node), never on how many draws earlier nodes made.
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(node));
  const double u = rng.UniformDouble();
  // u == 0 would give log(0); the generator's smallest nonzero value
  // caps the level at a sane bound anyway, but guard explicitly.
  const double draw = u > 0.0 ? -std::log(u) * level_mult_ : kMaxLevel;
  return static_cast<int32_t>(std::min(draw, double{kMaxLevel}));
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
  w.Array(levels_);
  for (size_t node = 0; node < links_.size(); ++node) {
    for (const std::vector<int32_t>& layer : links_[node]) {
      w.Array(layer);
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
  LARGEEA_RETURN_IF_ERROR(r.Array(&index.levels_));
  const int64_t n = static_cast<int64_t>(index.levels_.size());
  if (n != data.rows()) {
    return DataLossError("hnsw: graph has " + std::to_string(n) +
                         " nodes but data matrix has " +
                         std::to_string(data.rows()) + " rows");
  }
  for (const int32_t level : index.levels_) {
    if (level < 0 || level > std::min(index.max_level_, kMaxLevel)) {
      return DataLossError("hnsw: node level out of range");
    }
  }
  // QueryTopK starts at the entry point on the top layer and only
  // follows a layer-lc list to nodes that have a layer lc, so the entry
  // point must top the graph and every neighbor must reach its layer.
  if (n == 0) {
    if (index.entry_point_ != -1 || index.max_level_ != -1) {
      return DataLossError("hnsw: empty graph with an entry point");
    }
  } else if (index.entry_point_ < 0 || index.entry_point_ >= n) {
    return DataLossError("hnsw: entry point out of range");
  } else if (index.levels_[index.entry_point_] != index.max_level_) {
    return DataLossError("hnsw: entry point is not on the top layer");
  }
  index.links_.resize(n);
  for (int64_t node = 0; node < n; ++node) {
    const int32_t level = index.levels_[node];
    index.links_[node].resize(level + 1);
    for (int32_t lc = 0; lc <= level; ++lc) {
      LARGEEA_RETURN_IF_ERROR(r.Array(&index.links_[node][lc]));
      for (const int32_t nb : index.links_[node][lc]) {
        if (nb < 0 || nb >= n) {
          return DataLossError("hnsw: neighbor id out of range");
        }
        if (index.levels_[nb] < lc) {
          return DataLossError("hnsw: neighbor listed above its top layer");
        }
      }
    }
  }
  return index;
}

}  // namespace largeea
