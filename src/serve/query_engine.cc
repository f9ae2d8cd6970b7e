#include "src/serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/topk_util.h"

namespace largeea::serve {
namespace {

/// Microsecond buckets from 1µs to 10s — wide enough that p999 at any
/// benchmarked index size lands inside, not in the overflow bucket.
std::vector<double> LatencyBoundsUs() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1e7; b *= 2.0) bounds.push_back(b);
  return bounds;
}

}  // namespace

QueryEngine::QueryEngine(const IndexManager* manager) : manager_(manager) {
  LARGEEA_CHECK(manager != nullptr);
}

QueryResponse QueryEngine::Execute(const QueryRequest& request) const {
  const auto start = std::chrono::steady_clock::now();
  QueryResponse response;

  // One snapshot for the whole query: a swap landing mid-flight
  // retires the old version only after this shared_ptr drops.
  const std::shared_ptr<const ServeIndex> index = manager_->Current();
  response.index_version = manager_->version();
  if (index == nullptr) {
    response.status = UnavailableError("no index version loaded yet");
    return response;
  }
  response.index_fingerprint = index->fingerprint();
  if (request.k <= 0) {
    response.status =
        InvalidArgumentError("k must be positive, got " +
                             std::to_string(request.k));
    return response;
  }

  obs::Span span("serve/query");
  auto& registry = obs::MetricsRegistry::Get();
  switch (request.kind) {
    case QueryRequest::Kind::kEntity:
      span.AddAttr("kind", "entity");
      registry.GetCounter("serve.queries.entity").Add(1);
      ExecuteEntity(*index, request, response);
      break;
    case QueryRequest::Kind::kName:
      span.AddAttr("kind", request.exact ? "name_exact" : "name");
      registry.GetCounter(request.exact ? "serve.queries.name_exact"
                                        : "serve.queries.name")
          .Add(1);
      ExecuteName(*index, request, response);
      break;
  }

  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  registry.GetHistogram("serve.query_us", LatencyBoundsUs()).Observe(us);
  if (!response.status.ok()) {
    registry.GetCounter("serve.queries.failed").Add(1);
  }
  return response;
}

void QueryEngine::ExecuteEntity(const ServeIndex& index,
                                const QueryRequest& request,
                                QueryResponse& response) const {
  if (request.entity < 0 ||
      request.entity >= index.num_source_entities()) {
    response.status = InvalidArgumentError(
        "source entity " + std::to_string(request.entity) +
        " out of range [0, " + std::to_string(index.num_source_entities()) +
        ")");
    return;
  }
  // Fused rows are stored sorted (score desc, column asc): the batch
  // pipeline's own answer, served as a prefix read.
  const std::span<const SimEntry> row = index.FusedRow(request.entity);
  const size_t n = std::min<size_t>(row.size(), request.k);
  response.candidates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    response.candidates.push_back({row[i].column,
                                   std::string(index.TargetName(row[i].column)),
                                   row[i].score});
  }
}

void QueryEngine::ExecuteName(const ServeIndex& index,
                              const QueryRequest& request,
                              QueryResponse& response) const {
  std::vector<float> query(index.encoder().dim());
  index.encoder().EncodeName(request.name, query.data());

  // No answer holds more than every target, so a larger k changes
  // nothing but the sizes derived from it.
  const int64_t targets = index.num_target_entities();
  const int32_t k = static_cast<int32_t>(std::min<int64_t>(request.k, targets));
  std::vector<SimEntry> entries;
  if (request.exact) {
    index.ExactTopK(query, k, entries);
  } else {
    // ANN shortlist (graph walk) ∪ string shortlist (MinHash/LSH band
    // collisions) — the two name channels, fused per query. Both carry
    // or get exact scores, so the final cut is a deterministic top-k of
    // the union.
    index.AnnTopK(query, k, entries);
    // Band-count-capped shortlist: enough headroom over k to matter,
    // bounded so a popular bucket cannot make this query O(n). The cap
    // is computed in 64 bits; no shortlist exceeds the target count.
    const int32_t cap = static_cast<int32_t>(
        std::min<int64_t>(std::max<int64_t>(4 * int64_t{k}, 64), targets));
    std::vector<int32_t> shortlist = index.StringShortlist(request.name, cap);
    if (!shortlist.empty()) {
      std::vector<int32_t> ids;
      ids.reserve(entries.size() + shortlist.size());
      for (const SimEntry& e : entries) ids.push_back(e.column);
      ids.insert(ids.end(), shortlist.begin(), shortlist.end());
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      TopKHeap heap(k);
      for (const int32_t id : ids) {
        heap.Offer(id, index.ScoreAgainstTarget(query.data(), id));
      }
      std::vector<std::pair<float, int32_t>> drained;
      heap.Drain(drained);
      entries.clear();
      for (const auto& [score, id] : drained) entries.push_back({id, score});
    }
  }

  response.candidates.reserve(entries.size());
  for (const SimEntry& e : entries) {
    response.candidates.push_back(
        {e.column, std::string(index.TargetName(e.column)), e.score});
  }
}

}  // namespace largeea::serve
