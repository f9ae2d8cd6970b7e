#include "src/sim/similarity_search.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/obs/trace.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"
#include "src/stream/tile_store.h"

namespace largeea {
namespace {

/// Shared tail of every QueryTopK: drain a heap of (score, target row)
/// pairs into {entity id, score} entries in deterministic order.
void DrainToEntries(TopKHeap& heap, std::span<const EntityId> col_ids,
                    std::vector<SimEntry>& out) {
  std::vector<std::pair<float, int32_t>> drained;
  heap.Drain(drained);
  out.clear();
  out.reserve(drained.size());
  for (const auto& [score, j] : drained) {
    out.push_back({col_ids.empty() ? static_cast<EntityId>(j) : col_ids[j],
                   score});
  }
}

class ExactSearch : public SimilaritySearch {
 public:
  ExactSearch(const Matrix& target, std::span<const EntityId> col_ids,
              const SimilaritySearchOptions& options)
      : target_(&target), col_ids_(col_ids), options_(options) {
    LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
    LARGEEA_CHECK_GE(options.num_segments, 1);
  }

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    if (target_->rows() == 0) return;
    // One target segment hot at a time; segmentation cannot change the
    // kept set (order-independent top-k), only the working set.
    const int64_t step =
        (target_->rows() + options_.num_segments - 1) / options_.num_segments;
    for (int64_t tb = 0; tb < target_->rows(); tb += step) {
      const int64_t te = std::min(tb + step, target_->rows());
      ExactTopKInto(source, row_ids, MatrixRowRange(*target_, tb, te),
                    col_ids_.subspan(tb, te - tb), options_.topk, out);
    }
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), target_->cols());
    const simd::KernelTable& kt = simd::Kernels();
    TopKHeap heap(k);
    for (int64_t j = 0; j < target_->rows(); ++j) {
      heap.Offer(static_cast<int32_t>(j),
                 ScorePair(kt, query.data(), target_->Row(j), target_->cols(),
                           options_.topk.metric));
    }
    DrainToEntries(heap, col_ids_, out);
  }

 private:
  const Matrix* target_;
  std::span<const EntityId> col_ids_;
  SimilaritySearchOptions options_;
};

class LshSearch : public SimilaritySearch {
 public:
  LshSearch(const Matrix& target, std::span<const EntityId> col_ids,
            const SimilaritySearchOptions& options)
      : target_(&target),
        col_ids_(col_ids),
        options_(options),
        index_(target, options.lsh) {
    LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  }

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    LshTopKInto(source, row_ids, *target_, col_ids_, index_, options_.topk,
                out);
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), target_->cols());
    const simd::KernelTable& kt = simd::Kernels();
    std::vector<int32_t> candidates;
    index_.Query(query.data(), candidates);
    TopKHeap heap(k);
    for (const int32_t j : candidates) {
      heap.Offer(j, ScorePair(kt, query.data(), target_->Row(j),
                              target_->cols(), options_.topk.metric));
    }
    DrainToEntries(heap, col_ids_, out);
  }

 private:
  const Matrix* target_;
  std::span<const EntityId> col_ids_;
  SimilaritySearchOptions options_;
  LshIndex index_;
};

class HnswSearch : public SimilaritySearch {
 public:
  HnswSearch(const Matrix& target, std::span<const EntityId> col_ids,
             const SimilaritySearchOptions& options)
      : target_(&target),
        col_ids_(col_ids),
        options_(options),
        owned_index_(HnswIndex(target, options.topk.metric, options.hnsw)),
        index_(&*owned_index_) {
    LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  }

  /// Wraps an index built (or deserialised) elsewhere — the serving
  /// layer loads graphs from the index artifact instead of rebuilding.
  /// `index` stays owned by the caller.
  HnswSearch(const Matrix& target, std::span<const EntityId> col_ids,
             const SimilaritySearchOptions& options, const HnswIndex& index)
      : target_(&target),
        col_ids_(col_ids),
        options_(options),
        index_(&index) {
    LARGEEA_CHECK_EQ(static_cast<size_t>(target.rows()), col_ids.size());
  }

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    // Each source row is an independent graph walk, so the batch path
    // is a parallel loop of single queries with direct scatter — same
    // disjoint-rows argument as ExactTopKInto.
    const int64_t row_grain = par::TopKRowGrain(source.rows());
    par::ParallelFor(
        0, source.rows(), row_grain, [&](const par::ChunkRange& rows) {
          std::vector<std::pair<float, int32_t>> drained;
          for (int64_t i = rows.begin; i < rows.end; ++i) {
            index_->QueryTopK(source.Row(i), options_.topk.k, drained);
            for (const auto& [score, j] : drained) {
              out.Accumulate(row_ids[i], col_ids_[j], score);
            }
          }
        });
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), target_->cols());
    std::vector<std::pair<float, int32_t>> drained;
    index_->QueryTopK(query.data(), k, drained);
    out.clear();
    out.reserve(drained.size());
    for (const auto& [score, j] : drained) {
      out.push_back({col_ids_[j], score});
    }
  }

 private:
  const Matrix* target_;
  std::span<const EntityId> col_ids_;
  SimilaritySearchOptions options_;
  std::optional<HnswIndex> owned_index_;  ///< engaged on the build path
  const HnswIndex* index_;                ///< the graph actually queried
};

class StreamedExactSearch : public SimilaritySearch {
 public:
  StreamedExactSearch(const stream::TileMatrix& target,
                      const SimilaritySearchOptions& options)
      : target_(&target), options_(options) {}

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    ExactTopKStreamedInto(source, row_ids, *target_, options_.prefetch,
                          options_.topk, out);
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), target_->cols());
    const simd::KernelTable& kt = simd::Kernels();
    TopKHeap heap(k);
    // Tile pins are thread-safe; accumulation over tiles equals one
    // pass over the whole target (order-independent top-k).
    for (int64_t t = 0; t < target_->num_tiles(); ++t) {
      const std::shared_ptr<const Matrix> tile = target_->Tile(t);
      const int32_t base = static_cast<int32_t>(target_->TileBegin(t));
      for (int64_t r = 0; r < tile->rows(); ++r) {
        heap.Offer(base + static_cast<int32_t>(r),
                   ScorePair(kt, query.data(), tile->Row(r), tile->cols(),
                             options_.topk.metric));
      }
    }
    DrainToEntries(heap, {}, out);
  }

 private:
  const stream::TileMatrix* target_;
  SimilaritySearchOptions options_;
};

class StreamedLshSearch : public SimilaritySearch {
 public:
  StreamedLshSearch(const stream::TileMatrix& target,
                    const SimilaritySearchOptions& options)
      : target_(&target),
        options_(options),
        index_(static_cast<int32_t>(target.cols()), options.lsh) {
    // Incremental build, one tile resident at a time. Rows arrive in
    // ascending order exactly as in the one-shot constructor, so the
    // finished index is identical to LshIndex(full_target, options).
    obs::Span build_span("lsh/build_index");
    build_span.AddAttr("streamed", int64_t{1});
    for (int64_t t = 0; t < target.num_tiles(); ++t) {
      if (options.prefetch) target.Prefetch(t + 1);
      const std::shared_ptr<const Matrix> tile = target.Tile(t);
      const int32_t base = static_cast<int32_t>(target.TileBegin(t));
      for (int64_t r = 0; r < tile->rows(); ++r) {
        index_.Insert(base + static_cast<int32_t>(r), tile->Row(r));
      }
    }
    index_.FinishBuild();
  }

  void SearchInto(const MatrixRowRange& source,
                  std::span<const EntityId> row_ids,
                  SparseSimMatrix& out) const override {
    LshTopKStreamedInto(source, row_ids, *target_, index_, options_.prefetch,
                        options_.topk, out);
  }

  void QueryTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const override {
    LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), target_->cols());
    const simd::KernelTable& kt = simd::Kernels();
    const int64_t tile_rows = target_->tile_rows();
    std::vector<int32_t> candidates;
    index_.Query(query.data(), candidates);
    TopKHeap heap(k);
    // Candidates arrive sorted, so each needed tile is pinned once.
    std::shared_ptr<const Matrix> tile;
    int64_t tile_idx = -1;
    for (const int32_t j : candidates) {
      const int64_t t = j / tile_rows;
      if (t != tile_idx) {
        tile = target_->Tile(t);
        tile_idx = t;
      }
      heap.Offer(j, ScorePair(kt, query.data(), tile->Row(j - t * tile_rows),
                              tile->cols(), options_.topk.metric));
    }
    DrainToEntries(heap, {}, out);
  }

 private:
  const stream::TileMatrix* target_;
  SimilaritySearchOptions options_;
  LshIndex index_;
};

}  // namespace

std::unique_ptr<SimilaritySearch> MakeSimilaritySearch(
    const Matrix& target, std::span<const EntityId> col_ids,
    const SimilaritySearchOptions& options) {
  if (options.use_hnsw) {
    return std::make_unique<HnswSearch>(target, col_ids, options);
  }
  if (options.use_lsh) {
    return std::make_unique<LshSearch>(target, col_ids, options);
  }
  return std::make_unique<ExactSearch>(target, col_ids, options);
}

std::unique_ptr<SimilaritySearch> MakeHnswSimilaritySearch(
    const Matrix& target, std::span<const EntityId> col_ids,
    const SimilaritySearchOptions& options, const HnswIndex& index) {
  return std::make_unique<HnswSearch>(target, col_ids, options, index);
}

std::unique_ptr<SimilaritySearch> MakeStreamedSimilaritySearch(
    const stream::TileMatrix& target, const SimilaritySearchOptions& options) {
  LARGEEA_CHECK(target.complete());
  LARGEEA_CHECK(!options.use_hnsw);  // HNSW needs the full matrix resident
  if (options.use_lsh) {
    return std::make_unique<StreamedLshSearch>(target, options);
  }
  return std::make_unique<StreamedExactSearch>(target, options);
}

}  // namespace largeea
