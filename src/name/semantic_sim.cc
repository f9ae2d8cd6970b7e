#include "src/name/semantic_sim.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "src/obs/trace.h"
#include "src/stream/stream_context.h"

namespace largeea {

SparseSimMatrix ComputeSemanticSimilarity(const KnowledgeGraph& source,
                                          const KnowledgeGraph& target,
                                          const SensOptions& options,
                                          stream::StreamContext* stream_ctx) {
  SemanticEncoder encoder(options.encoder);
  if (options.use_idf) encoder.FitIdf({&source, &target});

  SparseSimMatrix m_se(source.num_entities(), target.num_entities(),
                       options.top_k);
  const TopKOptions topk{.k = options.top_k, .metric = options.metric};

  if (stream_ctx != nullptr) {
    // Memory-budgeted path: the target embeddings are encoded tile by
    // tile into the spill store, and source blocks are encoded on the
    // fly — neither whole-graph embedding matrix ever exists. Per-name
    // encoding and order-independent top-k make this bit-identical to
    // the in-memory path below.
    const int64_t dim = encoder.dim();
    const int64_t tile_rows = stream_ctx->budget().TileRowsFor(
        target.num_entities(), dim * static_cast<int64_t>(sizeof(float)));
    stream::TileMatrix tiles(&stream_ctx->store(), target.num_entities(), dim,
                             tile_rows);
    // The LSH index is built while the target is encoded: each fresh
    // tile's rows are inserted before the tile is spilled, in ascending
    // order exactly as in the one-shot constructor, so the finished
    // index is identical to LshIndex(target_emb, options.lsh). The span
    // therefore covers the tiles' encoding too.
    std::optional<LshIndex> index;
    std::optional<obs::Span> build_span;
    if (options.use_lsh) {
      index.emplace(static_cast<int32_t>(dim), options.lsh);
      build_span.emplace("lsh/build_index");
      build_span->AddAttr("streamed", int64_t{1});
    }
    for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
      const int32_t base = static_cast<int32_t>(tiles.TileBegin(t));
      Matrix tile = encoder.EncodeNameRange(
          target, base, static_cast<EntityId>(tiles.TileEnd(t)));
      if (index.has_value()) {
        for (int64_t r = 0; r < tile.rows(); ++r) {
          index->Insert(base + static_cast<int32_t>(r), tile.Row(r));
        }
      }
      tiles.Append(std::move(tile));
    }
    if (index.has_value()) {
      index->FinishBuild();
      build_span->End();
    }
    for (int64_t sb = 0; sb < source.num_entities(); sb += tile_rows) {
      const int64_t se =
          std::min<int64_t>(sb + tile_rows, source.num_entities());
      const Matrix block = encoder.EncodeNameRange(
          source, static_cast<EntityId>(sb), static_cast<EntityId>(se));
      std::vector<EntityId> row_ids(se - sb);
      std::iota(row_ids.begin(), row_ids.end(), static_cast<EntityId>(sb));
      TopKInto(block, row_ids, tiles, index.has_value() ? &*index : nullptr,
               topk, m_se);
    }
    m_se.RefreshMemoryTracking();
    return m_se;
  }

  const Matrix source_emb = encoder.EncodeAllNames(source);
  const Matrix target_emb = encoder.EncodeAllNames(target);
  std::vector<EntityId> row_ids(source.num_entities());
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::vector<EntityId> col_ids(target.num_entities());
  std::iota(col_ids.begin(), col_ids.end(), 0);
  if (options.use_lsh) {
    const LshIndex index(target_emb, options.lsh);
    TopKInto(source_emb, row_ids, target_emb, col_ids, &index, topk, m_se);
  } else {
    TopKInto(source_emb, row_ids, target_emb, col_ids, /*index=*/nullptr,
             topk, m_se);
  }
  m_se.RefreshMemoryTracking();
  return m_se;
}

}  // namespace largeea
