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
    const bool prefetch = stream_ctx->options().prefetch;
    const int64_t dim = encoder.dim();
    const int64_t tile_rows = stream_ctx->budget().TileRowsFor(
        target.num_entities(), dim * static_cast<int64_t>(sizeof(float)));
    stream::TileMatrix tiles(&stream_ctx->store(), target.num_entities(), dim,
                             tile_rows);
    for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
      tiles.Append(encoder.EncodeNameRange(
          target, static_cast<EntityId>(tiles.TileBegin(t)),
          static_cast<EntityId>(tiles.TileEnd(t))));
    }
    // Incremental LSH build, one tile resident at a time. Rows arrive in
    // ascending order exactly as in the one-shot constructor, so the
    // finished index is identical to LshIndex(target_emb, options.lsh).
    std::optional<LshIndex> index;
    if (options.use_lsh) {
      index.emplace(static_cast<int32_t>(dim), options.lsh);
      obs::Span build_span("lsh/build_index");
      build_span.AddAttr("streamed", int64_t{1});
      for (int64_t t = 0; t < tiles.num_tiles(); ++t) {
        if (prefetch) tiles.Prefetch(t + 1);
        const std::shared_ptr<const Matrix> tile = tiles.Tile(t);
        const int32_t base = static_cast<int32_t>(tiles.TileBegin(t));
        for (int64_t r = 0; r < tile->rows(); ++r) {
          index->Insert(base + static_cast<int32_t>(r), tile->Row(r));
        }
      }
      index->FinishBuild();
    }
    for (int64_t sb = 0; sb < source.num_entities(); sb += tile_rows) {
      const int64_t se =
          std::min<int64_t>(sb + tile_rows, source.num_entities());
      const Matrix block = encoder.EncodeNameRange(
          source, static_cast<EntityId>(sb), static_cast<EntityId>(se));
      std::vector<EntityId> row_ids(se - sb);
      std::iota(row_ids.begin(), row_ids.end(), static_cast<EntityId>(sb));
      if (index.has_value()) {
        LshTopKStreamedInto(block, row_ids, tiles, *index, prefetch, topk,
                            m_se);
      } else {
        ExactTopKStreamedInto(block, row_ids, tiles, prefetch, topk, m_se);
      }
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
    LshTopKInto(source_emb, row_ids, target_emb, col_ids, index, topk, m_se);
  } else {
    ExactTopKInto(source_emb, row_ids, target_emb, col_ids, topk, m_se);
  }
  m_se.RefreshMemoryTracking();
  return m_se;
}

}  // namespace largeea
