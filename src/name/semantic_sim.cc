#include "src/name/semantic_sim.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/obs/log.h"
#include "src/stream/spill.h"
#include "src/stream/stream_context.h"

namespace largeea {

SparseSimMatrix ComputeSemanticSimilarity(const KnowledgeGraph& source,
                                          const KnowledgeGraph& target,
                                          const SensOptions& options,
                                          stream::StreamContext* stream_ctx) {
  SemanticEncoder encoder(options.encoder);
  if (options.use_idf) encoder.FitIdf({&source, &target});
  const int64_t dim = encoder.dim();
  const int64_t source_rows = source.num_entities();
  const int64_t target_rows = target.num_entities();

  // Under a memory budget the target is encoded in chunks of `block_rows`
  // rows into one spill file, which the search then reads through a
  // read-only mapping, and the source is encoded and searched in blocks of
  // as many rows: neither whole-graph embedding matrix is ever tracked
  // memory. A failed spill write keeps the target in memory instead.
  // Names are encoded one at a time and the kept top-k of a row is a pure
  // function of its candidates, so every path writes the same bytes.
  int64_t block_rows = std::max<int64_t>(source_rows, 1);
  std::optional<stream::SpilledMatrix> spilled;
  if (stream_ctx != nullptr) {
    block_rows = stream_ctx->budget().TileRowsFor(
        target_rows, dim * static_cast<int64_t>(sizeof(float)));
    StatusOr<stream::SpilledMatrix> spill = stream::SpillMatrix(
        stream_ctx->options().spill_dir, target_rows, dim, block_rows,
        [&](int64_t begin, int64_t end) {
          return encoder.EncodeNameRange(target, static_cast<EntityId>(begin),
                                         static_cast<EntityId>(end));
        });
    if (spill.ok()) {
      spilled.emplace(std::move(spill).value());
    } else {
      LARGEEA_LOG_WARN("sens: keeping the target in memory: %s",
                       spill.status().ToString().c_str());
    }
  }
  const Matrix target_emb =
      spilled.has_value() ? Matrix() : encoder.EncodeAllNames(target);
  const MatrixRowRange target_view =
      spilled.has_value() ? spilled->rows() : MatrixRowRange(target_emb);

  std::optional<LshIndex> index;
  if (options.use_lsh) index.emplace(target_view, options.lsh);
  std::vector<EntityId> col_ids(target_rows);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  SparseSimMatrix m_se(source.num_entities(), target.num_entities(),
                       options.top_k);
  const TopKOptions topk{.k = options.top_k, .metric = options.metric};
  for (int64_t begin = 0; begin < source_rows; begin += block_rows) {
    const int64_t end = std::min(begin + block_rows, source_rows);
    const Matrix block = encoder.EncodeNameRange(
        source, static_cast<EntityId>(begin), static_cast<EntityId>(end));
    std::vector<EntityId> row_ids(end - begin);
    std::iota(row_ids.begin(), row_ids.end(), static_cast<EntityId>(begin));
    TopKInto(block, row_ids, target_view, col_ids,
             index.has_value() ? &*index : nullptr, topk, m_se);
  }
  m_se.RefreshMemoryTracking();
  return m_se;
}

}  // namespace largeea
