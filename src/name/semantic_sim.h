// SENS — semantic name similarity (Section 2.3).
//
// Entity names are embedded by the SemanticEncoder and only the top-φ
// most similar target entities per source entity are retained — the
// paper's Faiss-backed pipeline, with O(k|Es|) instead of O(|Es||Et|)
// memory.
#ifndef LARGEEA_NAME_SEMANTIC_SIM_H_
#define LARGEEA_NAME_SEMANTIC_SIM_H_

#include <cstdint>

#include "src/kg/knowledge_graph.h"
#include "src/name/semantic_encoder.h"
#include "src/sim/lsh.h"
#include "src/sim/topk_search.h"

namespace largeea {

struct SensOptions {
  SemanticEncoderOptions encoder;
  /// Weight tokens by inverse document frequency over the two KGs'
  /// entity names (pure corpus statistics, no training).
  bool use_idf = true;
  /// φ — semantic candidates kept per source entity.
  int32_t top_k = 50;
  /// Use the approximate LSH path instead of exact blocked search
  /// (the DBP1M-tier setting).
  bool use_lsh = false;
  LshOptions lsh;
  SimMetric metric = SimMetric::kManhattan;
};

namespace stream {
class StreamContext;
}  // namespace stream

/// Computes M_se between the entity names of the two KGs. With a
/// non-null `stream_ctx` the target embeddings are spilled to one mapped
/// file in its spill directory and the source is encoded block-by-block,
/// keeping the tracked working set under the memory budget; the result is
/// bit-identical either way.
SparseSimMatrix ComputeSemanticSimilarity(const KnowledgeGraph& source,
                                          const KnowledgeGraph& target,
                                          const SensOptions& options,
                                          stream::StreamContext* stream_ctx =
                                              nullptr);

}  // namespace largeea

#endif  // LARGEEA_NAME_SEMANTIC_SIM_H_
