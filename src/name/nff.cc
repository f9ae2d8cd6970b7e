#include "src/name/nff.h"

#include <string>

#include "src/obs/trace.h"

namespace largeea {

NffResult ComputeNameFeatures(const KnowledgeGraph& source,
                              const KnowledgeGraph& target,
                              const NffOptions& options) {
  NffResult result;
  {
    obs::Span sens_span("name/sens");
    sens_span.AddAttr("use_lsh",
                      options.sens.use_lsh ? std::string("true")
                                           : std::string("false"));
    result.semantic = ComputeSemanticSimilarity(source, target, options.sens);
  }
  {
    LARGEEA_TRACE_SPAN("name/stns");
    result.string = ComputeStringSimilarity(source, target, options.stns);
  }
  LARGEEA_TRACE_SPAN("name/fuse");
  result.fused = result.semantic.Fuse(result.string, 1.0f,
                                      options.string_weight,
                                      options.max_entries_per_row);
  return result;
}

}  // namespace largeea
