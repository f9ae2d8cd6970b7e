// NFF — name feature fusion (Section 2.3): M_n = M_se + γ · M_st.
#ifndef LARGEEA_NAME_NFF_H_
#define LARGEEA_NAME_NFF_H_

#include "src/name/semantic_sim.h"
#include "src/name/string_sim.h"

namespace largeea {

struct NffOptions {
  SensOptions sens;
  StnsOptions stns;
  /// γ — weight of string similarity in the fusion. The paper uses 0.05
  /// (semantic features dominate).
  float string_weight = 0.05f;
  /// Entries kept per row in the fused M_n.
  int32_t max_entries_per_row = 50;
};

/// The fused name similarity matrix plus its ingredients (kept so the
/// ablation bench can report them separately).
struct NffResult {
  SparseSimMatrix semantic;  ///< M_se
  SparseSimMatrix string;    ///< M_st
  SparseSimMatrix fused;     ///< M_n = M_se + γ·M_st
};

/// Runs SENS and STNS in memory and fuses them. The pipeline's streamed
/// name channel is the DAG's name nodes (src/dag/pipeline_dag.h), not
/// this function.
NffResult ComputeNameFeatures(const KnowledgeGraph& source,
                              const KnowledgeGraph& target,
                              const NffOptions& options);

}  // namespace largeea

#endif  // LARGEEA_NAME_NFF_H_
