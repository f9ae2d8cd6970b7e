// LargeEA — the full two-channel pipeline (Figure 2).
//
// Dataflow follows Algorithm 1: the name channel produces M_n and pseudo
// seeds; the pseudo seeds join ψ'; the structure channel trains per
// mini-batch and produces M_s; the channels fuse as M = M_s + M_n; the
// fused matrix is evaluated against the held-out test pairs. RunLargeEa
// executes it as the operator DAG of src/dag/pipeline_dag.h — the one
// executor, in-process or sharded (the shard orchestrator only swaps
// the structure_train node's trainer).
//
// Fault tolerance: with a checkpoint directory configured, every operator
// (name features, pseudo seeds, partition, each mini-batch, fused matrix)
// persists its output, and a `resume` run restores completed operators
// instead of recomputing them — bit-identically, because every operator
// is deterministic given the options and the checkpoints round-trip
// floats exactly. See DESIGN.md §7 for the failure model.
#ifndef LARGEEA_CORE_LARGE_EA_H_
#define LARGEEA_CORE_LARGE_EA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/name_channel.h"
#include "src/core/structure_channel.h"
#include "src/kg/dataset.h"
#include "src/rt/status.h"
#include "src/stream/stream_options.h"

namespace largeea {

/// Checkpoint/resume configuration for a pipeline run.
struct FaultToleranceOptions {
  /// Directory for phase checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Restore completed phases from `checkpoint_dir` instead of
  /// recomputing them. Checkpoints written under a different
  /// configuration fingerprint are ignored (with a warning), never
  /// silently reused.
  bool resume = false;
};

struct LargeEaOptions {
  NameChannelOptions name_channel;
  StructureChannelOptions structure_channel;
  /// Ablation switches (Figure 5): disable a whole channel.
  bool use_name_channel = true;
  bool use_structure_channel = true;
  /// "w/o name channel" in the paper's sense: the name channel still runs
  /// (its data augmentation feeds pseudo seeds into Algorithm 1), but M_n
  /// is NOT fused into the final similarity. Only meaningful while
  /// use_name_channel && use_structure_channel.
  bool fuse_name_similarity = true;
  /// Entries per row kept in the fused matrix M.
  int32_t fused_top_k = 50;
  /// Channel fusion weights; the paper uses equal weights (1, 1).
  float structure_weight = 1.0f;
  float name_weight = 1.0f;
  FaultToleranceOptions fault_tolerance;
  /// Memory-budgeted streaming execution (DESIGN.md §10). Resolved
  /// against LARGEEA_MEMORY_BUDGET_MB at run (and fingerprint) time; a
  /// positive budget spills the target's name embeddings to one mapped
  /// file (and bounds the DAG's admissions) without changing any result
  /// bit. The budget decides only that: every run, budgeted or not,
  /// releases the intermediate matrices (nff.semantic, nff.string,
  /// nff.fused, structure_channel.similarity) once fused, so they come
  /// back empty — `fused`, the seeds and the metrics are retained.
  stream::StreamOptions stream;
};

/// Per-operator execution record of the DAG executor.
struct DagNodeStats {
  std::string name;
  double seconds = 0.0;
  int64_t peak_bytes = 0;       ///< tracked peak while the node ran
  int64_t estimated_bytes = 0;  ///< declared admission estimate
  bool from_checkpoint = false;
  int32_t deferrals = 0;  ///< admissions denied by the memory budget
};

struct LargeEaResult {
  SparseSimMatrix fused;  ///< M = M_s + M_n
  EvalMetrics metrics;
  NameChannelResult name_channel;
  StructureChannelResult structure_channel;
  /// ψ' actually used by the structure channel (seeds + pseudo seeds).
  EntityPairList effective_seeds;
  double total_seconds = 0.0;
  int64_t peak_bytes = 0;
  /// DAG-executor diagnostics, one entry per operator.
  std::vector<DagNodeStats> dag_nodes;
  double dag_critical_path_seconds = 0.0;
  std::vector<std::string> dag_critical_path;  ///< node names, source→sink
  int64_t dag_deferrals = 0;
};

/// Runs LargeEA on `dataset` (dataset.split.train as ψ', possibly empty
/// for unsupervised EA) and evaluates on dataset.split.test. Fails with a
/// contextful Status when a channel fails unrecoverably; per-batch
/// structure failures degrade (see StructureChannelOptions) instead.
/// `train_structure` is the structure_train node's execution policy:
/// in-process mini-batch training by default; the shard orchestrator
/// passes one that trains across supervised worker processes.
StatusOr<LargeEaResult> RunLargeEa(
    const EaDataset& dataset, const LargeEaOptions& options,
    const StructureTrainer& train_structure = TrainStructureChannel);

}  // namespace largeea

#endif  // LARGEEA_CORE_LARGE_EA_H_
