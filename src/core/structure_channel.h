// Structure channel (Section 2.2 / Algorithm 1): mini-batch generation
// plus per-batch structural training, producing the block-diagonal sparse
// similarity matrix M_s.
//
// Fault tolerance: each mini-batch is an isolated unit of work. A batch
// that fails is retried with bounded exponential backoff; if it keeps
// failing it is dropped — its similarity contribution stays zero and the
// event is counted (`structure.batches_dropped`) — so one poisoned
// partition degrades recall instead of killing hours of training.
// Completed batches checkpoint their similarity block, so a resumed run
// replays only the batches that never finished.
#ifndef LARGEEA_CORE_STRUCTURE_CHANNEL_H_
#define LARGEEA_CORE_STRUCTURE_CHANNEL_H_

#include <cstdint>
#include <functional>

#include "src/nn/ea_model.h"
#include "src/partition/metis_cps.h"
#include "src/partition/vps.h"
#include "src/rt/checkpoint.h"
#include "src/rt/status.h"
#include "src/sim/sparse_sim.h"

namespace largeea {

/// How the KGs are split into mini-batches.
enum class PartitionStrategy {
  kMetisCps,  ///< the paper's METIS-CPS (default)
  kVps,       ///< random vanilla partition strategy
  kNone,      ///< whole-graph training ("w/o p." in Section 3.4)
};

struct StructureChannelOptions {
  ModelKind model = ModelKind::kRrea;
  TrainOptions train;
  PartitionStrategy strategy = PartitionStrategy::kMetisCps;
  int32_t num_batches = 5;
  MetisCpsOptions metis_cps;
  VpsOptions vps;
  /// Overlap degree D_ov (Appendix C); 1 = disjoint batches.
  int32_t overlap_degree = 1;
  /// Similarity candidates kept per source entity in M_s.
  int32_t top_k = 50;
  /// Apply CSLS hubness correction to M_s (see src/sim/csls.h). Raw
  /// mini-batch similarities are poorly calibrated across batches, which
  /// hurts channel fusion; CSLS fixes the calibration.
  bool apply_csls = true;
  uint64_t seed = 1;
  /// Re-attempts after a batch's first failure (0 = fail immediately).
  int32_t max_batch_retries = 2;
  /// Sleep before retry r is `retry_backoff_ms << (r-1)`, capping the
  /// total stall per batch; 0 disables sleeping (used by tests).
  int32_t retry_backoff_ms = 100;
  /// When true, a batch that exhausts its retries is dropped (similarity
  /// contribution zeroed, counted); when false it fails the channel.
  bool drop_failed_batches = true;

  /// Sharded execution (src/shard/, DESIGN.md §12). With shard_count > 0
  /// this process trains only the batches assigned to shard_index
  /// (batch b belongs to shard b % shard_count); every other batch is
  /// left untouched for its own worker process. The partition artifact
  /// must then already exist in the checkpoint store — a worker must
  /// never re-derive it, because it does not hold the augmented seed set
  /// ψ' the orchestrator partitioned with. These fields are deliberately
  /// NOT part of the config fingerprint: the shard layout must never
  /// invalidate checkpoints shared across processes.
  int32_t shard_count = 0;
  int32_t shard_index = 0;
  /// Merge-only resume (the sharded trainer's merge): a batch whose
  /// checkpoint artifact cannot be loaded is treated as a *failed* batch
  /// — dropped and counted under drop_failed_batches, channel failure
  /// otherwise — instead of being retrained in this process. Guarantees
  /// the merge trains nothing.
  bool resume_missing_batches_as_failed = false;
};

struct StructureChannelResult {
  SparseSimMatrix similarity;  ///< M_s
  MiniBatchSet batches;
  double partition_seconds = 0.0;
  double training_seconds = 0.0;
  /// Peak tracked working-set bytes during training (Table-6 accounting).
  int64_t peak_training_bytes = 0;
  /// Degradation/resume accounting for the run report.
  int32_t batches_dropped = 0;
  int32_t batches_retried = 0;
  int32_t batches_resumed = 0;
};

/// Checkpoint artifact kind for batch `batch_index`'s similarity block
/// ("batch_0004") — the shard orchestrator uses it to test shard
/// completeness against the shared checkpoint store.
std::string StructureBatchArtifactKind(size_t batch_index);

/// Whether `batch` is large enough to train (too-small batches are
/// skipped by the channel and excluded from shard plans).
bool StructureBatchTrainable(const MiniBatch& batch);

/// The partition phase alone: loads the checkpointed batch set, or
/// generates (+overlaps, + checkpoints) it. The pipeline DAG runs this
/// as its partition node, so the artifact is on disk before a sharded
/// structure_train node spawns workers. With options.shard_count > 0
/// (a worker) the partition is load-only and a missing artifact is
/// FAILED_PRECONDITION (see the field comment).
/// `partition_seconds`, when non-null, receives the phase wall time, and
/// `from_checkpoint` whether the batch set was loaded rather than made.
StatusOr<MiniBatchSet> PrepareStructureBatches(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    const EntityPairList& seeds, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint, double* partition_seconds = nullptr,
    bool* from_checkpoint = nullptr);

/// The training phase alone: trains (or resumes) every trainable batch
/// of an already-materialised partition and merges the blocks into M_s.
/// The pipeline DAG runs this as its own operator downstream of the
/// partition node; `result.batches` takes ownership of `batches` and
/// `partition_seconds` stays zero.
StatusOr<StructureChannelResult> TrainStructureChannel(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    MiniBatchSet batches, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint = nullptr);

/// The training phase as the pipeline's structure_train node calls it
/// (TrainStructureChannel's signature). TrainStructureChannel itself is
/// the in-process policy; the shard orchestrator supplies one that
/// trains across worker processes and then merges (src/shard/).
using StructureTrainer = std::function<StatusOr<StructureChannelResult>(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    MiniBatchSet batches, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint)>;

/// Runs the structure channel — PrepareStructureBatches followed by
/// TrainStructureChannel. `seeds` is ψ' (train pairs, possibly already
/// augmented with pseudo seeds). When `checkpoint` is non-null, the
/// partition and each completed batch's similarity block are saved
/// there; in resume mode completed units are loaded instead of retrained.
StatusOr<StructureChannelResult> RunStructureChannel(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    const EntityPairList& seeds, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint = nullptr);

}  // namespace largeea

#endif  // LARGEEA_CORE_STRUCTURE_CHANNEL_H_
