// The LargeEA pipeline expressed as an operator DAG (DESIGN.md §14).
//
// BuildLargeEaGraph decomposes Algorithm 1 into nine operators —
//
//   name_semantic ─┐
//                  ├─ name_fuse ── name_augmentation ─┐
//   name_string ──┘                                   │
//                                 seed_augmentation ──┴─ (ψ')
//                                        │
//                                    partition ── structure_train ─┐
//                                                                  │
//                              name_fuse ──────────────── fusion ──┴─ eval
//
// — wired so the two channels' independent prefixes (the whole name
// string/semantic computation vs. nothing-to-wait-for structure work)
// overlap: with augmentation disabled (or the name channel ablated)
// ψ' needs no name-channel output, so the structure channel launches
// immediately and runs concurrently with SENS/STNS.
//
// These node bodies are the only implementation of the name channel and
// of the final fusion choice. RunLargeEaPipeline is the body of every
// RunLargeEa, in-process or sharded: sharding only swaps the trainer the
// structure_train node calls (src/shard/orchestrator.h). Each node saves
// its checkpoint artifact in full before the scheduler releases it, so
// artifact bytes are identical under any budget or schedule.
#ifndef LARGEEA_DAG_PIPELINE_DAG_H_
#define LARGEEA_DAG_PIPELINE_DAG_H_

#include "src/core/large_ea.h"
#include "src/dag/scheduler.h"
#include "src/rt/checkpoint.h"
#include "src/stream/stream_context.h"

namespace largeea::dag {

/// Runs the full pipeline as a scheduled operator graph and fills a
/// LargeEaResult that is bit-identical (on `fused`, the metrics, and
/// every checkpoint artifact) at any `max_concurrency`, budget, and
/// SIMD backend; its `schedule` is Execute's record, unchanged.
/// `checkpoint` must come from MakePipelineCheckpointManager so per-node
/// artifacts carry per-node fingerprints; `stream_ctx` may be null
/// (unbudgeted).
/// `max_concurrency` bounds overlapping operators (1 = ascending-id
/// serial order). The structure_train node calls `train_structure`.
StatusOr<LargeEaResult> RunLargeEaPipeline(
    const EaDataset& dataset, const LargeEaOptions& options,
    rt::CheckpointManager& checkpoint, stream::StreamContext* stream_ctx,
    int32_t max_concurrency,
    const StructureTrainer& train_structure = TrainStructureChannel);

}  // namespace largeea::dag

#endif  // LARGEEA_DAG_PIPELINE_DAG_H_
