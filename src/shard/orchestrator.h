// Crash-tolerant multi-process shard orchestrator (DESIGN.md §12).
//
// RunShardedLargeEa splits the structure channel's mini-batch training
// across N supervised worker subprocesses and merges their checkpointed
// blocks through the single-process resume path, so the fused matrix is
// bit-identical to a plain RunLargeEa at ANY shard count — including
// after a worker was SIGKILLed mid-batch and respawned.
//
// Sharding is an execution policy of the pipeline DAG's structure_train
// node, not a second pipeline: the orchestrator runs RunLargeEa (resume
// forced on) with a trainer that replaces in-process training.
//   A. The DAG's own nodes: name channel, seed augmentation, partition,
//      all checkpointed exactly as in any RunLargeEa.
//   B. The trainer's supervision loop: spawn one worker per incomplete
//      shard, watch heartbeats and deadlines, classify failures (exit
//      code, signal, hang, deadline), retry with bounded exponential
//      backoff; a shard that exhausts its retries is degraded — its
//      batches fall out of M_s and are counted, never silently wrong.
//   C. The trainer's merge: TrainStructureChannel in merge-only mode
//      over the shared checkpoint directory; the in-order block merge
//      cannot tell worker-trained artifacts from locally trained ones.
//      The DAG then fuses and evaluates as usual.
#ifndef LARGEEA_SHARD_ORCHESTRATOR_H_
#define LARGEEA_SHARD_ORCHESTRATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/large_ea.h"
#include "src/kg/dataset.h"
#include "src/rt/status.h"

namespace largeea::shard {

struct ShardOptions {
  /// Number of worker processes. 0 = run single-process (plain
  /// RunLargeEa); shard counts beyond the batch count just leave the
  /// surplus workers with empty shards (they are not spawned).
  int32_t num_shards = 0;
  /// Respawns allowed per shard after its first attempt fails.
  int32_t max_shard_retries = 2;
  /// Backoff before attempt k+1 is `retry_backoff_ms << (k-1)`.
  int32_t retry_backoff_ms = 200;
  /// Interval workers are told to rewrite their heartbeat file at.
  int32_t heartbeat_interval_ms = 250;
  /// A worker whose heartbeat file does not change for this long is
  /// classified as hung and SIGKILLed. Must comfortably exceed the
  /// longest single training epoch; hang detection is based on content
  /// change, not timestamps, so there is no cross-process clock skew.
  int32_t heartbeat_timeout_ms = 30000;
  /// Hard wall-clock deadline per worker attempt; 0 disables.
  int32_t shard_deadline_s = 0;
  /// When a shard exhausts its retries: true counts it as degraded and
  /// continues (its batches are dropped from M_s, the name channel
  /// still covers its pairs); false fails the run.
  bool degrade_failed_shards = true;
  /// Supervision poll cadence.
  int32_t poll_interval_ms = 50;
  /// Command line to re-invoke this pipeline as a worker; the
  /// orchestrator appends `--shard-worker <i> --shards <N> ...`
  /// overrides (the flag parser is last-wins). Typically the
  /// orchestrator's own argv with argv[0] resolved to /proc/self/exe.
  std::vector<std::string> worker_command;
  /// Extra "NAME=value" entries for worker environments (fault
  /// injection in tests rides in here).
  std::vector<std::string> worker_env;
  /// Ask each worker for a Chrome trace and record the file paths in
  /// ShardRunStats for a post-run multi-process merge.
  bool capture_worker_traces = false;
};

/// Supervision outcome, mirrored into shard.* metrics.
struct ShardRunStats {
  int32_t num_shards = 0;
  int32_t workers_launched = 0;      ///< processes actually spawned
  int32_t workers_retried = 0;       ///< respawns after a failure
  int32_t shards_degraded = 0;       ///< shards that exhausted retries
  int32_t shards_resumed = 0;        ///< complete before any spawn
  int32_t workers_killed_hung = 0;   ///< SIGKILLed on stale heartbeat
  int32_t workers_killed_deadline = 0;
  std::vector<std::string> worker_trace_files;  ///< one per shard, may
                                                ///< be missing on disk
};

/// Runs the sharded pipeline. Requires a checkpoint directory and a
/// worker command when `shards.num_shards > 0`. On success the result
/// is bit-identical to RunLargeEa(dataset, options) modulo explicitly
/// counted degradation. `stats` (optional) receives the supervision
/// tallies also published as shard.* metrics.
StatusOr<LargeEaResult> RunShardedLargeEa(const EaDataset& dataset,
                                          const LargeEaOptions& options,
                                          const ShardOptions& shards,
                                          ShardRunStats* stats = nullptr);

}  // namespace largeea::shard

#endif  // LARGEEA_SHARD_ORCHESTRATOR_H_
