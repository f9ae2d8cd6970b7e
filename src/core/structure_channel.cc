#include "src/core/structure_channel.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/par/thread_pool.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/partition/overlap.h"
#include "src/rt/fault_injection.h"
#include "src/sim/csls.h"
#include "src/sim/topk_search.h"

namespace largeea {
namespace {

constexpr const char* kPartitionKind = "partition";

StatusOr<MiniBatchSet> GenerateBatches(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    const EntityPairList& seeds, const StructureChannelOptions& options) {
  switch (options.strategy) {
    case PartitionStrategy::kMetisCps: {
      MetisCpsOptions cps = options.metis_cps;
      cps.num_batches = options.num_batches;
      cps.seed = options.seed;
      return MetisCpsPartition(source, target, seeds, cps);
    }
    case PartitionStrategy::kVps: {
      VpsOptions vps = options.vps;
      vps.num_batches = options.num_batches;
      vps.seed = options.seed;
      return VpsPartition(source, target, seeds, vps);
    }
    case PartitionStrategy::kNone: {
      MiniBatch batch;
      batch.source_entities.resize(source.num_entities());
      std::iota(batch.source_entities.begin(), batch.source_entities.end(),
                0);
      batch.target_entities.resize(target.num_entities());
      std::iota(batch.target_entities.begin(), batch.target_entities.end(),
                0);
      batch.seeds = seeds;
      return MiniBatchSet{batch};
    }
  }
  return InternalError("unknown partition strategy");
}

}  // namespace

std::string StructureBatchArtifactKind(size_t batch_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "batch_%04zu", batch_index);
  return buf;
}

bool StructureBatchTrainable(const MiniBatch& batch) {
  return batch.source_entities.size() >= 2 &&
         batch.target_entities.size() >= 2;
}

StatusOr<MiniBatchSet> PrepareStructureBatches(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    const EntityPairList& seeds, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint, bool* from_checkpoint) {
  auto& registry = obs::MetricsRegistry::Get();
  // The batch set is checkpointed so a resumed run trains against the
  // *identical* partition even if the partitioner's randomisation were
  // to drift.
  obs::Span partition_span("structure/partition");
  partition_span.AddAttr("num_batches",
                         static_cast<int64_t>(options.num_batches));
  MiniBatchSet result;
  bool loaded = false;
  if (checkpoint != nullptr && checkpoint->should_load()) {
    auto batches = checkpoint->LoadBatches(kPartitionKind);
    if (batches.ok()) {
      result = std::move(batches).value();
      loaded = true;
    } else if (batches.status().code() != StatusCode::kNotFound) {
      registry.GetCounter("checkpoint.load_failures").Increment();
      LARGEEA_LOG_WARN("structure: ignoring unusable partition "
                       "checkpoint (%s); repartitioning",
                       batches.status().ToString().c_str());
    }
  }
  if (!loaded) {
    if (options.shard_count > 0) {
      // A shard worker only sees ψ (the raw train pairs), never the
      // pseudo-seed-augmented ψ' the orchestrator partitioned with, so
      // regenerating here would silently train a *different* partition.
      return FailedPreconditionError(
          "shard worker requires the partition artifact in the checkpoint "
          "directory (run the orchestrator first)");
    }
    auto batches = GenerateBatches(source, target, seeds, options);
    if (!batches.ok()) {
      return batches.status().WithContext("structure channel: partition");
    }
    result = std::move(batches).value();
    if (options.overlap_degree > 1) {
      result = MakeOverlappingBatches(result, source, target,
                                      options.overlap_degree);
    }
    if (checkpoint != nullptr && checkpoint->enabled()) {
      (void)checkpoint->SaveBatches(kPartitionKind, result);
    }
  }
  if (from_checkpoint != nullptr) *from_checkpoint = loaded;
  return result;
}

StatusOr<StructureChannelResult> TrainStructureChannel(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    MiniBatchSet batches, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint) {
  StructureChannelResult result;
  result.batches = std::move(batches);
  auto& registry = obs::MetricsRegistry::Get();

  // Per-batch training seeds are derived up front, in the exact order the
  // pre-resume code forked them (trainable batches only, ascending), so a
  // run that resumes — and therefore skips some batches — still hands
  // every remaining batch the seed it would have received uninterrupted.
  std::vector<uint64_t> batch_seeds(result.batches.size(), 0);
  {
    // NOTE: the fork iterates every trainable batch regardless of any
    // shard filter below — a worker process that trains only its own
    // batches must still hand each of them the seed a single-process run
    // would have.
    Rng rng(options.seed);
    for (size_t b = 0; b < result.batches.size(); ++b) {
      if (StructureBatchTrainable(result.batches[b])) {
        batch_seeds[b] = rng.Fork(b).Next();
      }
    }
  }

  // Training phase: the memory-tracking span supplies both
  // training_seconds and peak_training_bytes (Table-6 accounting).
  obs::Span train_span("structure/train", obs::Span::kTrackMemory);
  obs::Histogram& loss_hist = registry.GetHistogram(
      "structure.batch_loss",
      {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0});
  obs::Histogram& epoch_hist = registry.GetHistogram(
      "structure.epoch_seconds",
      {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0});

  result.similarity = SparseSimMatrix(source.num_entities(),
                                      target.num_entities(), options.top_k);
  const TopKOptions topk{.k = options.top_k,
                         .metric = SimMetric::kManhattan};

  // Trains one batch into its own similarity block. Isolating the block
  // makes the batch restartable: it merges into M_s only on success, so a
  // failed attempt leaves no partial contribution behind. The model is
  // per-call because EaModel::Train is non-const; the bundled models are
  // stateless and deterministic in the seed, so a fresh instance per
  // batch changes nothing.
  const auto train_batch_block =
      [&](size_t b, EaModel& model) -> StatusOr<SparseSimMatrix> {
    LARGEEA_INJECT_FAULT("structure.batch.train");
    const MiniBatch& batch = result.batches[b];
    obs::Span batch_span("structure/train_batch");
    batch_span.AddAttr("batch", static_cast<int64_t>(b));
    batch_span.AddAttr("source_entities",
                       static_cast<int64_t>(batch.source_entities.size()));
    batch_span.AddAttr("target_entities",
                       static_cast<int64_t>(batch.target_entities.size()));
    batch_span.AddAttr("seeds", static_cast<int64_t>(batch.seeds.size()));

    LocalGraph local_source, local_target;
    {
      LARGEEA_TRACE_SPAN("structure/local_graph");
      local_source = BuildLocalGraph(source, batch.source_entities);
      local_target = BuildLocalGraph(target, batch.target_entities);
    }
    const auto local_seeds =
        LocalizeSeeds(local_source, local_target, batch.seeds);

    TrainOptions train = options.train;
    train.seed = batch_seeds[b];
    TrainedEmbeddings embeddings;
    {
      obs::Span model_span("structure/train_model");
      embeddings = model.Train(local_source, local_target, local_seeds,
                               train);
      model_span.AddAttr("final_loss", embeddings.final_loss);
      const double model_seconds = model_span.End();
      loss_hist.Observe(embeddings.final_loss);
      if (train.epochs > 0) {
        epoch_hist.Observe(model_seconds / train.epochs);
      }
    }
    LARGEEA_LOG_DEBUG(
        "batch %zu: %zu+%zu entities, %zu seeds, final loss %.4f", b,
        batch.source_entities.size(), batch.target_entities.size(),
        local_seeds.size(), embeddings.final_loss);

    // Similarity only *within* the batch: M_s stays block-diagonal, the
    // memory-saving property Section 2.2.2 highlights.
    SparseSimMatrix block(source.num_entities(), target.num_entities(),
                          options.top_k);
    {
      LARGEEA_TRACE_SPAN("structure/topk");
      TopKInto(embeddings.source, local_source.global_ids, embeddings.target,
               local_target.global_ids, /*index=*/nullptr, topk, block);
    }
    return block;
  };

  const auto merge_block = [&result](const SparseSimMatrix& block) {
    for (int32_t r = 0; r < block.num_rows(); ++r) {
      result.similarity.AccumulateRow(r, block.Row(r));
    }
  };

  // Batches are independent (seeds were forked above), so training runs
  // concurrently on the par::ThreadPool. Only two things must stay
  // serial, and both happen at an in-order merge cursor under one mutex:
  // accumulating blocks into the shared M_s and saving checkpoints —
  // always in ascending batch index, so the channel output and the
  // checkpoint progression are identical at any thread count. The
  // cursor is advanced eagerly as batches resolve: batch b is merged and
  // checkpointed as soon as batches 0..b are all done, preserving PR 2's
  // prompt-checkpoint property.
  enum class SlotState {
    kPending,
    kSkipped,
    kForeign,  ///< another shard's batch: not merged, not checkpointed
    kResumed,
    kTrained,
    kFailed,
  };
  struct BatchSlot {
    SlotState state = SlotState::kPending;
    SparseSimMatrix block;
    Status error;
  };
  std::vector<BatchSlot> slots(result.batches.size());
  std::vector<size_t> to_train;

  // Dispositions are resolved serially first: too-small batches are
  // skipped, other shards' batches are passed over, and checkpointed
  // batches are loaded, in ascending order as before.
  for (size_t b = 0; b < result.batches.size(); ++b) {
    if (!StructureBatchTrainable(result.batches[b])) {
      slots[b].state = SlotState::kSkipped;
      registry.GetCounter("structure.batches_skipped").Increment();
      continue;
    }
    if (options.shard_count > 0 &&
        static_cast<int32_t>(b % static_cast<size_t>(options.shard_count)) !=
            options.shard_index) {
      slots[b].state = SlotState::kForeign;
      continue;
    }
    if (checkpoint != nullptr && checkpoint->should_load()) {
      auto block = checkpoint->LoadMatrix(StructureBatchArtifactKind(b));
      if (block.ok()) {
        slots[b].state = SlotState::kResumed;
        slots[b].block = std::move(block).value();
        ++result.batches_resumed;
        registry.GetCounter("structure.batches_resumed").Increment();
        continue;
      }
      if (block.status().code() != StatusCode::kNotFound) {
        registry.GetCounter("checkpoint.load_failures").Increment();
        LARGEEA_LOG_WARN("structure: ignoring unusable checkpoint for "
                         "batch %zu (%s); retraining",
                         b, block.status().ToString().c_str());
      }
      if (options.resume_missing_batches_as_failed) {
        // Merge-only mode: this process must not train. The batch is
        // accounted a failure — dropped (degradation) or fatal per
        // drop_failed_batches.
        slots[b].state = SlotState::kFailed;
        slots[b].error = block.status().WithContext(
            "batch artifact unusable in merge-only resume");
        continue;
      }
    } else if (options.resume_missing_batches_as_failed) {
      slots[b].state = SlotState::kFailed;
      slots[b].error = FailedPreconditionError(
          "merge-only resume requires a checkpoint store");
      continue;
    }
    to_train.push_back(b);
  }

  std::mutex merge_mu;
  size_t cursor = 0;           // guarded by merge_mu
  Status channel_error;        // guarded by merge_mu
  std::atomic<bool> abort{false};

  // Must hold merge_mu. Resolves every leading settled slot in order.
  const auto advance_cursor = [&] {
    while (cursor < slots.size() && !abort.load(std::memory_order_relaxed)) {
      BatchSlot& slot = slots[cursor];
      const size_t b = cursor;
      switch (slot.state) {
        case SlotState::kPending:
          return;
        case SlotState::kSkipped:
        case SlotState::kForeign:
          break;
        case SlotState::kResumed:
          merge_block(slot.block);
          slot.block = SparseSimMatrix();
          break;
        case SlotState::kTrained:
          merge_block(slot.block);
          registry.GetCounter("structure.batches_trained").Increment();
          if (checkpoint != nullptr && checkpoint->enabled()) {
            (void)checkpoint->SaveMatrix(StructureBatchArtifactKind(b),
                                         slot.block);
          }
          slot.block = SparseSimMatrix();
          break;
        case SlotState::kFailed:
          if (!options.drop_failed_batches) {
            channel_error = slot.error.WithContext(
                "structure channel: batch " + std::to_string(b));
            abort.store(true, std::memory_order_relaxed);
            return;
          }
          // Graceful degradation: this block of M_s stays zero; recall
          // drops by at most the batch's share of test pairs, and the
          // run report shows exactly how many batches were sacrificed.
          ++result.batches_dropped;
          registry.GetCounter("structure.batches_dropped").Increment();
          LARGEEA_LOG_WARN("structure: dropping batch %zu (%s); its "
                           "similarity block stays zero",
                           b, slot.error.ToString().c_str());
          break;
      }
      ++cursor;
    }
  };
  {
    std::lock_guard<std::mutex> lock(merge_mu);
    advance_cursor();  // merge any leading skipped/resumed batches
  }

  par::ThreadPool::Get().Run(
      static_cast<int64_t>(to_train.size()), [&](int64_t task) {
        const size_t b = to_train[static_cast<size_t>(task)];
        if (abort.load(std::memory_order_relaxed)) return;
        // Stateless and cheap next to an epoch of training; a private
        // instance keeps the virtual non-const Train call data-race-free.
        const std::unique_ptr<EaModel> model = MakeModel(options.model);
        Status last_error;
        for (int32_t attempt = 0; attempt <= options.max_batch_retries;
             ++attempt) {
          if (attempt > 0) {
            {
              std::lock_guard<std::mutex> lock(merge_mu);
              ++result.batches_retried;
            }
            registry.GetCounter("structure.batch_retries").Increment();
            if (abort.load(std::memory_order_relaxed)) return;
          }
          auto block = train_batch_block(b, *model);
          std::lock_guard<std::mutex> lock(merge_mu);
          if (block.ok()) {
            slots[b].state = SlotState::kTrained;
            slots[b].block = std::move(block).value();
            advance_cursor();
            return;
          }
          last_error = block.status();
          LARGEEA_LOG_WARN("structure: batch %zu attempt %d failed: %s", b,
                           attempt + 1, last_error.ToString().c_str());
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        slots[b].state = SlotState::kFailed;
        slots[b].error = last_error;
        advance_cursor();
      });
  {
    std::lock_guard<std::mutex> lock(merge_mu);
    advance_cursor();
    if (!channel_error.ok()) return channel_error;
  }
  if (options.apply_csls) {
    LARGEEA_TRACE_SPAN("structure/csls");
    LARGEEA_INJECT_FAULT("structure.csls");
    result.similarity = CslsRescale(result.similarity);
  }
  result.similarity.RefreshMemoryTracking();
  result.training_seconds = train_span.End();
  result.peak_training_bytes = train_span.peak_bytes();
  return result;
}

StatusOr<StructureChannelResult> RunStructureChannel(
    const KnowledgeGraph& source, const KnowledgeGraph& target,
    const EntityPairList& seeds, const StructureChannelOptions& options,
    rt::CheckpointManager* checkpoint) {
  auto batches =
      PrepareStructureBatches(source, target, seeds, options, checkpoint);
  if (!batches.ok()) return batches.status();
  return TrainStructureChannel(source, target, std::move(batches).value(),
                               options, checkpoint);
}

}  // namespace largeea
