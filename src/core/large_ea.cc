#include "src/core/large_ea.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/core/pipeline_fingerprint.h"
#include "src/dag/pipeline_dag.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/thread_pool.h"
#include "src/rt/checkpoint.h"
#include "src/rt/io_util.h"
#include "src/simd/simd.h"
#include "src/stream/stream_context.h"

namespace largeea {

uint64_t LargeEaConfigFingerprint(const EaDataset& dataset,
                                  const LargeEaOptions& options) {
  // Everything that can change the numbers goes in; cosmetic knobs
  // (checkpoint dir, log level) stay out so they never invalidate a
  // resume.
  const StructureChannelOptions& s = options.structure_channel;
  const NameChannelOptions& n = options.name_channel;
  // The budget is part of this global stamp, resolved here so the
  // fingerprint agrees with what RunLargeEa will actually do. No
  // artifact the pipeline writes carries it: every node saves its
  // artifact in full before any consumer releases it, so the per-node
  // fingerprints that override this stamp (pipeline_fingerprint.h)
  // leave the budget out and a checkpoint resumes under any budget.
  const stream::StreamOptions stream =
      stream::ResolveStreamOptions(options.stream);
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "largeea-config v1"
      " kg=%d,%zu,%d,%zu train=%zu test=%zu"
      " channels=%d,%d,%d fuse=%d,%.9g,%.9g"
      " name=%d,%.9g,%.9g,%d,%d,%.9g,%d"
      " structure=%d,%d,%d,%d,%d,%d,%" PRIu64
      " train=%d,%d,%.9g,%.9g,%d,%d,%" PRIu64
      " stream=%" PRId64 ",%d,%d",
      dataset.source.num_entities(),
      dataset.source.triples().size(),
      dataset.target.num_entities(),
      dataset.target.triples().size(),
      dataset.split.train.size(), dataset.split.test.size(),
      static_cast<int>(options.use_name_channel),
      static_cast<int>(options.use_structure_channel),
      static_cast<int>(options.fuse_name_similarity),
      options.fused_top_k, options.structure_weight, options.name_weight,
      static_cast<int>(n.enable_augmentation), n.augmentation_margin,
      n.nff.string_weight, n.nff.max_entries_per_row, n.nff.sens.top_k,
      n.nff.stns.jaccard_threshold,
      n.nff.stns.max_entries_per_row,
      static_cast<int>(s.model), static_cast<int>(s.strategy),
      s.num_batches, s.overlap_degree, s.top_k,
      static_cast<int>(s.apply_csls), s.seed,
      s.train.epochs, s.train.dim, s.train.learning_rate,
      s.train.margin, s.train.negatives_per_seed,
      s.train.hard_negative_refresh, s.train.seed,
      stream.memory_budget_mb, stream.tile_rows,
      static_cast<int>(stream.release_inputs));
  return rt::Fnv1a64(buf);
}

StatusOr<LargeEaResult> RunLargeEa(const EaDataset& dataset,
                                   const LargeEaOptions& options,
                                   const StructureTrainer& train_structure) {
  if (!options.use_name_channel && !options.use_structure_channel) {
    return InvalidArgumentError(
        "at least one of use_name_channel / use_structure_channel must be "
        "enabled (both channels are ablated)");
  }
  // The pipeline span is the single source for total_seconds and
  // peak_bytes; nested operator/channel spans feed the same trace and
  // report.
  obs::Span pipeline_span("pipeline", obs::Span::kTrackMemory);
  pipeline_span.AddAttr("simd.backend",
                        simd::BackendName(simd::ActiveBackend()));

  // Memory-budgeted streaming: one context (budget + spill store) per
  // run, handed only to the operators that know how to stream. Null
  // when disabled, which keeps every operator on its in-memory path.
  const stream::StreamOptions stream_options =
      stream::ResolveStreamOptions(options.stream);
  std::unique_ptr<stream::StreamContext> stream_ctx;
  if (stream::StreamingEnabled(stream_options)) {
    stream_ctx = std::make_unique<stream::StreamContext>(stream_options);
    pipeline_span.AddAttr("stream.budget_mb",
                          stream_options.memory_budget_mb);
    LARGEEA_LOG_INFO("pipeline: streaming under a %" PRId64
                     " MiB budget (spill dir '%s')",
                     stream_options.memory_budget_mb,
                     stream_ctx->store().spill_dir().c_str());
  }

  // The global fingerprint stays the default stamp; per-node
  // fingerprints cover every artifact the pipeline actually writes, so
  // a changed option re-executes only the dirty subgraph on --resume.
  rt::CheckpointManager checkpoint = MakePipelineCheckpointManager(
      dataset, options, options.fault_tolerance.checkpoint_dir,
      options.fault_tolerance.resume);
  if (checkpoint.should_load()) {
    LARGEEA_LOG_INFO("pipeline: resuming from checkpoints in '%s'",
                     checkpoint.dir().c_str());
  }

  StatusOr<LargeEaResult> run = dag::RunLargeEaPipeline(
      dataset, options, checkpoint, stream_ctx.get(),
      par::ThreadPool::Get().num_threads(), train_structure);
  if (!run.ok()) return run.status();
  LargeEaResult result = std::move(run).value();

  result.total_seconds = pipeline_span.End();
  result.peak_bytes = pipeline_span.peak_bytes();
  if (stream_ctx != nullptr) {
    stream_ctx->budget().ReportCompliance(result.peak_bytes);
  }
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetGauge("pipeline.effective_seeds")
      .Set(static_cast<double>(result.effective_seeds.size()));
  registry.GetGauge("pipeline.batches_dropped")
      .Set(static_cast<double>(result.structure_channel.batches_dropped));
  registry.GetGauge("pipeline.batches_resumed")
      .Set(static_cast<double>(result.structure_channel.batches_resumed));
  // Compliant when unbudgeted, or when the run's tracked peak stayed
  // under the budget the scheduler admitted against.
  const bool compliant =
      stream_ctx == nullptr ||
      result.peak_bytes <= stream_ctx->budget().budget_bytes();
  registry.GetGauge("dag.budget.compliant").Set(compliant ? 1.0 : 0.0);
  return result;
}

}  // namespace largeea
