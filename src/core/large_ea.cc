#include "src/core/large_ea.h"

#include <cinttypes>
#include <memory>
#include <utility>

#include "src/core/pipeline_fingerprint.h"
#include "src/dag/pipeline_dag.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/thread_pool.h"
#include "src/rt/checkpoint.h"
#include "src/simd/simd.h"
#include "src/stream/stream_context.h"

namespace largeea {

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

  // Memory-budgeted streaming: one context (options + budget) per
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
                     " MiB budget (spills to %s)",
                     stream_options.memory_budget_mb,
                     stream_options.spill_dir.empty()
                         ? "the system temp dir"
                         : stream_options.spill_dir.c_str());
  }

  // Per-node fingerprints cover every artifact the pipeline writes, so
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
      .Set(static_cast<double>(result.batches_dropped));
  registry.GetGauge("pipeline.batches_resumed")
      .Set(static_cast<double>(result.batches_resumed));
  // Compliant when unbudgeted, or when the run's tracked peak stayed
  // under the budget the scheduler admitted against.
  const bool compliant =
      stream_ctx == nullptr ||
      result.peak_bytes <= stream_ctx->budget().budget_bytes();
  registry.GetGauge("dag.budget.compliant").Set(compliant ? 1.0 : 0.0);
  return result;
}

}  // namespace largeea
