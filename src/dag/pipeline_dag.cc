#include "src/dag/pipeline_dag.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/dag/graph.h"
#include "src/name/data_augmentation.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/rt/fault_injection.h"

namespace largeea::dag {
namespace {

// Artifact kinds; pipeline_fingerprint.cc stamps each with its node's
// fingerprint.
constexpr const char* kSemanticKind = "name_semantic";
constexpr const char* kStringKind = "name_string";
constexpr const char* kNameFusedKind = "name_fused";
constexpr const char* kPseudoSeedKind = "name_pseudo_seeds";
constexpr const char* kFusedKind = "fused";

/// Rough footprint of a top-k sparse similarity matrix (entries plus
/// per-row bookkeeping) — admission estimates, not accounting.
int64_t SimBytes(int64_t rows, int64_t k) {
  return rows * (k * static_cast<int64_t>(sizeof(SimEntry)) + 32);
}

/// Loads `kind` into `out` if resume mode has a usable artifact: one
/// that loads under its fingerprint with the source × target shape.
/// Other failures than NOT_FOUND are counted and logged, and the node
/// recomputes.
bool TryLoadMatrix(rt::CheckpointManager& checkpoint, const char* kind,
                   const EaDataset& dataset, SparseSimMatrix& out,
                   NodeContext& ctx) {
  if (!checkpoint.should_load()) return false;
  auto loaded = checkpoint.LoadMatrix(kind);
  if (loaded.ok() &&
      (loaded->num_rows() != dataset.source.num_entities() ||
       loaded->num_cols() != dataset.target.num_entities())) {
    // Budgeted runs of the former serial and shard-prefix executors
    // saved released (empty) intermediates under fingerprints that
    // promise full bytes; such a matrix is as unusable as a mismatch.
    loaded = FailedPreconditionError(
        "shape " + std::to_string(loaded->num_rows()) + "x" +
        std::to_string(loaded->num_cols()) + ", expected " +
        std::to_string(dataset.source.num_entities()) + "x" +
        std::to_string(dataset.target.num_entities()));
  }
  if (loaded.ok()) {
    out = std::move(loaded).value();
    ctx.MarkFromCheckpoint();
    return true;
  }
  if (loaded.status().code() != StatusCode::kNotFound) {
    obs::MetricsRegistry::Get()
        .GetCounter("checkpoint.load_failures")
        .Increment();
    LARGEEA_LOG_WARN("dag: ignoring unusable '%s' checkpoint (%s); "
                     "recomputing",
                     kind, loaded.status().ToString().c_str());
  }
  return false;
}

/// Publishes the entry count of an intermediate matrix, which the
/// result no longer holds once fusion has consumed it.
void SetEntriesGauge(const char* name, const SparseSimMatrix& m) {
  obs::MetricsRegistry::Get().GetGauge(name).Set(
      static_cast<double>(m.TotalEntries()));
}

/// Mutable state the node bodies close over. Lives on the caller's
/// stack for the whole schedule; concurrent nodes touch disjoint
/// fields (the graph's edges are exactly the cross-node accesses).
struct PipelineState {
  LargeEaResult result;
  MiniBatchSet batches;
  double partition_seconds = 0.0;
};

}  // namespace

StatusOr<LargeEaResult> RunLargeEaPipeline(
    const EaDataset& dataset, const LargeEaOptions& options,
    rt::CheckpointManager& checkpoint, stream::StreamContext* stream_ctx,
    int32_t max_concurrency, const StructureTrainer& train_structure) {
  const KnowledgeGraph& source = dataset.source;
  const KnowledgeGraph& target = dataset.target;
  const NameChannelOptions& n = options.name_channel;
  const StructureChannelOptions& s = options.structure_channel;
  const int64_t src_rows = source.num_entities();
  const int64_t all_rows = src_rows + target.num_entities();

  PipelineState state;
  Graph graph;
  auto& registry = obs::MetricsRegistry::Get();

  // Every intermediate matrix (M_se, M_st, M_n, M_s) is released when
  // its last consumer finishes, and the fusions consume their inputs, so
  // those result fields come back empty from every run.

  // --- Name channel: M_se ∥ M_st → M_n → pseudo seeds. ---
  int32_t v_name = -1, v_pseudo = -1;
  int32_t n_sem = -1, n_str = -1, n_fuse = -1, n_aug = -1;
  if (options.use_name_channel) {
    const int32_t v_sem = graph.AddValue(
        "M_se", SimBytes(src_rows, n.nff.sens.top_k), /*retain=*/false,
        [&state] {
          state.result.name_channel.nff.semantic = SparseSimMatrix();
        });
    const int32_t v_str = graph.AddValue(
        "M_st", SimBytes(src_rows, n.nff.stns.max_entries_per_row),
        /*retain=*/false, [&state] {
          state.result.name_channel.nff.string = SparseSimMatrix();
        });
    v_name = graph.AddValue(
        "M_n", SimBytes(src_rows, n.nff.max_entries_per_row),
        /*retain=*/false, [&state] {
          state.result.name_channel.nff.fused = SparseSimMatrix();
        });
    v_pseudo = graph.AddValue("pseudo_seeds", src_rows * 8,
                              /*retain=*/true);

    n_sem = graph.AddNode(
        "name_semantic", {}, {v_sem},
        all_rows * n.nff.sens.encoder.dim * 4 +
            SimBytes(src_rows, n.nff.sens.top_k),
        [&](NodeContext& ctx) -> Status {
          SparseSimMatrix& out = state.result.name_channel.nff.semantic;
          if (!TryLoadMatrix(checkpoint, kSemanticKind, dataset, out, ctx)) {
            LARGEEA_INJECT_FAULT("name.features");
            out = ComputeSemanticSimilarity(source, target, n.nff.sens,
                                            stream_ctx);
            if (checkpoint.enabled()) {
              (void)checkpoint.SaveMatrix(kSemanticKind, out);
            }
          }
          SetEntriesGauge("name.semantic_entries", out);
          return OkStatus();
        });
    n_str = graph.AddNode(
        "name_string", {}, {v_str},
        all_rows * n.nff.stns.num_bands * n.nff.stns.rows_per_band * 8 +
            SimBytes(src_rows, n.nff.stns.max_entries_per_row),
        [&](NodeContext& ctx) -> Status {
          SparseSimMatrix& out = state.result.name_channel.nff.string;
          if (!TryLoadMatrix(checkpoint, kStringKind, dataset, out, ctx)) {
            out = ComputeStringSimilarity(source, target, n.nff.stns);
            if (checkpoint.enabled()) {
              (void)checkpoint.SaveMatrix(kStringKind, out);
            }
          }
          SetEntriesGauge("name.string_entries", out);
          return OkStatus();
        });
    n_fuse = graph.AddNode(
        "name_fuse", {v_sem, v_str}, {v_name},
        SimBytes(src_rows, n.nff.max_entries_per_row),
        [&](NodeContext& ctx) -> Status {
          NffResult& nff = state.result.name_channel.nff;
          if (TryLoadMatrix(checkpoint, kNameFusedKind, dataset, nff.fused,
                            ctx)) {
            return OkStatus();
          }
          // Row-streamed fusion consumes M_se and M_st; the scheduler
          // releases the moved-from values right after this node.
          nff.fused = SparseSimMatrix::FuseStreamed(
              std::move(nff.semantic), std::move(nff.string), 1.0f,
              n.nff.string_weight, n.nff.max_entries_per_row);
          if (checkpoint.enabled()) {
            (void)checkpoint.SaveMatrix(kNameFusedKind, nff.fused);
          }
          return OkStatus();
        });
    // Augmentation disabled still gets a node: ψ'_p is then constantly
    // empty, and saving the artifact keeps the name channel's four
    // artifacts complete. Without the M_n edge the node is a source, so
    // the whole structure channel overlaps the name channel.
    std::vector<int32_t> aug_inputs;
    if (n.enable_augmentation) aug_inputs.push_back(v_name);
    n_aug = graph.AddNode(
        "name_augmentation", std::move(aug_inputs), {v_pseudo}, src_rows * 8,
        [&](NodeContext& ctx) -> Status {
          EntityPairList& pseudo = state.result.name_channel.pseudo_seeds;
          if (checkpoint.should_load()) {
            auto loaded = checkpoint.LoadPairs(kPseudoSeedKind);
            if (loaded.ok()) {
              pseudo = std::move(loaded).value();
              obs::MetricsRegistry::Get()
                  .GetGauge("name.pseudo_seeds")
                  .Set(static_cast<double>(pseudo.size()));
              ctx.MarkFromCheckpoint();
              return OkStatus();
            }
            if (loaded.status().code() != StatusCode::kNotFound) {
              obs::MetricsRegistry::Get()
                  .GetCounter("checkpoint.load_failures")
                  .Increment();
              LARGEEA_LOG_WARN("dag: ignoring unusable '%s' checkpoint "
                               "(%s); recomputing",
                               kPseudoSeedKind,
                               loaded.status().ToString().c_str());
            }
          }
          if (n.enable_augmentation) {
            LARGEEA_INJECT_FAULT("name.augmentation");
            pseudo = GeneratePseudoSeeds(state.result.name_channel.nff.fused,
                                         dataset.split.train,
                                         n.augmentation_margin);
            obs::MetricsRegistry::Get()
                .GetGauge("name.pseudo_seeds")
                .Set(static_cast<double>(pseudo.size()));
          }
          if (checkpoint.enabled()) {
            (void)checkpoint.SavePairs(kPseudoSeedKind, pseudo);
          }
          return OkStatus();
        });
  }

  // --- ψ' ← ψ ∪ ψ'_p. Depends on the name channel only when pseudo
  // seeds can actually be non-empty; otherwise it is a source node and
  // the structure channel launches immediately. ---
  const bool seeds_need_name =
      options.use_name_channel && n.enable_augmentation;
  const int32_t v_seeds =
      graph.AddValue("psi_prime", src_rows * 8, /*retain=*/true);
  graph.AddNode(
      "seed_augmentation",
      seeds_need_name ? std::vector<int32_t>{v_pseudo}
                      : std::vector<int32_t>{},
      {v_seeds}, src_rows * 8, [&, seeds_need_name](NodeContext&) -> Status {
        state.result.effective_seeds = dataset.split.train;
        if (seeds_need_name) {
          const EntityPairList& pseudo =
              state.result.name_channel.pseudo_seeds;
          state.result.effective_seeds.insert(
              state.result.effective_seeds.end(), pseudo.begin(),
              pseudo.end());
        }
        return OkStatus();
      });

  // --- Structure channel: partition → per-batch training → M_s. ---
  int32_t v_struct = -1;
  if (options.use_structure_channel) {
    const int32_t v_batches =
        graph.AddValue("batches", all_rows * 16, /*retain=*/true);
    v_struct = graph.AddValue(
        "M_s", SimBytes(src_rows, s.top_k), /*retain=*/false, [&state] {
          state.result.structure_channel.similarity = SparseSimMatrix();
        });
    graph.AddNode(
        "partition", {v_seeds}, {v_batches}, all_rows * 32,
        [&](NodeContext& ctx) -> Status {
          bool loaded = false;
          auto batches = PrepareStructureBatches(
              source, target, state.result.effective_seeds, s, &checkpoint,
              &state.partition_seconds, &loaded);
          if (!batches.ok()) return batches.status();
          state.batches = std::move(batches).value();
          if (loaded) ctx.MarkFromCheckpoint();
          return OkStatus();
        });
    graph.AddNode(
        "structure_train", {v_batches}, {v_struct},
        all_rows * s.train.dim * 4 * 3 + SimBytes(src_rows, s.top_k),
        [&](NodeContext& ctx) -> Status {
          auto trained = train_structure(
              source, target, std::move(state.batches), s, &checkpoint);
          if (!trained.ok()) return trained.status();
          state.result.structure_channel = std::move(trained).value();
          state.result.structure_channel.partition_seconds =
              state.partition_seconds;
          // "From checkpoint" when every trainable batch resumed.
          int32_t trainable = 0;
          for (const MiniBatch& b : state.result.structure_channel.batches) {
            if (StructureBatchTrainable(b)) ++trainable;
          }
          if (trainable > 0 &&
              state.result.structure_channel.batches_resumed == trainable) {
            ctx.MarkFromCheckpoint();
          }
          return OkStatus();
        });
  }

  // --- Fusion M = M_s + M_n, then evaluation. ---
  const int32_t v_fused = graph.AddValue(
      "M", SimBytes(src_rows, options.fused_top_k), /*retain=*/true);
  std::vector<int32_t> fusion_inputs;
  if (v_struct >= 0) fusion_inputs.push_back(v_struct);
  if (v_name >= 0) fusion_inputs.push_back(v_name);
  // Fusion moves M_n out, so it must also wait for M_n's other reader,
  // name_augmentation. With the structure channel on, M_s already orders
  // them; without it, nothing else would.
  if (v_pseudo >= 0) fusion_inputs.push_back(v_pseudo);
  graph.AddNode(
      "fusion", std::move(fusion_inputs), {v_fused},
      SimBytes(src_rows, options.fused_top_k) * 2,
      [&](NodeContext& ctx) -> Status {
        LARGEEA_INJECT_FAULT("pipeline.fusion");
        LargeEaResult& r = state.result;
        if (TryLoadMatrix(checkpoint, kFusedKind, dataset, r.fused, ctx)) {
          return OkStatus();
        }
        // Which of M_s and M_n make up M, fused or moved. The inputs are
        // consumed, and the scheduler's value release resets the
        // moved-from fields to clean empties.
        if (options.use_name_channel && options.use_structure_channel &&
            options.fuse_name_similarity) {
          r.fused = SparseSimMatrix::FuseStreamed(
              std::move(r.structure_channel.similarity),
              std::move(r.name_channel.nff.fused), options.structure_weight,
              options.name_weight, options.fused_top_k);
        } else if (options.use_structure_channel) {
          r.fused = std::move(r.structure_channel.similarity);
        } else {
          r.fused = std::move(r.name_channel.nff.fused);
        }
        if (checkpoint.enabled()) {
          (void)checkpoint.SaveMatrix(kFusedKind, r.fused);
        }
        return OkStatus();
      });
  graph.AddNode("evaluate", {v_fused}, {}, 0,
                [&](NodeContext&) -> Status {
                  LARGEEA_INJECT_FAULT("pipeline.evaluate");
                  state.result.metrics =
                      Evaluate(state.result.fused, dataset.split.test);
                  return OkStatus();
                });

  ScheduleOptions schedule;
  schedule.max_concurrency = max_concurrency;
  schedule.memory_budget_bytes =
      stream_ctx != nullptr ? stream_ctx->budget().budget_bytes() : 0;
  auto scheduled = Execute(graph, schedule);
  if (!scheduled.ok()) return scheduled.status();
  ScheduleResult& sched = scheduled.value();

  // Channel-level bookkeeping from the per-node runs (component timings
  // stay zero for resumed nodes).
  if (options.use_name_channel) {
    NameChannelResult& name = state.result.name_channel;
    const NodeRun& sem = sched.node_runs[static_cast<size_t>(n_sem)];
    const NodeRun& str = sched.node_runs[static_cast<size_t>(n_str)];
    const NodeRun& fuse = sched.node_runs[static_cast<size_t>(n_fuse)];
    const NodeRun& aug = sched.node_runs[static_cast<size_t>(n_aug)];
    name.resumed = sem.from_checkpoint && str.from_checkpoint &&
                   fuse.from_checkpoint && aug.from_checkpoint;
    if (!name.resumed) {
      name.nff.sens_seconds = sem.from_checkpoint ? 0.0 : sem.seconds;
      name.nff.stns_seconds = str.from_checkpoint ? 0.0 : str.seconds;
      name.total_seconds =
          sem.seconds + str.seconds + fuse.seconds + aug.seconds;
      for (const NodeRun* run : {&sem, &str, &fuse, &aug}) {
        name.peak_bytes = std::max(name.peak_bytes, run->peak_bytes);
      }
    }
  }
  state.result.dag_nodes.reserve(sched.node_runs.size());
  for (const NodeRun& run : sched.node_runs) {
    state.result.dag_nodes.push_back(DagNodeStats{
        run.name, run.seconds, run.peak_bytes, run.estimated_bytes,
        run.from_checkpoint, run.deferrals});
  }
  state.result.dag_critical_path_seconds = sched.critical_path_seconds;
  state.result.dag_critical_path = std::move(sched.critical_path);
  state.result.dag_deferrals = sched.total_deferrals;
  registry.GetGauge("dag.nodes.deferred")
      .Set(static_cast<double>(sched.total_deferrals));
  return std::move(state.result);
}

}  // namespace largeea::dag
