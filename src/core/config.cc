#include "src/core/config.h"

#include <cstdint>
#include <string>

#include "src/obs/log.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/par/thread_pool.h"
#include "src/sim/lsh.h"
#include "src/simd/simd.h"
#include "src/stream/stream_options.h"

namespace largeea {

void Config::Register(FlagRegistry& r) {
  // Selectors.
  r.String("model", &model, "structure model: rrea | gcn | transe");
  r.String("partition", &partition, "partition strategy: metis | vps | none");
  r.String("metric", &metric, "semantic similarity metric: manhattan | dot");

  // Channel toggles and fusion (Figure 5 ablations).
  r.Bool("use-name-channel", &pipeline.use_name_channel,
         "run the name channel (NFF + data augmentation)");
  r.Bool("use-structure-channel", &pipeline.use_structure_channel,
         "run the structure channel (mini-batch training)");
  r.Bool("fuse-name-similarity", &pipeline.fuse_name_similarity,
         "fuse M_n into the final similarity (false = 'w/o name channel')");
  r.Int32("fused-top-k", &pipeline.fused_top_k,
          "entries kept per row in the fused matrix M");
  r.Float("structure-weight", &pipeline.structure_weight,
          "weight of M_s in the fusion");
  r.Float("name-weight", &pipeline.name_weight,
          "weight of M_n in the fusion");

  // Name channel.
  NameChannelOptions& name = pipeline.name_channel;
  r.Bool("augment", &name.enable_augmentation,
         "generate pseudo seeds by mutual nearest neighbours on M_n");
  r.Float("augment-margin", &name.augmentation_margin,
          "top1-vs-top2 margin required of a pseudo seed");
  r.Float("string-weight", &name.nff.string_weight,
          "gamma — weight of string similarity in M_n");
  r.Int32("name-top-k", &name.nff.max_entries_per_row,
          "entries kept per row in the fused M_n");
  r.Int32("sens-top-k", &name.nff.sens.top_k,
          "phi — semantic candidates kept per source entity");
  r.Bool("use-idf", &name.nff.sens.use_idf,
         "IDF-weight name tokens over the two KGs");
  r.Bool("use-lsh", &name.nff.sens.use_lsh,
         "approximate LSH semantic search (auto-enabled on large graphs)");
  r.Int32("encoder-dim", &name.nff.sens.encoder.dim,
          "semantic name embedding dimensionality");
  r.Int32("lsh-tables", &name.nff.sens.lsh.num_tables, "LSH hash tables");
  r.Int32("lsh-bits", &name.nff.sens.lsh.bits_per_table,
          "hyperplane bits per LSH table");
  r.Int32("lsh-probes", &name.nff.sens.lsh.probe_radius,
          "LSH multiprobe Hamming radius");
  r.Double("jaccard-threshold", &name.nff.stns.jaccard_threshold,
           "theta — minimum estimated Jaccard for string candidates");
  r.Double("levenshtein-threshold", &name.nff.stns.levenshtein_threshold,
           "tau — minimum Levenshtein similarity kept by STNS");

  // Structure channel.
  StructureChannelOptions& structure = pipeline.structure_channel;
  r.Int32("batches", &structure.num_batches, "K — mini-batch count");
  r.Int32("overlap-degree", &structure.overlap_degree,
          "D_ov — batch overlap degree (1 = disjoint)");
  r.Int32("structure-top-k", &structure.top_k,
          "similarity candidates kept per source entity in M_s");
  r.Bool("apply-csls", &structure.apply_csls,
         "apply CSLS hubness correction to M_s");
  r.Uint64("seed", &structure.seed, "structure channel RNG seed");
  r.Int32("max-batch-retries", &structure.max_batch_retries,
          "per-batch retraining attempts before giving up");
  r.Bool("drop-failed-batches", &structure.drop_failed_batches,
         "degrade (skip batch) instead of failing the run");
  r.Int32("epochs", &structure.train.epochs, "training epochs per batch");
  r.Int32("dim", &structure.train.dim, "entity embedding dimensionality");
  r.Float("learning-rate", &structure.train.learning_rate,
          "optimiser step size");
  r.Float("train-margin", &structure.train.margin,
          "margin of the hinge ranking loss");
  r.Int32("negatives", &structure.train.negatives_per_seed,
          "negative samples per seed pair");
  r.Uint64("train-seed", &structure.train.seed, "training RNG seed");

  // Fault tolerance.
  r.String("checkpoint-dir", &pipeline.fault_tolerance.checkpoint_dir,
           "directory for phase checkpoints (empty = disabled)");
  r.Bool("resume", &pipeline.fault_tolerance.resume,
         "restore completed phases from --checkpoint-dir");

  // Multi-process sharding (DESIGN.md §12).
  r.Int32("shards", &shards,
          "run the structure channel across this many supervised worker "
          "processes (0 = single-process; requires --checkpoint-dir)");
  r.Int32("shard-worker", &shard_worker,
          "run as shard worker with this index (internal; spawned by the "
          "orchestrator, -1 = not a worker)");
  r.Int32("shard-max-retries", &shard_max_retries,
          "respawns allowed per shard after its first attempt fails");
  r.Int32("shard-backoff-ms", &shard_backoff_ms,
          "base of the exponential respawn backoff");
  r.Int32("shard-heartbeat-ms", &shard_heartbeat_ms,
          "interval workers rewrite their heartbeat file at");
  r.Int32("shard-heartbeat-timeout-ms", &shard_heartbeat_timeout_ms,
          "SIGKILL a worker whose heartbeat does not change for this long "
          "(0 disables hang detection)");
  r.Int32("shard-deadline-s", &shard_deadline_s,
          "hard wall-clock deadline per worker attempt (0 disables)");
  r.Bool("shard-degrade", &shard_degrade,
         "degrade a shard that exhausts its retries to name-channel-only "
         "fusion instead of failing the run");
  r.String("shard-heartbeat-file", &shard_heartbeat_file,
           "heartbeat file this worker rewrites (internal)");

  // Memory-budgeted streaming (DESIGN.md §10).
  r.Int64("memory-budget-mb", &pipeline.stream.memory_budget_mb,
          "stream whole-graph phases under this tracked-memory budget "
          "(MiB; 0 disables, unset defers to LARGEEA_MEMORY_BUDGET_MB)");
  r.Int32("stream-tile-rows", &pipeline.stream.tile_rows,
          "rows per spilled or searched chunk (0 = sized from the budget)");
  r.String("stream-dir", &pipeline.stream.spill_dir,
           "spill directory (empty = the system temp dir)");

  // Runtime and I/O.
  r.Int64("threads", &threads,
          "worker pool size (0 = LARGEEA_THREADS env or hardware)");
  r.String("simd", &simd,
           "kernel backend: auto | avx2 | sse2 | scalar (empty = "
           "LARGEEA_SIMD env or best available)");
  r.String("log-level", &log_level, "debug | info | warn | error | off");
  r.Bool("strict-io", &strict_io,
         "reject malformed input lines instead of skipping them");
  r.String("trace-out", &trace_out, "write a chrome://tracing timeline here");
  r.String("report-out", &report_out, "write the JSON run report here");
  r.String("out", &out, "write predicted alignment pairs here");
  r.Bool("profile", &profile,
         "per-kernel timing, bytes/flops, and pool utilization accounting "
         "(adds a `profile` report section and trace counter tracks)");
}

Status Config::Validate() {
  if (model == "rrea") {
    pipeline.structure_channel.model = ModelKind::kRrea;
  } else if (model == "gcn") {
    pipeline.structure_channel.model = ModelKind::kGcnAlign;
  } else if (model == "transe") {
    pipeline.structure_channel.model = ModelKind::kTransE;
  } else {
    return InvalidArgumentError("--model must be rrea, gcn, or transe; got " +
                                model);
  }
  if (partition == "metis") {
    pipeline.structure_channel.strategy = PartitionStrategy::kMetisCps;
  } else if (partition == "vps") {
    pipeline.structure_channel.strategy = PartitionStrategy::kVps;
  } else if (partition == "none") {
    pipeline.structure_channel.strategy = PartitionStrategy::kNone;
  } else {
    return InvalidArgumentError(
        "--partition must be metis, vps, or none; got " + partition);
  }
  if (metric == "manhattan") {
    pipeline.name_channel.nff.sens.metric = SimMetric::kManhattan;
  } else if (metric == "dot") {
    pipeline.name_channel.nff.sens.metric = SimMetric::kDot;
  } else {
    return InvalidArgumentError("--metric must be manhattan or dot; got " +
                                metric);
  }
  if (!log_level.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(log_level, &level)) {
      return InvalidArgumentError(
          "--log-level must be debug, info, warn, error, or off; got " +
          log_level);
    }
  }
  if (!simd.empty()) {
    simd::Backend backend;
    if (!simd::ParseBackend(simd, &backend)) {
      return InvalidArgumentError(
          "--simd must be auto, avx2, sse2, or scalar; got " + simd);
    }
  }
  if (threads < 0) {
    return InvalidArgumentError("--threads must be >= 0");
  }
  // Sizes the pipeline would otherwise crash on, or silently read as a
  // different value (a hinge loss with no negatives has no gradient, so
  // --negatives 0 trained nothing). --lsh-bits is bounded by the index's
  // flat 2^bits offset tables.
  const NameChannelOptions& name = pipeline.name_channel;
  const StructureChannelOptions& structure = pipeline.structure_channel;
  const struct {
    const char* flag;
    int64_t value;
    int64_t min;
    int64_t max;
  } sizes[] = {
      {"sens-top-k", name.nff.sens.top_k, 1, INT32_MAX},
      {"encoder-dim", name.nff.sens.encoder.dim, 1, INT32_MAX},
      {"lsh-tables", name.nff.sens.lsh.num_tables, 1, INT32_MAX},
      {"lsh-bits", name.nff.sens.lsh.bits_per_table, 1, kMaxLshBits},
      {"lsh-probes", name.nff.sens.lsh.probe_radius, 0, kMaxLshProbeRadius},
      {"batches", structure.num_batches, 1, INT32_MAX},
      {"overlap-degree", structure.overlap_degree, 1, INT32_MAX},
      {"structure-top-k", structure.top_k, 1, INT32_MAX},
      {"max-batch-retries", structure.max_batch_retries, 0, INT32_MAX},
      {"epochs", structure.train.epochs, 0, INT32_MAX},
      {"dim", structure.train.dim, 1, INT32_MAX},
      {"negatives", structure.train.negatives_per_seed, 1, INT32_MAX},
      {"stream-tile-rows", pipeline.stream.tile_rows, 0, INT32_MAX},
  };
  for (const auto& size : sizes) {
    if (size.value < size.min || size.value > size.max) {
      return InvalidArgumentError(
          "--" + std::string(size.flag) + " must be in [" +
          std::to_string(size.min) + ", " + std::to_string(size.max) +
          "]; got " + std::to_string(size.value));
    }
  }
  if (pipeline.stream.memory_budget_mb < -1) {
    return InvalidArgumentError(
        "--memory-budget-mb must be >= 0 (or unset)");
  }
  if (pipeline.stream.memory_budget_mb > stream::kMaxMemoryBudgetMb) {
    return InvalidArgumentError(
        "--memory-budget-mb must be <= " +
        std::to_string(stream::kMaxMemoryBudgetMb) +
        " (the budget in bytes must fit in 64 bits)");
  }
  if (pipeline.fault_tolerance.resume &&
      pipeline.fault_tolerance.checkpoint_dir.empty()) {
    return InvalidArgumentError("--resume requires --checkpoint-dir");
  }
  if (shards < 0) {
    return InvalidArgumentError("--shards must be >= 0");
  }
  if (shards > 0 && pipeline.fault_tolerance.checkpoint_dir.empty()) {
    return InvalidArgumentError("--shards requires --checkpoint-dir (the "
                                "workers hand their trained blocks to the "
                                "merge through it)");
  }
  if (shard_worker >= 0) {
    if (pipeline.fault_tolerance.checkpoint_dir.empty()) {
      return InvalidArgumentError("--shard-worker requires --checkpoint-dir");
    }
    if (shards < 1 || shard_worker >= shards) {
      return InvalidArgumentError(
          "--shard-worker " + std::to_string(shard_worker) +
          " out of range for --shards " + std::to_string(shards));
    }
  }
  if (!pipeline.use_name_channel && !pipeline.use_structure_channel) {
    return InvalidArgumentError(
        "at least one of --use-name-channel / --use-structure-channel "
        "must stay enabled");
  }
  return OkStatus();
}

Status Config::ApplyRuntime() const {
  if (!log_level.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(log_level, &level)) {
      return InvalidArgumentError("unknown --log-level " + log_level);
    }
    obs::SetLogLevel(level);
  }
  if (threads > 0) {
    par::ThreadPool::Get().SetNumThreads(static_cast<int32_t>(threads));
  }
  if (!simd.empty()) {
    simd::Backend backend;
    if (!simd::ParseBackend(simd, &backend)) {
      return InvalidArgumentError("unknown --simd backend " + simd);
    }
    if (!simd::BackendAvailable(backend)) {
      std::string available;
      for (const simd::Backend b : simd::AvailableBackends()) {
        if (!available.empty()) available += ", ";
        available += simd::BackendName(b);
      }
      return InvalidArgumentError("--simd " + simd +
                                  " is not supported by this CPU "
                                  "(available: " +
                                  available + ")");
    }
    simd::SetBackend(backend);
  }
  if (profile) {
    obs::Profiler::Get().Enable();
  }
  return OkStatus();
}

void Config::WriteTo(obs::RunReport& report) const {
  // Register() binds mutable field pointers, so snapshot through a copy;
  // the values written are exactly what a re-parse would produce.
  Config copy = *this;
  FlagRegistry registry;
  copy.Register(registry);
  for (const auto& [name, value] : registry.Values()) {
    report.AddConfig(name, value);
  }
}

StatusOr<Config> ConfigFromFlags(const Flags& flags) {
  Config config;
  FlagRegistry registry;
  config.Register(registry);
  Status applied = registry.ApplyFrom(flags);
  if (!applied.ok()) return applied;
  Status valid = config.Validate();
  if (!valid.ok()) return valid;
  return config;
}

std::string ConfigHelp() {
  Config config;
  FlagRegistry registry;
  config.Register(registry);
  return registry.HelpText();
}

}  // namespace largeea
