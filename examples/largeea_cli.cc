// largeea_cli — command-line front end for the library.
//
//   largeea_cli generate    --tier ids15k|ids100k|dbp1m --pair enfr|ende
//                           [--scale 1.0] --out_dir DIR
//       writes source.tsv / target.tsv / train.tsv / test.tsv
//
//   largeea_cli run         --source A.tsv --target B.tsv --seeds S.tsv
//                           [--test T.tsv] [any Config flag, see --help]
//       runs LargeEA end to end, optionally evaluates and/or writes
//       predictions. Every pipeline/runtime knob is a largeea::Config
//       flag (src/core/config.h) — `largeea_cli --help` lists them all
//       with defaults. Highlights: --model rrea|gcn|transe, --batches,
//       --epochs, --memory-budget-mb (stream whole-graph phases under a
//       tracked-memory budget, DESIGN.md §10), --checkpoint-dir /
//       --resume (DESIGN.md "Failure model"), --trace-out /
//       --report-out (DESIGN.md "Observability"), --threads / --simd
//       (bit-identical results either way, DESIGN.md "Execution
//       model" / "SIMD kernels"), --strict-io.
//
//   largeea_cli index-build --source A.tsv --target B.tsv [--seeds S.tsv]
//                           --index-out INDEX [any Config flag]
//       runs the pipeline, then packs the fused matrix, name tables,
//       target-name embeddings + HNSW graph, and MinHash/LSH structures
//       into one checksummed serve-index artifact (DESIGN.md §15).
//       --trace-out / --report-out / --profile work as for `run`, and
//       also cover the index build.
//
//   largeea_cli serve       --index INDEX [--serve-batch N] [--k K]
//                           [--expect-fingerprint HEX]
//       answers alignment queries over stdin/stdout (line-delimited
//       JSON, see src/serve/serve_loop.h). SIGTERM/SIGINT drain
//       in-flight queries, flush the run report (with a `serve`
//       section), and exit 128+signal.
//
//   largeea_cli query       --index INDEX (--entity ID | --name STR)
//                           [--k K] [--exact]
//       one-shot query against an index artifact; prints the same JSON
//       response line the serve protocol emits.
//
//   largeea_cli partition   --source A.tsv --target B.tsv --seeds S.tsv
//                           [--batches K]
//       reports METIS-CPS vs VPS partition quality
//
// Every command accepts the Config flags plus the ones shown with it;
// any other flag (a typo, or a flag that no longer exists) exits 2 and
// names the flag.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/common/flags.h"
#include "src/core/config.h"
#include "src/core/large_ea.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/kg_io.h"
#include "src/obs/json_writer.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/obs/trace_merge.h"
#include "src/partition/metis_cps.h"
#include "src/partition/vps.h"
#include "src/rt/artifact.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/serve_loop.h"
#include "src/shard/orchestrator.h"
#include "src/shard/worker.h"
#include "src/simd/simd.h"

using namespace largeea;

namespace {

#if defined(__GLIBC__)
// glibc's default mmap threshold: blocks this large or larger get a
// mapping of their own, returned to the system when freed.
constexpr int kMmapThresholdBytes = 128 * 1024;
#endif

int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

// Graceful SIGTERM/SIGINT: the async-signal handler only records the
// signal; a watcher thread does the non-reentrant work — flushing the
// run report (with an `interrupted` marker), the Chrome trace, and the
// metrics snapshot the report carries — then exits with the shell
// convention 128+signal (143 for SIGTERM, 130 for SIGINT). A second
// signal while flushing is ignored; the orchestrator escalates to
// SIGKILL for workers that truly stop responding.
std::atomic<int> g_shutdown_signal{0};

void OnShutdownSignal(int sig) {
  g_shutdown_signal.store(sig, std::memory_order_relaxed);
}

void StartShutdownWatcher(const Config& config_in, const char* tool) {
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  std::thread([config = config_in, tool]() {
    int sig;
    while ((sig = g_shutdown_signal.load(std::memory_order_relaxed)) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    const char* name = sig == SIGTERM ? "SIGTERM" : "SIGINT";
    std::fprintf(stderr, "largeea_cli: caught %s, flushing outputs\n", name);
    if (!config.report_out.empty()) {
      obs::RunReport report;
      report.SetTool(tool);
      config.WriteTo(report);
      report.AddConfig("interrupted", name);
      report.IngestTraceTotals();
      (void)report.WriteJson(config.report_out);
    }
    if (!config.trace_out.empty()) {
      (void)obs::TraceRecorder::Get().WriteChromeTrace(config.trace_out);
    }
    std::_Exit(128 + sig);
  }).detach();
}

// The command line to re-invoke this binary as a shard worker: the real
// executable (argv[0] may be PATH-relative and the worker inherits a
// different cwd-independent spawn) plus the user's original arguments.
// The orchestrator appends its per-worker overrides after these; the
// flag parser is last-wins.
std::vector<std::string> WorkerCommand(int argc, char** argv) {
  std::vector<std::string> cmd;
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  cmd.push_back(ec ? std::string(argv[0]) : self.string());
  for (int i = 1; i < argc; ++i) cmd.emplace_back(argv[i]);
  return cmd;
}

EaDataset LoadDatasetOrDie(const Flags& flags, bool need_seeds,
                           bool strict_io) {
  if (need_seeds && flags.GetString("seeds", "").empty()) {
    std::fprintf(stderr, "error: --seeds is required\n");
    std::exit(1);
  }
  EaDatasetPaths paths;
  paths.source_triples = flags.GetString("source", "");
  paths.target_triples = flags.GetString("target", "");
  paths.train_pairs = flags.GetString("seeds", "");
  paths.test_pairs = flags.GetString("test", "");
  TsvReadOptions io;
  io.strict = strict_io;
  auto dataset = LoadEaDataset(paths, io, "cli");
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(dataset).value();
}

// Large graphs default to the approximate LSH path (the DBP1M-tier
// setting); an explicit --use-lsh in either direction wins. `run` and
// `index-build` both apply this one rule: the decision enters the config
// fingerprint, so an artifact's stamped fingerprint matches the one an
// equivalent `run` reports.
void ApplyAutoLsh(const Flags& flags, const EaDataset& dataset,
                  Config& config) {
  constexpr int32_t kAutoLshEntities = 8000;
  if (!flags.Has("use-lsh") &&
      std::max(dataset.source.num_entities(),
               dataset.target.num_entities()) > kAutoLshEntities) {
    config.pipeline.name_channel.nff.sens.use_lsh = true;
  }
}

int CmdGenerate(const Flags& flags) {
  const std::string tier = flags.GetString("tier", "ids15k");
  const LanguagePair pair = flags.GetString("pair", "enfr") == "ende"
                                ? LanguagePair::kEnDe
                                : LanguagePair::kEnFr;
  const double scale = flags.GetDouble("scale", 1.0);
  BenchmarkSpec spec;
  if (tier == "ids15k") {
    spec = Ids15kSpec(pair, scale);
  } else if (tier == "ids100k") {
    spec = Ids100kSpec(pair, scale);
  } else if (tier == "dbp1m") {
    spec = Dbp1mSpec(pair, scale);
  } else {
    return Fail("--tier must be ids15k, ids100k, or dbp1m");
  }
  const std::string dir = flags.GetString("out_dir", "");
  if (dir.empty()) return Fail("--out_dir is required");

  const EaDataset dataset = GenerateBenchmark(spec);
  if (!SaveTriples(dataset.source, dir + "/source.tsv").ok() ||
      !SaveTriples(dataset.target, dir + "/target.tsv").ok() ||
      !SaveAlignment(dataset.split.train, dataset.source, dataset.target,
                     dir + "/train.tsv")
           .ok() ||
      !SaveAlignment(dataset.split.test, dataset.source, dataset.target,
                     dir + "/test.tsv")
           .ok()) {
    return Fail("failed to write output files (does --out_dir exist?)");
  }
  std::printf("%s: wrote %d+%d entities, %ld+%ld triples, %zu/%zu pairs\n",
              dataset.name.c_str(), dataset.source.num_entities(),
              dataset.target.num_entities(),
              static_cast<long>(dataset.source.num_triples()),
              static_cast<long>(dataset.target.num_triples()),
              dataset.split.train.size(), dataset.split.test.size());
  return 0;
}

// Prints the per-node wall-time/memory table and mirrors the same rows
// into `report`, so the printed table and the JSON report can never
// disagree: both are the scheduler's node table,
// LargeEaResult::schedule, filled from the nodes' "dag/<name>" spans.
void ReportPhases(const LargeEaResult& result, obs::RunReport& report) {
  const dag::ScheduleResult& schedule = result.schedule;
  std::printf("%-22s %10s %12s\n", "Phase", "Time(s)", "PeakMem");
  // Per-operator wall time and tracked peak, plus the measured critical
  // path — the wall-clock floor at infinite concurrency.
  for (const dag::NodeRun& node : schedule.node_runs) {
    char mem[32];
    std::snprintf(mem, sizeof(mem), "%.1fMB",
                  static_cast<double>(node.peak_bytes) / (1 << 20));
    const std::string name = "dag/" + node.name;
    std::printf("%-22s %10.3f %12s%s\n", name.c_str(), node.seconds, mem,
                node.from_checkpoint ? "  (checkpoint)" : "");
    report.AddPhase(name, node.seconds, node.peak_bytes);
  }
  if (!schedule.critical_path.empty()) {
    std::string path;
    for (const std::string& name : schedule.critical_path) {
      if (!path.empty()) path += " -> ";
      path += name;
    }
    std::printf("%-22s %10.3f              %s\n", "dag/critical_path",
                schedule.critical_path_seconds, path.c_str());
    report.AddPhase("dag/critical_path", schedule.critical_path_seconds,
                    -1);
  }
  // The tracked peak beside the process's resident one: how much of the
  // resident peak the MemoryTracker explains.
  const int64_t peak_rss_bytes = obs::PeakResidentBytes();
  std::printf("%-22s %10.3f %12.1fMB", "total", result.total_seconds,
              static_cast<double>(result.peak_bytes) / (1 << 20));
  if (peak_rss_bytes >= 0) {
    std::printf("  resident %.1fMB",
                static_cast<double>(peak_rss_bytes) / (1 << 20));
  }
  std::printf("\n");
  report.SetTotal(result.total_seconds, result.peak_bytes, peak_rss_bytes);
}

// Prints the --profile summary: the per-kernel roofline columns and the
// pool utilization/imbalance aggregates. The same numbers land in the
// report's `profile` section (RunReport::ToJson splices them there), so
// this table is just the human-readable view.
void PrintProfileSummary() {
  const obs::Profiler& profiler = obs::Profiler::Get();
  std::printf("\n%-24s %8s %10s %10s %10s %8s\n", "Kernel", "Calls",
              "Time(s)", "GB/s", "Flop/B", "MB");
  for (const obs::KernelProfile& k : profiler.KernelTotals()) {
    std::printf("%-24s %8ld %10.4f %10.2f %10.2f %8.1f\n", k.kernel.c_str(),
                static_cast<long>(k.calls), k.seconds, k.GBPerSec(),
                k.ArithmeticIntensity(), k.TotalBytes() / (1 << 20));
  }
  std::printf("%-24s %8s %10s %10s %10s\n", "Pool (by kernel)", "Jobs",
              "Busy(s)", "Util", "Imbal");
  for (const obs::PoolKernelTotal& t : profiler.PoolTotals()) {
    std::printf("%-24s %8ld %10.4f %10.2f %10.2f\n",
                t.kernel.empty() ? "(unattributed)" : t.kernel.c_str(),
                static_cast<long>(t.jobs), t.busy_seconds, t.Utilization(),
                t.Imbalance());
  }
}

// Starts recording spans when --trace-out asks for a timeline.
void StartTracing(const Config& config) {
  if (!config.trace_out.empty()) {
    obs::TraceRecorder::Get().Clear();
    obs::TraceRecorder::Get().Enable();
  }
}

// The outputs every pipeline command shares: prints the phase table
// (and the --profile summary), then writes --trace-out and --report-out.
// The report holds the dataset, the effective configuration, the node
// table, the evaluation and the span totals so far. A
// sharded run merges the orchestrator's own timeline with every worker
// trace in `worker_traces` into one multi-process document; pid 1 stays
// the orchestrator, workers get pids 2..N+1. Returns 0, or 1 after a
// failed write.
int WritePipelineOutputs(const char* tool, const EaDataset& dataset,
                         const Config& config, const LargeEaResult& result,
                         const std::vector<std::string>& worker_traces) {
  obs::RunReport report;
  report.SetTool(tool);
  report.SetDataset(dataset.name, dataset.source.num_entities(),
                    dataset.target.num_entities(),
                    dataset.source.num_triples(),
                    dataset.target.num_triples(),
                    static_cast<int64_t>(dataset.split.train.size()),
                    static_cast<int64_t>(dataset.split.test.size()));
  // The full effective configuration — every Config flag, including the
  // auto-LSH decision — plus the backend actually dispatched.
  config.WriteTo(report);
  report.AddConfig("simd.active", simd::BackendName(simd::ActiveBackend()));
  ReportPhases(result, report);
  if (result.metrics.num_test_pairs > 0) report.SetEval(result.metrics);
  report.IngestTraceTotals();
  if (config.profile) PrintProfileSummary();

  if (!config.trace_out.empty()) {
    std::string trace = obs::TraceRecorder::Get().ToChromeTraceJson();
    if (!worker_traces.empty()) {
      std::vector<obs::TraceProcess> processes;
      processes.push_back(obs::TraceProcess{"orchestrator", 1,
                                            std::move(trace)});
      int32_t pid = 2;
      for (const std::string& path : worker_traces) {
        auto json = rt::ReadFileToString(path);
        // "worker-3-trace.json" -> track label "worker-3".
        std::string label = std::filesystem::path(path).stem().string();
        if (const size_t pos = label.rfind("-trace"); pos != std::string::npos) {
          label.resize(pos);
        }
        processes.push_back(obs::TraceProcess{
            std::move(label), pid++,
            json.ok() ? std::move(json).value() : std::string()});
      }
      trace = obs::MergeChromeTraces(processes);
    }
    if (!obs::WriteStringToFile(config.trace_out, trace)) {
      return Fail("failed to write --trace-out");
    }
    std::printf("wrote trace to %s\n", config.trace_out.c_str());
  }
  if (!config.report_out.empty()) {
    if (!report.WriteJson(config.report_out)) {
      return Fail("failed to write --report-out");
    }
    std::printf("wrote run report to %s\n", config.report_out.c_str());
  }
  return 0;
}

int CmdRun(const Flags& flags, Config config, int argc, char** argv) {
  StartTracing(config);
  StartShutdownWatcher(config, "largeea_cli run");

  const EaDataset dataset =
      LoadDatasetOrDie(flags, /*need_seeds=*/false, config.strict_io);
  // Before the shard-worker branch on purpose: orchestrator and workers
  // see the same dataset and flags, so they land on the same
  // fingerprint.
  ApplyAutoLsh(flags, dataset, config);
  const LargeEaOptions& options = config.pipeline;

  if (config.shard_worker >= 0) {
    shard::ShardWorkerOptions worker;
    worker.shard_index = config.shard_worker;
    worker.shard_count = config.shards;
    worker.heartbeat_file = config.shard_heartbeat_file;
    worker.heartbeat_interval_ms = config.shard_heartbeat_ms;
    const Status status = shard::RunShardWorker(dataset, options, worker);
    if (!config.trace_out.empty()) {
      (void)obs::TraceRecorder::Get().WriteChromeTrace(config.trace_out);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  LARGEEA_LOG_INFO("run: %d+%d entities, model=%s, batches=%d, epochs=%d",
                   dataset.source.num_entities(),
                   dataset.target.num_entities(), config.model.c_str(),
                   options.structure_channel.num_batches,
                   options.structure_channel.train.epochs);

  shard::ShardRunStats shard_stats;
  StatusOr<LargeEaResult> run = [&]() {
    if (config.shards <= 0) return RunLargeEa(dataset, options);
    shard::ShardOptions sharding;
    sharding.num_shards = config.shards;
    sharding.max_shard_retries = config.shard_max_retries;
    sharding.retry_backoff_ms = config.shard_backoff_ms;
    sharding.heartbeat_interval_ms = config.shard_heartbeat_ms;
    sharding.heartbeat_timeout_ms = config.shard_heartbeat_timeout_ms;
    sharding.shard_deadline_s = config.shard_deadline_s;
    sharding.degrade_failed_shards = config.shard_degrade;
    sharding.capture_worker_traces = !config.trace_out.empty();
    sharding.worker_command = WorkerCommand(argc, argv);
    return shard::RunShardedLargeEa(dataset, options, sharding,
                                    &shard_stats);
  }();
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    if (!options.fault_tolerance.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "hint: re-run with --resume to pick up from the last "
                   "completed phase in %s\n",
                   options.fault_tolerance.checkpoint_dir.c_str());
    }
    return 1;
  }
  const LargeEaResult& result = *run;
  std::printf("pseudo seeds: %zu; effective seeds: %zu\n",
              result.pseudo_seeds.size(), result.effective_seeds.size());
  if (result.batches_resumed > 0 || result.batches_dropped > 0) {
    std::printf("batches resumed: %d; retried: %d; dropped: %d\n",
                result.batches_resumed, result.batches_retried,
                result.batches_dropped);
  }
  if (config.shards > 0) {
    std::printf(
        "shards: %d workers launched, %d retried, %d degraded, %d resumed\n",
        shard_stats.workers_launched, shard_stats.workers_retried,
        shard_stats.shards_degraded, shard_stats.shards_resumed);
  }
  if (result.metrics.num_test_pairs > 0) {
    std::printf("H@1 %.2f%%  H@5 %.2f%%  MRR %.4f  (%ld test pairs)\n",
                100 * result.metrics.hits_at_1,
                100 * result.metrics.hits_at_5, result.metrics.mrr,
                static_cast<long>(result.metrics.num_test_pairs));
  }

  if (const int failed =
          WritePipelineOutputs("largeea_cli run", dataset, config, result,
                               shard_stats.worker_trace_files)) {
    return failed;
  }

  const std::string& out = config.out;
  if (!out.empty()) {
    EntityPairList predictions;
    for (int32_t s = 0; s < result.fused.num_rows(); ++s) {
      const EntityId t = result.fused.ArgmaxOfRow(s);
      if (t != kInvalidEntity) predictions.push_back(EntityPair{s, t});
    }
    if (!SaveAlignment(predictions, dataset.source, dataset.target, out)
             .ok()) {
      return Fail("failed to write --out");
    }
    std::printf("wrote %zu predictions to %s\n", predictions.size(),
                out.c_str());
  }
  return 0;
}

// Serve-index options derived from the effective pipeline config: the
// encoder/metric MUST be the pipeline's own (they define the embedding
// space the stored target vectors live in); the HNSW shape is a
// serve-side choice bound to binary-local flags.
serve::ServeIndexOptions ServeOptionsFrom(const Config& config,
                                          const Flags& flags) {
  serve::ServeIndexOptions options;
  options.encoder = config.pipeline.name_channel.nff.sens.encoder;
  options.metric = config.pipeline.name_channel.nff.sens.metric;
  options.hnsw.max_neighbors =
      static_cast<int32_t>(flags.GetInt("hnsw-neighbors", 12));
  options.hnsw.ef_construction =
      static_cast<int32_t>(flags.GetInt("ef-construction", 80));
  options.hnsw.ef_search = static_cast<int32_t>(flags.GetInt("ef-search", 64));
  return options;
}

// --expect-fingerprint=<1-16 hex digits> -> value, absent -> nullopt;
// any other value (empty, too long, trailing bytes) exits 2.
std::optional<uint64_t> ExpectedFingerprint(const Flags& flags) {
  if (!flags.Has("expect-fingerprint")) return std::nullopt;
  const std::string hex = flags.GetString("expect-fingerprint", "");
  const std::optional<uint64_t> value = rt::ParseHex64(hex);
  if (!value) {
    std::fprintf(stderr,
                 "error: --expect-fingerprint must be 1 to 16 hex digits, "
                 "got '%s'\n",
                 hex.c_str());
    std::exit(2);
  }
  return value;
}

int CmdIndexBuild(const Flags& flags, Config config) {
  const std::string out = flags.GetString("index-out", "");
  if (out.empty()) return Fail("--index-out is required");
  StartTracing(config);
  StartShutdownWatcher(config, "largeea_cli index-build");

  const EaDataset dataset =
      LoadDatasetOrDie(flags, /*need_seeds=*/false, config.strict_io);
  ApplyAutoLsh(flags, dataset, config);

  auto run = RunLargeEa(dataset, config.pipeline);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const PipelineFingerprints fingerprints =
      ComputePipelineFingerprints(dataset, config.pipeline);

  std::vector<std::string> source_names, target_names;
  source_names.reserve(dataset.source.num_entities());
  for (int32_t e = 0; e < dataset.source.num_entities(); ++e) {
    source_names.push_back(dataset.source.EntityName(e));
  }
  target_names.reserve(dataset.target.num_entities());
  for (int32_t e = 0; e < dataset.target.num_entities(); ++e) {
    target_names.push_back(dataset.target.EntityName(e));
  }

  auto index = serve::ServeIndex::Build(
      run->fused, std::move(source_names), std::move(target_names),
      fingerprints.fused, ServeOptionsFrom(config, flags));
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  const Status saved = (*index)->Save(out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote serve index to %s: %ld+%ld entities, fingerprint %016" PRIx64
      ", %.1fMB image\n",
      out.c_str(), static_cast<long>((*index)->num_source_entities()),
      static_cast<long>((*index)->num_target_entities()),
      fingerprints.fused,
      static_cast<double>((*index)->MemoryBytes()) / (1 << 20));
  // After the save, so the report and the trace hold the index build's
  // own spans (serve/index_build, hnsw/build) next to the pipeline's.
  return WritePipelineOutputs("largeea_cli index-build", dataset, config,
                              *run, {});
}

int CmdServe(const Flags& flags, const Config& config) {
  const std::string path = flags.GetString("index", "");
  if (path.empty()) return Fail("--index is required");

  // Signals must wake the blocking stdin read: sigaction WITHOUT
  // SA_RESTART, so read(2) fails with EINTR, getline() sees a failed
  // stream, and the loop falls into its drain path (std::signal on
  // glibc sets SA_RESTART, which would sleep until the next request).
  struct sigaction action = {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  if (!config.trace_out.empty()) {
    obs::TraceRecorder::Get().Clear();
    obs::TraceRecorder::Get().Enable();
  }

  serve::IndexManager manager;
  const auto load_start = std::chrono::steady_clock::now();
  const Status loaded = manager.LoadAndSwap(path, ExpectedFingerprint(flags));
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.ToString().c_str());
    return 1;
  }
  const double load_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  load_start)
                                  .count();
  {
    // Scoped: a snapshot held here would keep the first version mapped
    // across every swap.
    const auto index = manager.Current();
    std::fprintf(stderr,
                 "largeea_cli serve: index %016" PRIx64
                 " (%ld targets, %.1fMB image) loaded in %.3f s, ready on "
                 "stdin\n",
                 index->fingerprint(),
                 static_cast<long>(index->num_target_entities()),
                 static_cast<double>(index->MemoryBytes()) / (1 << 20),
                 load_seconds);
  }

  serve::ServeLoopOptions loop_options;
  loop_options.batch_size =
      static_cast<int32_t>(flags.GetInt("serve-batch", 64));
  loop_options.default_k = static_cast<int32_t>(flags.GetInt("k", 10));
  serve::ServeLoop loop(&manager, loop_options);

  const auto start = std::chrono::steady_clock::now();
  const serve::ServeLoopStats stats =
      loop.Run(std::cin, std::cout, &g_shutdown_signal);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  if (!config.report_out.empty()) {
    obs::RunReport report;
    report.SetTool("largeea_cli serve");
    config.WriteTo(report);
    report.AddConfig("index", path);
    auto& histogram =
        obs::MetricsRegistry::Get().GetHistogram("serve.query_us");
    obs::RunReport::ServeStats serve_stats;
    serve_stats.queries = stats.queries;
    serve_stats.failed = stats.failed;
    serve_stats.version_swaps = stats.swaps;
    serve_stats.batches = stats.batches;
    serve_stats.p50_us = histogram.Percentile(0.5);
    serve_stats.p99_us = histogram.Percentile(0.99);
    serve_stats.p999_us = histogram.Percentile(0.999);
    report.SetServe(serve_stats);
    report.SetTotal(seconds, -1);
    report.IngestTraceTotals();
    if (!report.WriteJson(config.report_out)) {
      return Fail("failed to write --report-out");
    }
  }
  if (!config.trace_out.empty()) {
    (void)obs::TraceRecorder::Get().WriteChromeTrace(config.trace_out);
  }

  const int sig = g_shutdown_signal.load(std::memory_order_relaxed);
  if (stats.saw_stop && sig != 0) {
    std::fprintf(stderr,
                 "largeea_cli serve: caught %s, drained %ld in-flight "
                 "queries, exiting\n",
                 sig == SIGTERM ? "SIGTERM" : "SIGINT",
                 static_cast<long>(stats.queries));
    return 128 + sig;
  }
  return 0;
}

int CmdQuery(const Flags& flags, const Config& config) {
  const std::string path = flags.GetString("index", "");
  if (path.empty()) return Fail("--index is required");
  const bool has_entity = flags.Has("entity");
  const bool has_name = flags.Has("name");
  if (has_entity == has_name) {
    return Fail("exactly one of --entity or --name is required");
  }

  serve::IndexManager manager;
  const Status loaded = manager.LoadAndSwap(path, ExpectedFingerprint(flags));
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.ToString().c_str());
    return 1;
  }

  // One request through the same protocol path the serve loop uses, so
  // `query` output is byte-identical to a served response.
  obs::JsonWriter request;
  request.BeginObject().Key("op").String("query");
  if (has_entity) {
    request.Key("entity").Int(flags.GetInt("entity", 0));
  } else {
    request.Key("name").String(flags.GetString("name", ""));
  }
  request.Key("k").Int(flags.GetInt("k", 10));
  if (flags.GetBool("exact", false)) request.Key("exact").Bool(true);
  request.EndObject();

  std::istringstream in(request.str() + "\n");
  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
  const serve::ServeLoopStats stats = loop.Run(in, std::cout);
  return stats.failed == 0 ? 0 : 1;
}

int CmdPartition(const Flags& flags, const Config& config) {
  const EaDataset dataset =
      LoadDatasetOrDie(flags, /*need_seeds=*/true, config.strict_io);
  const auto k = static_cast<int32_t>(flags.GetInt("batches", 5));
  const int32_t ns = dataset.source.num_entities();
  const int32_t nt = dataset.target.num_entities();

  MetisCpsOptions cps;
  cps.num_batches = k;
  MetisCpsReport report;
  auto cps_result = MetisCpsPartition(dataset.source, dataset.target,
                                      dataset.split.train, cps, &report);
  if (!cps_result.ok()) {
    return Fail(cps_result.status().ToString().c_str());
  }
  const MiniBatchSet cps_batches = std::move(cps_result).value();
  VpsOptions vps;
  vps.num_batches = k;
  const MiniBatchSet vps_batches = VpsPartition(
      dataset.source, dataset.target, dataset.split.train, vps);

  std::printf("METIS-CPS: seed retention %.1f%%, edge-cut rate %.1f%%/%.1f%%\n",
              100 * SameBatchFraction(cps_batches, dataset.split.train, ns,
                                      nt),
              100 * report.source_edge_cut_rate,
              100 * report.target_edge_cut_rate);
  std::printf("VPS:       seed retention %.1f%%\n",
              100 * SameBatchFraction(vps_batches, dataset.split.train, ns,
                                      nt));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // glibc raises its mmap threshold each time a mapped block is freed, so
  // later large buffers land on the brk heap, fragment it and keep it
  // resident after they are freed. Setting the threshold turns that off:
  // every large buffer keeps a mapping of its own.
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
#endif
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: largeea_cli generate|run|index-build|serve|query|partition"
        " [--flags]\n"
        "       largeea_cli --help\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    std::printf(
        "usage: largeea_cli generate|run|index-build|serve|query|partition"
        " [--flags]\n\n"
        "Config flags (any command; run uses them all):\n%s",
        ConfigHelp().c_str());
    return 0;
  }
  // One spelling per command: anything else, flags without a subcommand
  // included, is rejected before a single flag is parsed. Each command
  // accepts the Config flags plus its own, listed here.
  const std::map<std::string_view, std::set<std::string_view>> kCommands = {
      {"generate", {"tier", "pair", "scale", "out_dir"}},
      {"run", {"source", "target", "seeds", "test"}},
      {"index-build",
       {"source", "target", "seeds", "test", "index-out", "hnsw-neighbors",
        "ef-construction", "ef-search"}},
      {"serve", {"index", "serve-batch", "k", "expect-fingerprint"}},
      {"query",
       {"index", "entity", "name", "k", "exact", "expect-fingerprint"}},
      {"partition", {"source", "target", "seeds", "test"}},
  };
  const auto own_flags = kCommands.find(command);
  if (own_flags == kCommands.end()) {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }
  const Flags flags(argc - 1, argv + 1);
  // A misspelled or removed flag fails here instead of silently running
  // the default.
  Config known;
  FlagRegistry registry;
  known.Register(registry);
  for (const std::string& name : flags.Names()) {
    if (!registry.Knows(name) && !own_flags->second.contains(name)) {
      std::fprintf(stderr,
                   "error: unknown flag --%s for '%s' (largeea_cli --help "
                   "lists the Config flags)\n",
                   name.c_str(), command.c_str());
      return 2;
    }
  }
  // All commands share one configuration surface: every pipeline,
  // runtime, and I/O knob parses through largeea::Config exactly once.
  // Binary-local inputs (--source, --tier, ...) stay on `flags`.
  auto config = ConfigFromFlags(flags);
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 2;
  }
  obs::SetCurrentThreadName("main");
  const Status runtime = config->ApplyRuntime();
  if (!runtime.ok()) {
    std::fprintf(stderr, "error: %s\n", runtime.ToString().c_str());
    return 2;
  }
  // Deterministic chaos testing: LARGEEA_FAULTS (gated per shard by
  // LARGEEA_FAULTS_SHARD) arms named fault points in this process.
  (void)rt::ArmFaultsFromEnv(config->shard_worker);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "run") {
    return CmdRun(flags, std::move(*config), argc, argv);
  }
  if (command == "index-build") {
    return CmdIndexBuild(flags, std::move(*config));
  }
  if (command == "serve") return CmdServe(flags, *config);
  if (command == "query") return CmdQuery(flags, *config);
  return CmdPartition(flags, *config);
}
