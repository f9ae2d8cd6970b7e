// e2e_probe — the benchmark's in-process helper, linked to the library.
//
//   e2e_probe gen   --tier T --pair P --scale X --seed N --out_dir DIR
//       `largeea_cli generate` with the BenchmarkSpec seed exposed.
//
//   e2e_probe names --source A.tsv --target B.tsv --out FILE
//                   --target-out FILE
//       the source (and target) entity names in dense-id order, one per
//       line, as LoadEaDataset (and so every largeea_cli command) numbers
//       them.
//
//   e2e_probe trace --source .. --target .. --seeds .. --test ..
//                   --pred PRED.tsv --requests REQ --index-out INDEX
//                   --out TRACE.json --run-id ID [any Config flag]
//       the traced run: parses the workload's flags with ConfigFromFlags,
//       calls each layer's public entry points in the pipeline DAG's
//       order with a span around every call, then the serve layer (build,
//       save, load, swap, engine, loop) over the request lines in REQ.
//       Writes spans, the counters/gauges the layers publish, raw
//       per-request engine latencies and the correctness counts to
//       TRACE.json. (RunLargeEa itself is the untraced `largeea_cli run`;
//       its run report gives the dag and par numbers.)
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/core/config.h"
#include "src/core/evaluator.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/core/structure_channel.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/dataset.h"
#include "src/kg/kg_io.h"
#include "src/name/data_augmentation.h"
#include "src/name/semantic_sim.h"
#include "src/name/string_sim.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/par/parallel_for.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/serve/serve_loop.h"
#include "src/stream/stream_context.h"

using namespace largeea;

namespace {

using Clock = std::chrono::steady_clock;

int Fail(const std::string& message) {
  std::fprintf(stderr, "e2e_probe: %s\n", message.c_str());
  return 1;
}

// --- gen / names ----------------------------------------------------------

int CmdGen(const Flags& flags) {
  const std::string tier = flags.GetString("tier", "");
  const LanguagePair pair = flags.GetString("pair", "enfr") == "ende"
                                ? LanguagePair::kEnDe
                                : LanguagePair::kEnFr;
  const double scale = flags.GetDouble("scale", 1.0);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  BenchmarkSpec spec;
  if (tier == "ids15k") {
    spec = Ids15kSpec(pair, scale, seed);
  } else if (tier == "ids100k") {
    spec = Ids100kSpec(pair, scale, seed);
  } else if (tier == "dbp1m") {
    spec = Dbp1mSpec(pair, scale, seed);
  } else {
    return Fail("--tier must be ids15k, ids100k, or dbp1m");
  }
  const std::string dir = flags.GetString("out_dir", "");
  const EaDataset dataset = GenerateBenchmark(spec);
  if (!SaveTriples(dataset.source, dir + "/source.tsv").ok() ||
      !SaveTriples(dataset.target, dir + "/target.tsv").ok() ||
      !SaveAlignment(dataset.split.train, dataset.source, dataset.target,
                     dir + "/train.tsv")
           .ok() ||
      !SaveAlignment(dataset.split.test, dataset.source, dataset.target,
                     dir + "/test.tsv")
           .ok()) {
    return Fail("cannot write the dataset under --out_dir " + dir);
  }
  return 0;
}

StatusOr<EaDataset> LoadDataset(const Flags& flags) {
  EaDatasetPaths paths;
  paths.source_triples = flags.GetString("source", "");
  paths.target_triples = flags.GetString("target", "");
  paths.train_pairs = flags.GetString("seeds", "");
  paths.test_pairs = flags.GetString("test", "");
  return LoadEaDataset(paths, TsvReadOptions{}, "e2ebench");
}

bool WriteNames(const KnowledgeGraph& kg, const std::string& path) {
  std::ofstream out(path);
  for (int32_t e = 0; e < kg.num_entities(); ++e) {
    out << kg.EntityName(e) << '\n';
  }
  return static_cast<bool>(out);
}

int CmdNames(const Flags& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  if (!WriteNames(dataset->source, flags.GetString("out", "")) ||
      !WriteNames(dataset->target, flags.GetString("target-out", ""))) {
    return Fail("cannot write --out / --target-out");
  }
  return 0;
}

// --- trace ----------------------------------------------------------------

/// In-memory span log: (name, start, end, parent) in seconds since the
/// log was created. Spans nest by call structure.
class SpanLog {
 public:
  int Begin(const std::string& name) {
    spans_.push_back({name, Now(), -1.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double End(int id) {
    spans_[id].end = Now();
    stack_.pop_back();
    return spans_[id].end - spans_[id].start;
  }
  void Write(obs::JsonWriter& w) const {
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject()
          .Key("name").String(s.name)
          .Key("start").Double(s.start)
          .Key("end").Double(s.end)
          .Key("parent").Int(s.parent)
          .EndObject();
    }
    w.EndArray();
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Runs `fn` inside a span and returns its duration.
template <typename Fn>
double Timed(SpanLog& log, const std::string& name, Fn&& fn) {
  const int id = log.Begin(name);
  fn();
  return log.End(id);
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().GetCounter(name).Value();
}
double GaugeValue(const char* name) {
  return obs::MetricsRegistry::Get().GetGauge(name).Value();
}

/// Flat (name -> number) record of everything the trace measured.
class Record {
 public:
  void Set(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }
  void Samples(const std::string& name, std::vector<double> values) {
    samples_.emplace_back(name, std::move(values));
  }
  void Write(obs::JsonWriter& w) const {
    w.BeginObject();
    for (const auto& [name, value] : values_) w.Key(name).Double(value);
    w.EndObject();
  }
  void WriteSamples(obs::JsonWriter& w) const {
    w.BeginObject();
    for (const auto& [name, values] : samples_) {
      w.Key(name).BeginArray();
      for (const double v : values) w.Double(v);
      w.EndArray();
    }
    w.EndObject();
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
};

/// Number of source rows whose fused argmax differs from `pairs` (rows
/// absent from `pairs` must have no argmax).
int64_t ArgmaxMismatches(const SparseSimMatrix& fused,
                         const EntityPairList& pairs) {
  std::vector<EntityId> expected(fused.num_rows(), kInvalidEntity);
  for (const EntityPair& p : pairs) {
    if (p.source >= 0 && p.source < fused.num_rows()) {
      expected[p.source] = p.target;
    }
  }
  int64_t mismatches = 0;
  for (int32_t s = 0; s < fused.num_rows(); ++s) {
    if (fused.ArgmaxOfRow(s) != expected[s]) ++mismatches;
  }
  return mismatches;
}

struct ParsedRequest {
  std::string line;
  serve::QueryRequest request;
};

StatusOr<std::vector<ParsedRequest>> ReadRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot read --requests " + path);
  std::vector<ParsedRequest> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto fields = serve::ParseFlatObject(line);
    if (!fields.ok()) return fields.status();
    ParsedRequest parsed;
    parsed.line = line;
    serve::QueryRequest& r = parsed.request;
    const auto& f = fields.value();
    if (const auto it = f.find("entity"); it != f.end()) {
      r.kind = serve::QueryRequest::Kind::kEntity;
      r.entity = static_cast<EntityId>(std::stoll(it->second));
    } else if (const auto nit = f.find("name"); nit != f.end()) {
      r.kind = serve::QueryRequest::Kind::kName;
      r.name = nit->second;
    } else {
      return InvalidArgumentError("request without entity or name: " + line);
    }
    if (const auto it = f.find("k"); it != f.end()) {
      r.k = static_cast<int32_t>(std::stol(it->second));
    }
    if (const auto it = f.find("exact"); it != f.end()) {
      r.exact = it->second == "true";
    }
    requests.push_back(std::move(parsed));
  }
  return requests;
}

double FileMiB(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1 << 20);
}

/// The serve layer over the traced run's fused matrix: build, save, load,
/// swap, the query engine request by request, the same requests through
/// ParallelFor batches and through the serve loop.
Status TraceServe(const Flags& flags, const Config& config,
                  const EaDataset& dataset, const SparseSimMatrix& fused,
                  SpanLog& log, Record& record) {
  const std::string path = flags.GetString("index-out", "");
  auto requests = ReadRequests(flags.GetString("requests", ""));
  if (!requests.ok()) return requests.status();

  std::vector<std::string> source_names, target_names;
  for (int32_t e = 0; e < dataset.source.num_entities(); ++e) {
    source_names.push_back(dataset.source.EntityName(e));
  }
  for (int32_t e = 0; e < dataset.target.num_entities(); ++e) {
    target_names.push_back(dataset.target.EntityName(e));
  }
  // The CLI's index-build options: the pipeline's encoder and metric, and
  // the default HNSW shape.
  serve::ServeIndexOptions options;
  options.encoder = config.pipeline.name_channel.nff.sens.encoder;
  options.metric = config.pipeline.name_channel.nff.sens.metric;
  const uint64_t fingerprint =
      ComputePipelineFingerprints(dataset, config.pipeline).fused;

  StatusOr<std::shared_ptr<const serve::ServeIndex>> built =
      InternalError("not built");
  record.Set("serve.build_s", Timed(log, "serve.build", [&] {
               built = serve::ServeIndex::Build(fused, std::move(source_names),
                                                std::move(target_names),
                                                fingerprint, options);
             }));
  if (!built.ok()) return built.status();
  Status saved;
  record.Set("serve.save_s",
             Timed(log, "serve.save", [&] { saved = (*built)->Save(path); }));
  if (!saved.ok()) return saved;
  record.Set("serve.artifact_mb", FileMiB(path));
  built = InternalError("released");

  StatusOr<std::shared_ptr<const serve::ServeIndex>> loaded =
      InternalError("not loaded");
  record.Set("serve.load_s", Timed(log, "serve.load", [&] {
               loaded = serve::ServeIndex::Load(path);
             }));
  if (!loaded.ok()) return loaded.status();
  loaded = InternalError("released");

  serve::IndexManager manager;
  Status swapped = manager.LoadAndSwap(path);
  if (!swapped.ok()) return swapped;
  // The measured swap replaces a resident version, as a serving swap does.
  record.Set("serve.swap_s", Timed(log, "serve.swap", [&] {
               swapped = manager.LoadAndSwap(path);
             }));
  if (!swapped.ok()) return swapped;

  // Engine, one request at a time.
  const serve::QueryEngine engine(&manager);
  std::vector<double> entity_us, name_us, exact_us;
  double shortlist_sum = 0.0;
  int64_t entity_mismatches = 0, failed = 0;
  const auto index = manager.Current();
  const int id = log.Begin("serve.engine");
  for (const ParsedRequest& p : *requests) {
    const Clock::time_point t = Clock::now();
    const serve::QueryResponse response = engine.Execute(p.request);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t).count();
    if (!response.status.ok()) ++failed;
    if (p.request.kind == serve::QueryRequest::Kind::kEntity) {
      entity_us.push_back(us);
      const EntityId top = response.candidates.empty()
                               ? kInvalidEntity
                               : response.candidates.front().target;
      if (top != fused.ArgmaxOfRow(p.request.entity)) ++entity_mismatches;
    } else if (p.request.exact) {
      exact_us.push_back(us);
    } else {
      name_us.push_back(us);
      // The engine's own cap (query_engine.cc).
      const int32_t cap = std::max(4 * p.request.k, 64);
      shortlist_sum += static_cast<double>(
          index->StringShortlist(p.request.name, cap).size());
    }
  }
  log.End(id);
  record.Set("serve.shortlist_mean",
             name_us.empty() ? 0.0 : shortlist_sum / name_us.size());
  record.Set("check.served_entity_mismatches",
             static_cast<double>(entity_mismatches));
  record.Set("check.engine_failed", static_cast<double>(failed));
  record.Samples("serve.entity_us", std::move(entity_us));
  record.Samples("serve.name_us", std::move(name_us));
  record.Samples("serve.name_exact_us", std::move(exact_us));

  // The timed stream's requests (no exact ones), as the loop batches them:
  // engine work alone through ParallelFor, then the full loop.
  std::vector<const ParsedRequest*> stream;
  std::string lines;
  for (const ParsedRequest& p : *requests) {
    if (p.request.exact) continue;
    stream.push_back(&p);
    lines += p.line;
    lines += '\n';
  }
  const int64_t n = static_cast<int64_t>(stream.size());
  const serve::ServeLoopOptions loop_options;  // the CLI's defaults
  const double engine_s = Timed(log, "serve.engine_batched", [&] {
    for (int64_t b = 0; b < n; b += loop_options.batch_size) {
      const int64_t e = std::min<int64_t>(n, b + loop_options.batch_size);
      par::ParallelFor(b, e, /*grain=*/1, [&](par::ChunkRange range) {
        for (int64_t i = range.begin; i < range.end; ++i) {
          (void)engine.Execute(stream[i]->request);
        }
      });
    }
  });
  std::istringstream in(lines);
  std::ostringstream out;
  serve::ServeLoop loop(&manager, loop_options);
  serve::ServeLoopStats stats;
  const double loop_s =
      Timed(log, "serve.loop", [&] { stats = loop.Run(in, out); });
  const double per_request = n > 0 ? 1e6 * loop_s / n : 0.0;
  record.Set("serve.loop_us_per_request", per_request);
  record.Set("serve.protocol_us",
             n > 0 ? per_request - 1e6 * engine_s / n : 0.0);
  record.Set("serve.batch_mean",
             stats.batches > 0 ? static_cast<double>(stats.queries) /
                                     static_cast<double>(stats.batches)
                               : 0.0);
  record.Set("check.loop_failed", static_cast<double>(stats.failed));
  return OkStatus();
}

int CmdTrace(const Flags& flags) {
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  Config config = std::move(parsed).value();
  const Status runtime = config.ApplyRuntime();
  if (!runtime.ok()) return Fail(runtime.ToString());
  const LargeEaOptions& options = config.pipeline;
  const NameChannelOptions& n = options.name_channel;
  const StructureChannelOptions& s = options.structure_channel;
  obs::MetricsRegistry::Get().Reset();

  SpanLog log;
  Record record;

  // --- The pipeline, one public call per DAG operator, serially. ---
  const int root = log.Begin("traced_run");
  StatusOr<EaDataset> loaded = InternalError("not loaded");
  record.Set("kg.load_s",
             Timed(log, "kg.load", [&] { loaded = LoadDataset(flags); }));
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const EaDataset& dataset = *loaded;
  const KnowledgeGraph& source = dataset.source;
  const KnowledgeGraph& target = dataset.target;

  const stream::StreamOptions stream_options =
      stream::ResolveStreamOptions(options.stream);
  std::unique_ptr<stream::StreamContext> stream_ctx;
  if (stream::StreamingEnabled(stream_options)) {
    stream_ctx = std::make_unique<stream::StreamContext>(stream_options);
  }
  const bool consume =
      stream_ctx != nullptr && stream_ctx->options().release_inputs;

  SparseSimMatrix name_fused;
  EntityPairList pseudo;
  double sens_s = 0, stns_s = 0, fuse_s = 0, augment_s = 0;
  if (options.use_name_channel) {
    SparseSimMatrix semantic, string;
    sens_s = Timed(log, "name.sens", [&] {
      semantic = ComputeSemanticSimilarity(source, target, n.nff.sens,
                                           stream_ctx.get());
    });
    stns_s = Timed(log, "name.stns", [&] {
      string = ComputeStringSimilarity(source, target, n.nff.stns);
    });
    fuse_s = Timed(log, "name.fuse", [&] {
      name_fused =
          consume ? SparseSimMatrix::FuseStreamed(
                        std::move(semantic), std::move(string), 1.0f,
                        n.nff.string_weight, n.nff.max_entries_per_row)
                  : semantic.Fuse(string, 1.0f, n.nff.string_weight,
                                  n.nff.max_entries_per_row);
    });
    if (n.enable_augmentation) {
      augment_s = Timed(log, "name.augment", [&] {
        pseudo = GeneratePseudoSeeds(name_fused, dataset.split.train,
                                     n.augmentation_margin);
      });
    }
  }
  record.Set("name.sens_s", sens_s);
  record.Set("name.stns_s", stns_s);
  record.Set("name.fuse_s", fuse_s);
  record.Set("name.augment_s", augment_s);
  record.Set("name.pseudo_seeds", static_cast<double>(pseudo.size()));
  EntityPairList truth = dataset.split.train;
  truth.insert(truth.end(), dataset.split.test.begin(),
               dataset.split.test.end());
  record.Set("name.pseudo_seed_precision",
             pseudo.empty() ? 0.0 : PseudoSeedPrecision(pseudo, truth));
  const int64_t lsh_rows = CounterValue("topk.lsh.rows");
  const int64_t lsh_cand = CounterValue("topk.lsh.candidates_scanned");
  const double per_row =
      lsh_rows > 0 ? static_cast<double>(lsh_cand) / lsh_rows : 0.0;
  record.Set("sim.lsh.candidates_per_row", per_row);
  record.Set("sim.lsh.scan_fraction", per_row / target.num_entities());
  const int64_t hits = CounterValue("stream.cache.hits");
  const int64_t misses = CounterValue("stream.cache.misses");
  record.Set("stream.cache.hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                               : 0.0);
  record.Set("stream.cache.misses", static_cast<double>(misses));
  record.Set("stream.spill.bytes",
             static_cast<double>(CounterValue("stream.spill.bytes")));

  // ψ' = ψ ∪ ψ'_p, then the structure channel.
  EntityPairList seeds = dataset.split.train;
  seeds.insert(seeds.end(), pseudo.begin(), pseudo.end());
  SparseSimMatrix structure;
  double partition_s = 0, train_s = 0;
  if (options.use_structure_channel) {
    StatusOr<MiniBatchSet> batches = InternalError("not partitioned");
    partition_s = Timed(log, "partition", [&] {
      batches = PrepareStructureBatches(source, target, seeds, s, nullptr);
    });
    if (!batches.ok()) return Fail(batches.status().ToString());
    record.Set("partition.seed_retention",
               GaugeValue("partition.seed_retention"));
    StatusOr<StructureChannelResult> trained = InternalError("not trained");
    train_s = Timed(log, "structure.train", [&] {
      trained = TrainStructureChannel(source, target,
                                      std::move(batches).value(), s, nullptr);
    });
    if (!trained.ok()) return Fail(trained.status().ToString());
    record.Set("structure.batches_trained",
               static_cast<double>(CounterValue("structure.batches_trained")));
    record.Set("structure.batches_retried", trained->batches_retried);
    record.Set("structure.batches_dropped", trained->batches_dropped);
    structure = std::move(trained->similarity);
  } else {
    record.Set("partition.seed_retention", 0.0);
    record.Set("structure.batches_trained", 0.0);
    record.Set("structure.batches_retried", 0.0);
    record.Set("structure.batches_dropped", 0.0);
  }
  record.Set("partition.s", partition_s);
  record.Set("structure.train_s", train_s);

  // Final fusion (the DAG fusion node's four-way choice) and evaluation.
  SparseSimMatrix fused;
  record.Set("fusion.s", Timed(log, "fusion", [&] {
               const bool name = options.use_name_channel;
               const bool structural = options.use_structure_channel;
               if (name && structural && options.fuse_name_similarity) {
                 fused = consume ? SparseSimMatrix::FuseStreamed(
                                       std::move(structure),
                                       std::move(name_fused),
                                       options.structure_weight,
                                       options.name_weight,
                                       options.fused_top_k)
                                 : structure.Fuse(name_fused,
                                                  options.structure_weight,
                                                  options.name_weight,
                                                  options.fused_top_k);
               } else if (structural) {
                 fused = std::move(structure);
               } else {
                 fused = std::move(name_fused);
               }
             }));
  EvalMetrics metrics;
  record.Set("eval.s", Timed(log, "eval", [&] {
               metrics = Evaluate(fused, dataset.split.test);
             }));
  log.End(root);
  record.Set("sim.exact.candidates_scanned",
             static_cast<double>(CounterValue("topk.exact.candidates_scanned")));
  record.Set("eval.hits_at_1", metrics.hits_at_1);
  record.Set("eval.mrr", metrics.mrr);

  // The traced argmax must be the CLI's `run --out` predictions.
  auto predictions = LoadAlignment(flags.GetString("pred", ""), source, target);
  if (!predictions.ok()) return Fail(predictions.status().ToString());
  record.Set("check.pred_mismatches",
             static_cast<double>(ArgmaxMismatches(fused, *predictions)));

  const Status served = TraceServe(flags, config, dataset, fused, log, record);
  if (!served.ok()) return Fail(served.ToString());

  obs::JsonWriter w;
  w.BeginObject().Key("run_id").String(flags.GetString("run-id", ""));
  w.Key("spans");
  log.Write(w);
  w.Key("values");
  record.Write(w);
  w.Key("samples");
  record.WriteSamples(w);
  w.EndObject();
  std::ofstream out(flags.GetString("out", ""));
  out << w.str() << '\n';
  return out ? 0 : Fail("cannot write --out");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_probe gen|names|trace [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (command == "gen") return CmdGen(flags);
  if (command == "names") return CmdNames(flags);
  if (command == "trace") return CmdTrace(flags);
  std::fprintf(stderr, "e2e_probe: unknown command '%s'\n", command.c_str());
  return 2;
}
