// Component micro-benchmarks (google-benchmark): scaling behaviour of the
// substrates behind the headline experiments — the multilevel
// partitioner, top-k similarity search (exact vs. LSH), MinHash,
// Levenshtein, the semantic encoder, and one training epoch per model.
//
// Three modes:
//   * default — the google-benchmark suite below, all its flags intact;
//   * --json-out=FILE — a hand-timed kernel-scaling harness instead:
//     threads x {gemm, topk, lsh, minhash, hnsw} rows (seconds,
//     items/sec, speedup vs 1 thread), written through BenchJson. The
//     perf trajectory invokes it as `--json-out=BENCH_par.json`;
//     --threads-list=1,2,4,8 and --min-time=0.3 tune the sweep;
//   * --json-out=FILE --mode=backend — a SIMD backend x kernel matrix at
//     one thread: every available backend (scalar, sse2, avx2) times
//     {dot, manhattan, dot4, manhattan4, gemm, gemm_tb, topk,
//     rrea_epoch, adam, levenshtein} on identical inputs, rows carry
//     speedup vs the scalar backend. The
//     perf trajectory invokes it as
//     `--mode=backend --json-out=BENCH_simd.json`;
//   * --json-out=FILE --mode=stream — a memory-budget sweep of the
//     streaming layer (DESIGN.md §10): per SENS path (exact, lsh), the
//     name-channel pipeline runs unbudgeted to record its tracked peak
//     and fused-matrix hash, then once under each distinct budget among
//     1/2, 1/4, and 1/8 of that peak (floored at 1 MiB). Rows, keyed
//     (path, budget_mb), carry the observed peak, wall time, spilled
//     bytes (stream.spill.bytes), and whether the fused matrix stayed
//     bit-identical. The perf trajectory invokes it as
//     `--mode=stream --json-out=BENCH_stream.json`;
//   * --json-out=FILE --mode=profile — the kernel-scaling sweep with the
//     profiler (DESIGN.md §11) enabled: the same threads x kernels grid,
//     but each row additionally carries the profiler's utilization,
//     chunk-imbalance ratio, declared-traffic GB/s, and arithmetic
//     intensity, so a kernel that stops scaling is classifiable
//     (bandwidth-bound vs imbalanced vs merge-serialised) from the JSON
//     alone. The perf trajectory invokes it as
//     `--mode=profile --json-out=BENCH_profile.json`;
//   * --json-out=FILE --mode=dag — the operator-DAG executor (DESIGN.md
//     §14) on the full two-channel pipeline at max_concurrency 1 (the
//     serial order) vs the pool's thread count: wall clock for both
//     schedules, bit-identity of the fused matrix, per-node
//     seconds/peaks from the scheduler, and the measured critical path
//     (the wall-time floor at infinite concurrency). The perf
//     trajectory invokes it as `--mode=dag --json-out=BENCH_dag.json`;
//   * --json-out=FILE --mode=serve — single-query latency/throughput of
//     the serving layer (DESIGN.md §15) across index sizes
//     (--targets-list). Per size, three rows keyed (targets, path):
//     `entity` (fused-row read), `name_ann` (encode + HNSW/LSH
//     shortlist + exact re-rank), `name_exact` (encode + full scan, the
//     reference path). Rows carry QPS and p50/p99/p999 latency; the
//     name_ann row additionally carries recall@k against the exact
//     scan, the top-1 agreement rate, and its p50 speedup over the
//     scan. The sweep asserts that every served entity answer equals
//     the batch fused row and, at the largest size, that the ANN p50 is
//     at least --min-ann-speedup (default 10) times faster than the
//     scan. The perf trajectory invokes it as
//     `--mode=serve --json-out=BENCH_serve.json`.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/core/large_ea.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/dag/pipeline_dag.h"
#include "src/gen/benchmark_gen.h"
#include "src/la/ops.h"
#include "src/name/levenshtein.h"
#include "src/name/minhash.h"
#include "src/name/semantic_encoder.h"
#include "src/nn/batch_graph.h"
#include "src/nn/adam.h"
#include "src/nn/ea_model.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/par/parallel_for.h"
#include "src/par/thread_pool.h"
#include "src/partition/metis.h"
#include "src/rt/io_util.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/sim/hnsw.h"
#include "src/sim/lsh.h"
#include "src/sim/topk_search.h"
#include "src/simd/simd.h"
#include "src/stream/stream_context.h"

namespace largeea {
namespace {

CsrGraph RandomGraph(int32_t n, int32_t edges_per_vertex, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<size_t>(n) * edges_per_vertex);
  for (int32_t v = 1; v < n; ++v) {
    for (int32_t j = 0; j < edges_per_vertex; ++j) {
      edges.push_back({v, static_cast<int32_t>(rng.Uniform(v)), 1});
    }
  }
  return CsrGraph::FromEdges(n, edges);
}

void BM_MetisPartition(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  const CsrGraph graph = RandomGraph(n, 3, 11);
  MetisOptions options;
  options.num_parts = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MetisPartition(graph, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MetisPartition)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_ExactTopK(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  Rng rng(13);
  Matrix a(n, 64), b(n, 64);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  const TopKOptions options{.k = 50, .metric = SimMetric::kManhattan};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactTopK(a, b, options));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_ExactTopK)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_LshTopK(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  Rng rng(13);
  Matrix a(n, 64), b(n, 64);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  L2NormalizeRows(a);
  L2NormalizeRows(b);
  const LshIndex index(b, LshOptions{});
  std::vector<EntityId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  const TopKOptions options{.k = 50, .metric = SimMetric::kManhattan};
  for (auto _ : state) {
    SparseSimMatrix out(n, n, options.k);
    TopKInto(a, ids, b, ids, &index, options, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_LshTopK)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_MinHashSignature(benchmark::State& state) {
  const MinHasher hasher(64, 7);
  const std::vector<std::string> tokens = TokenizeName(
      "a moderately long entity name with several words attached");
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Signature(tokens));
  }
}
BENCHMARK(BM_MinHashSignature);

void BM_Levenshtein(benchmark::State& state) {
  const std::string a(state.range(0), 'a');
  std::string b(state.range(0), 'a');
  for (size_t i = 0; i < b.size(); i += 3) b[i] = 'b';
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein)->Arg(16)->Arg(64)->Arg(256);

void BM_SemanticEncode(benchmark::State& state) {
  const SemanticEncoder encoder(SemanticEncoderOptions{});
  std::vector<float> out(encoder.dim());
  for (auto _ : state) {
    encoder.EncodeName("barack hussein obama the second", out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SemanticEncode);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  Rng rng(17);
  Matrix a(n, n), b(n, n), c(n, n);
  a.GlorotInit(rng);
  b.GlorotInit(rng);
  for (auto _ : state) {
    Gemm(a, b, c);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_TrainEpoch(benchmark::State& state) {
  const auto kind = static_cast<ModelKind>(state.range(0));
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
  spec.world.num_entities = 1000;
  const EaDataset ds = GenerateBenchmark(spec);
  std::vector<EntityId> all_s(ds.source.num_entities());
  std::iota(all_s.begin(), all_s.end(), 0);
  std::vector<EntityId> all_t(ds.target.num_entities());
  std::iota(all_t.begin(), all_t.end(), 0);
  const LocalGraph source = BuildLocalGraph(ds.source, all_s);
  const LocalGraph target = BuildLocalGraph(ds.target, all_t);
  const auto seeds = LocalizeSeeds(source, target, ds.split.train);
  TrainOptions options;
  options.epochs = 1;
  const auto model = MakeModel(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Train(source, target, seeds, options));
  }
  state.SetLabel(ModelKindName(kind));
}
BENCHMARK(BM_TrainEpoch)
    ->Arg(static_cast<int>(ModelKind::kGcnAlign))
    ->Arg(static_cast<int>(ModelKind::kRrea))
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Kernel-scaling harness (--json-out mode): how the par-wired kernels
// scale with the worker pool. Each kernel is timed at every requested
// thread count on identical inputs; the determinism contract (DESIGN.md
// §8) means only the wall-clock may change between rows.

/// Seconds per iteration of `fn`, averaged over at least `min_seconds`
/// of repeated calls after one warm-up run.
double TimeKernel(const std::function<void()>& fn, double min_seconds) {
  fn();  // warm-up: faults pages, starts pool workers
  int64_t iters = 0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(iters);
}

std::vector<int32_t> ParseThreadsList(const std::string& list) {
  std::vector<int32_t> threads;
  size_t pos = 0;
  while (pos < list.size()) {
    const size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const int32_t n = static_cast<int32_t>(std::atoi(item.c_str()));
    if (n >= 1) threads.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

// Problem sizes for the scaling/profile sweeps: DBP1M-representative
// magnitudes (PAPER.md), i.e. what one mini-batch of the real workload
// looks like, not toy shapes. A training batch on DBP1M holds ~20k
// entities at dim 128, so the gemm row count and the minhash name count
// both sit at 20k; the brute-force top-k grid
// is 4000^2 because the exact path is only ever used on sub-batch
// candidate sets (the full graphs go through LSH). The LSH top-k row is
// SENS at DBP1M EN-FR's shape — 20k targets at the encoder's dim 192,
// the CLI's default tables — over a 2,000-row slice of the source side.
// The hnsw row builds index-build's graph over those 20k targets with
// the serve defaults.
constexpr int64_t kScaleGemmRows = 20000;
constexpr int64_t kScaleGemmDim = 128;
constexpr int64_t kScaleTopKRows = 4000;
constexpr int64_t kScaleTopKDim = 64;
constexpr int64_t kScaleLshSourceRows = 2000;
constexpr int64_t kScaleLshTargetRows = 20000;
constexpr int64_t kScaleLshDim = 192;
constexpr int64_t kScaleMinHashNames = 20000;

struct ScalingKernel {
  const char* name;          // row name in the JSON
  const char* profile_name;  // the profiler attribution it runs under
  int64_t items;             // per iteration, for items_per_sec
  std::function<void()> fn;
};

// Inputs and kernel closures shared by the scaling and profile sweeps,
// identical for every thread count (and between the two modes, so their
// seconds columns are directly comparable).
struct ScalingBench {
  Rng rng{13};
  Matrix gemm_a{kScaleGemmRows, kScaleGemmDim};
  Matrix gemm_b{kScaleGemmDim, kScaleGemmDim};
  Matrix gemm_c{kScaleGemmRows, kScaleGemmDim};
  Matrix topk_a{kScaleTopKRows, kScaleTopKDim};
  Matrix topk_b{kScaleTopKRows, kScaleTopKDim};
  TopKOptions topk{.k = 50, .metric = SimMetric::kManhattan};
  Matrix lsh_a{kScaleLshSourceRows, kScaleLshDim};
  Matrix lsh_b{kScaleLshTargetRows, kScaleLshDim};  // also the hnsw rows
  std::vector<EntityId> lsh_row_ids;
  std::vector<EntityId> lsh_col_ids;
  std::optional<LshIndex> lsh_index;
  MinHasher hasher{64, 7};
  std::vector<std::vector<std::string>> names;
  std::vector<std::vector<uint64_t>> signatures;
  std::vector<ScalingKernel> kernels;

  ScalingBench() {
    gemm_a.GlorotInit(rng);
    gemm_b.GlorotInit(rng);
    topk_a.GlorotInit(rng);
    topk_b.GlorotInit(rng);
    lsh_a.GlorotInit(rng);
    lsh_b.GlorotInit(rng);
    lsh_row_ids.resize(kScaleLshSourceRows);
    std::iota(lsh_row_ids.begin(), lsh_row_ids.end(), 0);
    lsh_col_ids.resize(kScaleLshTargetRows);
    std::iota(lsh_col_ids.begin(), lsh_col_ids.end(), 0);
    lsh_index.emplace(lsh_b, LshOptions{});
    names.resize(static_cast<size_t>(kScaleMinHashNames));
    for (size_t i = 0; i < names.size(); ++i) {
      names[i] = TokenizeName("entity name number " + std::to_string(i) +
                              " with a few more tokens " +
                              std::to_string(rng.Next() % 99991));
    }
    signatures.resize(names.size());
    kernels = {
        {"gemm", "la.gemm", kScaleGemmRows * kScaleGemmDim * kScaleGemmDim,
         [this] { Gemm(gemm_a, gemm_b, gemm_c); }},
        {"topk", "sim.topk.exact", kScaleTopKRows * kScaleTopKRows,
         [this] {
           benchmark::DoNotOptimize(ExactTopK(topk_a, topk_b, topk));
         }},
        {"lsh", "sim.topk.lsh", kScaleLshSourceRows * kScaleLshTargetRows,
         [this] {
           SparseSimMatrix out(kScaleLshSourceRows, kScaleLshTargetRows,
                               topk.k);
           TopKInto(lsh_a, lsh_row_ids, lsh_b, lsh_col_ids, &*lsh_index,
                    topk, out);
           benchmark::DoNotOptimize(out);
         }},
        {"minhash", "bench.minhash", kScaleMinHashNames, [this] {
           // Mirrors string_sim.cc's signature-build loop, annotated the
           // same way so the profile sweep can attribute its pool jobs.
           obs::ProfileScope prof("bench.minhash");
           prof.AddBytes(0, kScaleMinHashNames * 64 * 8);
           par::ParallelFor(
               0, static_cast<int64_t>(names.size()), 256,
               [&](const par::ChunkRange& range) {
                 for (int64_t t = range.begin; t < range.end; ++t) {
                   signatures[t] = hasher.Signature(names[t]);
                 }
               });
           benchmark::DoNotOptimize(signatures);
         }},
        {"hnsw", "sim.hnsw.build", kScaleLshTargetRows, [this] {
           const HnswIndex graph(lsh_b, SimMetric::kManhattan, HnswOptions{});
           benchmark::DoNotOptimize(graph.num_edges());
         }}};
  }
};

int RunKernelScaling(const Flags& flags) {
  bench::BenchJson json(flags, "par");
  const std::vector<int32_t> thread_counts =
      ParseThreadsList(flags.GetString("threads-list", "1,2,4,8"));
  const double min_time = flags.GetDouble("min-time", 0.3);
  ScalingBench bench;

  std::printf("%-10s %8s %14s %16s %12s\n", "kernel", "threads",
              "sec/iter", "items/sec", "speedup_1t");
  std::vector<double> base_seconds(bench.kernels.size(), 0.0);
  for (const int32_t threads : thread_counts) {
    par::ThreadPool::Get().SetNumThreads(threads);
    for (size_t k = 0; k < bench.kernels.size(); ++k) {
      const double seconds = TimeKernel(bench.kernels[k].fn, min_time);
      if (threads == thread_counts.front()) base_seconds[k] = seconds;
      const double speedup =
          seconds > 0.0 ? base_seconds[k] / seconds : 0.0;
      const double items_per_sec =
          seconds > 0.0
              ? static_cast<double>(bench.kernels[k].items) / seconds
              : 0.0;
      std::printf("%-10s %8d %14.6f %16.0f %12.2f\n", bench.kernels[k].name,
                  threads, seconds, items_per_sec, speedup);
      bench::BenchJson::Row row;
      row.Set("kernel", bench.kernels[k].name)
          .Set("threads", threads)
          .Set("seconds", seconds)
          .Set("items_per_sec", items_per_sec)
          .Set("speedup_vs_1t", speedup);
      json.Add(std::move(row));
    }
  }
  par::ThreadPool::Get().Shutdown();
  json.Write();
  return 0;
}

// ---------------------------------------------------------------------
// Profile sweep (--mode=profile): the scaling grid re-run under the
// profiler. The wall-clock column still comes from TimeKernel (the
// profiler's own timing is per-scope, not per-sweep-iteration); the
// utilization/imbalance/GB-per-sec columns come from the profiler
// records accumulated while the cell ran. Ratios are insensitive to the
// iteration count, so TimeKernel's adaptive looping does not skew them.

int RunProfileSweep(const Flags& flags) {
  bench::BenchJson json(flags, "profile");
  const std::vector<int32_t> thread_counts =
      ParseThreadsList(flags.GetString("threads-list", "1,2,4,8"));
  const double min_time = flags.GetDouble("min-time", 0.3);
  ScalingBench bench;
  obs::Profiler& profiler = obs::Profiler::Get();

  std::printf("%-10s %8s %12s %8s %8s %10s %10s %8s\n", "kernel", "threads",
              "sec/iter", "util", "imbal", "GB/s", "flop/B", "chunks");
  for (const int32_t threads : thread_counts) {
    par::ThreadPool::Get().SetNumThreads(threads);
    for (const ScalingKernel& kernel : bench.kernels) {
      kernel.fn();  // warm-up outside the profiled window
      profiler.Clear();
      profiler.Enable();
      const double seconds = TimeKernel(kernel.fn, min_time);
      profiler.Disable();

      obs::KernelProfile kp;
      for (const obs::KernelProfile& k : profiler.KernelTotals()) {
        if (k.kernel == kernel.profile_name) kp = k;
      }
      obs::PoolKernelTotal pt;
      for (const obs::PoolKernelTotal& t : profiler.PoolTotals()) {
        if (t.kernel == kernel.profile_name) pt = t;
      }
      const double chunks_per_job =
          pt.jobs > 0 ? static_cast<double>(pt.chunks) /
                            static_cast<double>(pt.jobs)
                      : 0.0;
      const double items_per_sec =
          seconds > 0.0 ? static_cast<double>(kernel.items) / seconds : 0.0;
      std::printf("%-10s %8d %12.6f %8.2f %8.2f %10.2f %10.2f %8.0f\n",
                  kernel.name, threads, seconds, pt.Utilization(),
                  pt.Imbalance(), kp.GBPerSec(), kp.ArithmeticIntensity(),
                  chunks_per_job);
      bench::BenchJson::Row row;
      row.Set("kernel", kernel.name)
          .Set("threads", threads)
          .Set("seconds", seconds)
          .Set("items_per_sec", items_per_sec)
          .Set("utilization", pt.Utilization())
          .Set("imbalance_ratio", pt.Imbalance())
          .Set("gb_per_sec", kp.GBPerSec())
          .Set("arithmetic_intensity", kp.ArithmeticIntensity())
          .Set("chunks_per_job", chunks_per_job)
          .Set("chunk_cov", pt.ChunkCov())
          .Set("grain", pt.last_grain)
          .Set("merge_seconds", pt.merge_seconds);
      json.Add(std::move(row));
    }
  }
  profiler.Clear();
  par::ThreadPool::Get().Shutdown();
  json.Write();
  return 0;
}

// ---------------------------------------------------------------------
// SIMD backend matrix (--mode=backend): the same kernel on the same
// inputs under every backend the CPU supports, at one thread, so the
// rows isolate the ISA effect. The determinism contract (DESIGN.md §9)
// means only the wall-clock may change between rows. The levenshtein
// kernel is integer and backend-independent; its "scalar" row times the
// classic DP (the pre-bit-parallel baseline) and the native rows time
// Myers, so that row pair records the bit-parallel speedup instead.

int RunBackendMatrix(const Flags& flags) {
  bench::BenchJson json(flags, "simd");
  const double min_time = flags.GetDouble("min-time", 0.3);
  par::ThreadPool::Get().SetNumThreads(1);

  // Identical inputs for every backend. The dot/manhattan working set
  // (2 x 256KB) stays L2-resident so those rows measure compute, not
  // memory bandwidth.
  Rng rng(13);
  constexpr int32_t kVecRows = 256;
  constexpr int32_t kVecDim = 256;
  Matrix vec_a(kVecRows, kVecDim), vec_b(kVecRows, kVecDim);
  vec_a.GlorotInit(rng);
  vec_b.GlorotInit(rng);
  Matrix gemm_a(256, 256), gemm_b(256, 256), gemm_c(256, 256);
  gemm_a.GlorotInit(rng);
  gemm_b.GlorotInit(rng);
  Matrix topk_a(1000, 64), topk_b(1000, 64);
  topk_a.GlorotInit(rng);
  topk_b.GlorotInit(rng);
  const TopKOptions topk{.k = 50, .metric = SimMetric::kManhattan};
  constexpr int32_t kNamePairs = 400;
  std::vector<std::pair<std::string, std::string>> name_pairs;
  int64_t name_cells = 0;  // DP cells per iteration, for items/sec
  for (int32_t i = 0; i < kNamePairs; ++i) {
    std::string a, b;
    const int32_t len = 24 + static_cast<int32_t>(rng.Uniform(40));
    for (int32_t c = 0; c < len; ++c) {
      a.push_back(static_cast<char>('a' + rng.Uniform(6)));
      b.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    name_cells += int64_t{len} * len;
    name_pairs.emplace_back(std::move(a), std::move(b));
  }

  // One structure batch of a DBP1M EN-FR run's shape (~5.9k + 4.3k
  // vertices, ~13k + 5k edges, ~1.4k seeds): the rrea_epoch row times
  // Train at one epoch (set-up, the epoch and the final forward), the
  // adam row one Adam step over the larger side's embeddings.
  const auto random_graph = [&rng](int32_t vertices, int32_t edges,
                                   int32_t relations) {
    LocalGraph g;
    g.global_ids.resize(static_cast<size_t>(vertices));
    std::iota(g.global_ids.begin(), g.global_ids.end(), 0);
    g.num_relations = relations;
    g.degree.assign(static_cast<size_t>(vertices), 0);
    for (int32_t e = 0; e < edges; ++e) {
      const LocalEdge edge{static_cast<int32_t>(rng.Uniform(vertices)),
                           static_cast<RelationId>(rng.Uniform(relations)),
                           static_cast<int32_t>(rng.Uniform(vertices))};
      g.edges.push_back(edge);
      ++g.degree[static_cast<size_t>(edge.head)];
      ++g.degree[static_cast<size_t>(edge.tail)];
    }
    return g;
  };
  const LocalGraph batch_source = random_graph(5900, 13000, 200);
  const LocalGraph batch_target = random_graph(4300, 5000, 150);
  std::vector<std::pair<int32_t, int32_t>> batch_seeds;
  for (int32_t i = 0; i < 1400; ++i) {
    batch_seeds.emplace_back(static_cast<int32_t>(rng.Uniform(5900)),
                             static_cast<int32_t>(rng.Uniform(4300)));
  }
  TrainOptions epoch_options;
  epoch_options.epochs = 1;
  const std::unique_ptr<EaModel> rrea = MakeModel(ModelKind::kRrea);
  Matrix adam_param(5900, 48), adam_grad(5900, 48);
  adam_param.GlorotInit(rng);
  adam_grad.GlorotInit(rng);
  AdamState adam_state(5900, 48, AdamOptions{});

  struct Kernel {
    const char* name;
    int64_t items;  // per iteration, for items_per_sec
    std::function<void()> fn;
    std::function<void()> scalar_fn;  // nullptr = same as fn
  };
  const std::vector<Kernel> kernels = {
      {"dot", int64_t{kVecRows} * kVecDim,
       [&] {
         float acc = 0.0f;
         for (int32_t r = 0; r < kVecRows; ++r) {
           acc += Dot(vec_a.Row(r), vec_b.Row(r), kVecDim);
         }
         benchmark::DoNotOptimize(acc);
       },
       nullptr},
      {"manhattan", int64_t{kVecRows} * kVecDim,
       [&] {
         float acc = 0.0f;
         for (int32_t r = 0; r < kVecRows; ++r) {
           acc += ManhattanDistance(vec_a.Row(r), vec_b.Row(r), kVecDim);
         }
         benchmark::DoNotOptimize(acc);
       },
       nullptr},
      // The four-pair kernels over as many pairs as the rows above:
      // source row r against target rows r..r+3.
      {"dot4", int64_t{kVecRows} * kVecDim,
       [&] {
         const simd::KernelTable& kt = simd::Kernels();
         float acc = 0.0f;
         float out[4];
         for (int32_t r = 0; r < kVecRows; r += 4) {
           const float* rows[4] = {vec_b.Row(r), vec_b.Row(r + 1),
                                   vec_b.Row(r + 2), vec_b.Row(r + 3)};
           kt.dot4(vec_a.Row(r), rows, kVecDim, out);
           acc += (out[0] + out[1]) + (out[2] + out[3]);
         }
         benchmark::DoNotOptimize(acc);
       },
       nullptr},
      {"manhattan4", int64_t{kVecRows} * kVecDim,
       [&] {
         const simd::KernelTable& kt = simd::Kernels();
         float acc = 0.0f;
         float out[4];
         for (int32_t r = 0; r < kVecRows; r += 4) {
           const float* rows[4] = {vec_b.Row(r), vec_b.Row(r + 1),
                                   vec_b.Row(r + 2), vec_b.Row(r + 3)};
           kt.manhattan4(vec_a.Row(r), rows, kVecDim, out);
           acc += (out[0] + out[1]) + (out[2] + out[3]);
         }
         benchmark::DoNotOptimize(acc);
       },
       nullptr},
      {"gemm", int64_t{256} * 256 * 256,
       [&] { Gemm(gemm_a, gemm_b, gemm_c); }, nullptr},
      {"gemm_tb", int64_t{256} * 256 * 256,
       [&] { GemmTransposeB(gemm_a, gemm_b, gemm_c); }, nullptr},
      {"topk", int64_t{1000} * 1000,
       [&] { benchmark::DoNotOptimize(ExactTopK(topk_a, topk_b, topk)); },
       nullptr},
      {"rrea_epoch",
       2 * static_cast<int64_t>(batch_source.edges.size() +
                                batch_target.edges.size()),
       [&] {
         benchmark::DoNotOptimize(
             rrea->Train(batch_source, batch_target, batch_seeds,
                         epoch_options));
       },
       nullptr},
      {"adam", adam_param.size(),
       [&] {
         adam_state.Step(adam_param, adam_grad);
         benchmark::DoNotOptimize(adam_param.data());
         benchmark::ClobberMemory();
       },
       nullptr},
      {"levenshtein", name_cells,
       [&] {
         int64_t acc = 0;
         for (const auto& [a, b] : name_pairs) {
           acc += LevenshteinDistance(a, b);
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         int64_t acc = 0;
         for (const auto& [a, b] : name_pairs) {
           acc += LevenshteinDistanceDp(a, b);
         }
         benchmark::DoNotOptimize(acc);
       }}};

  const std::vector<simd::Backend> backends = simd::AvailableBackends();
  std::printf("%-12s %8s %14s %16s %16s\n", "kernel", "backend",
              "sec/iter", "items/sec", "speedup_scalar");
  std::vector<double> scalar_seconds(kernels.size(), 0.0);
  for (const simd::Backend backend : backends) {
    simd::SetBackend(backend);
    const bool is_scalar = backend == simd::Backend::kScalar;
    for (size_t k = 0; k < kernels.size(); ++k) {
      const Kernel& kernel = kernels[k];
      const auto& fn =
          is_scalar && kernel.scalar_fn ? kernel.scalar_fn : kernel.fn;
      const double seconds = TimeKernel(fn, min_time);
      if (is_scalar) scalar_seconds[k] = seconds;
      const double speedup =
          seconds > 0.0 && scalar_seconds[k] > 0.0
              ? scalar_seconds[k] / seconds
              : 0.0;
      const double items_per_sec =
          seconds > 0.0 ? static_cast<double>(kernel.items) / seconds : 0.0;
      std::printf("%-12s %8s %14.6f %16.0f %16.2f\n", kernel.name,
                  simd::BackendName(backend), seconds, items_per_sec,
                  speedup);
      bench::BenchJson::Row row;
      row.Set("kernel", kernel.name)
          .Set("backend", simd::BackendName(backend))
          .Set("seconds", seconds)
          .Set("items_per_sec", items_per_sec)
          .Set("speedup_vs_scalar", speedup);
      json.Add(std::move(row));
    }
  }
  simd::SetBackend(simd::BestBackend());
  par::ThreadPool::Get().Shutdown();
  json.Write();
  return 0;
}

// ---------------------------------------------------------------------
// Streaming budget sweep (--mode=stream): the name-channel pipeline on a
// generated dataset, per SENS path (exact scan, LSH), first unbudgeted
// (recording the tracked peak and the fused matrix's hash), then under
// each distinct budget among 1/2, 1/4 and 1/8 of that peak (floored at
// 1 MiB, so small datasets collapse them). The determinism contract
// extends to streaming (DESIGN.md §10): every budgeted row must
// reproduce its path's unbudgeted fused matrix bit-for-bit. Rows also
// carry the bytes the run spilled (stream.spill.bytes).

uint64_t FusedMatrixHash(const SparseSimMatrix& m) {
  std::string bytes;
  bytes.reserve(static_cast<size_t>(m.TotalEntries()) * sizeof(SimEntry));
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    bytes.append(reinterpret_cast<const char*>(row.data()),
                 row.size_bytes());
  }
  return rt::Fnv1a64(bytes);
}

int RunStreamSweep(const Flags& flags) {
  bench::BenchJson json(flags, "stream");
  const double scale = flags.GetDouble("scale", 0.2);
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr, scale);
  const EaDataset dataset = GenerateBenchmark(spec);
  const obs::Counter& spilled =
      obs::MetricsRegistry::Get().GetCounter("stream.spill.bytes");

  struct RunResult {
    double seconds = 0.0;
    int64_t peak_bytes = 0;
    uint64_t fused_hash = 0;
    int64_t spill_bytes = 0;
  };
  const auto run_once = [&](bool use_lsh, int64_t budget_mb) -> RunResult {
    // Name channel only: those are the streamed whole-graph phases
    // (semantic top-k, NFF fusion, fused-matrix construction); structure
    // training would just add budget-independent wall time.
    LargeEaOptions options;
    options.use_structure_channel = false;
    options.name_channel.nff.sens.use_lsh = use_lsh;
    // 0 disables streaming explicitly (the env var only applies to the
    // unset sentinel -1), so the baseline is the historical path.
    options.stream.memory_budget_mb = budget_mb;
    const int64_t spilled_before = spilled.Value();
    auto run = RunLargeEa(dataset, options);
    LARGEEA_CHECK(run.ok());
    return RunResult{run->total_seconds, run->peak_bytes,
                     FusedMatrixHash(run->fused),
                     spilled.Value() - spilled_before};
  };

  std::printf("%-6s %10s %12s %10s %12s %10s %10s\n", "path", "budget_mb",
              "peak", "seconds", "spilled", "identical", "compliant");
  const auto add_row = [&](const char* path, int64_t budget_mb,
                           const RunResult& run, bool identical) {
    const bool compliant =
        budget_mb == 0 || run.peak_bytes <= budget_mb * (1 << 20);
    std::printf("%-6s %10lld %12s %10.3f %12s %10s %10s\n", path,
                static_cast<long long>(budget_mb),
                bench::FormatBytes(run.peak_bytes).c_str(), run.seconds,
                bench::FormatBytes(run.spill_bytes).c_str(),
                identical ? "yes" : "NO", compliant ? "yes" : "NO");
    bench::BenchJson::Row row;
    row.Set("path", path)
        .Set("budget_mb", budget_mb)
        .Set("peak_bytes", run.peak_bytes)
        .Set("seconds", run.seconds)
        .Set("spill_bytes", run.spill_bytes)
        .Set("identical", identical)
        .Set("compliant", compliant);
    json.Add(std::move(row));
  };
  for (const bool use_lsh : {false, true}) {
    const char* path = use_lsh ? "lsh" : "exact";
    const RunResult baseline = run_once(use_lsh, 0);
    add_row(path, 0, baseline, true);
    int64_t last_budget_mb = 0;
    for (const int64_t divisor : {2, 4, 8}) {
      const int64_t budget_mb =
          std::max<int64_t>(1, baseline.peak_bytes / divisor / (1 << 20));
      // Budgets only shrink with the divisor, so repeats are adjacent.
      if (budget_mb == last_budget_mb) continue;
      last_budget_mb = budget_mb;
      const RunResult budgeted = run_once(use_lsh, budget_mb);
      add_row(path, budget_mb, budgeted,
              budgeted.fused_hash == baseline.fused_hash);
    }
  }
  par::ThreadPool::Get().Shutdown();
  json.Write();
  return 0;
}

// ---------------------------------------------------------------------
// DAG executor sweep (--mode=dag): the full two-channel pipeline
// scheduled in serial order (max_concurrency 1) and with overlap (the
// pool's thread count) on the same dataset and pool. The value of the
// DAG is overlap (name channel x structure partition), so the headline
// numbers are the two wall clocks plus the node-level critical path —
// the floor the schedule is converging towards. Every row reasserts the
// determinism contract: the overlapped fused matrix must be
// bit-identical to the serial one.

int RunDagSweep(const Flags& flags) {
  bench::BenchJson json(flags, "dag");
  const double scale = flags.GetDouble("scale", 0.2);
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr, scale);
  const EaDataset dataset = GenerateBenchmark(spec);

  LargeEaOptions options;
  options.structure_channel.train.epochs =
      static_cast<int32_t>(flags.GetInt("epochs", 5));
  options.structure_channel.num_batches =
      static_cast<int32_t>(flags.GetInt("batches", 4));
  options.stream.memory_budget_mb = flags.GetInt("budget-mb", 0);

  // The serial row: RunLargeEa's body at max_concurrency 1, with the
  // same pool threads, timed by the same memory-tracking span. Scoped
  // so its result is freed before the DAG row, whose peak it would
  // otherwise inflate.
  double serial_seconds = 0.0;
  int64_t serial_peak = 0;
  uint64_t serial_hash = 0;
  {
    obs::Span span("pipeline", obs::Span::kTrackMemory);
    const stream::StreamOptions stream_options =
        stream::ResolveStreamOptions(options.stream);
    std::unique_ptr<stream::StreamContext> stream_ctx;
    if (stream::StreamingEnabled(stream_options)) {
      stream_ctx = std::make_unique<stream::StreamContext>(stream_options);
    }
    rt::CheckpointManager checkpoint = MakePipelineCheckpointManager(
        dataset, options, /*dir=*/"", /*resume=*/false);
    auto serial = dag::RunLargeEaPipeline(dataset, options, checkpoint,
                                          stream_ctx.get(),
                                          /*max_concurrency=*/1);
    LARGEEA_CHECK(serial.ok());
    serial_seconds = span.End();
    serial_peak = span.peak_bytes();
    serial_hash = FusedMatrixHash(serial->fused);
  }

  auto dag = RunLargeEa(dataset, options);
  LARGEEA_CHECK(dag.ok());
  const dag::ScheduleResult& schedule = dag->schedule;
  const bool identical = FusedMatrixHash(dag->fused) == serial_hash;
  const double speedup =
      dag->total_seconds > 0.0 ? serial_seconds / dag->total_seconds : 0.0;

  std::printf("%-24s %10s %12s\n", "row", "seconds", "identical");
  std::printf("%-24s %10.3f %12s\n", "serial", serial_seconds, "-");
  std::printf("%-24s %10.3f %12s\n", "dag", dag->total_seconds,
              identical ? "yes" : "NO");
  {
    bench::BenchJson::Row row;
    row.Set("row", "serial")
        .Set("seconds", serial_seconds)
        .Set("peak_bytes", serial_peak)
        .Set("identical", true);
    json.Add(std::move(row));
  }
  {
    bench::BenchJson::Row row;
    row.Set("row", "dag")
        .Set("seconds", dag->total_seconds)
        .Set("peak_bytes", dag->peak_bytes)
        .Set("identical", identical)
        .Set("speedup", speedup)
        .Set("deferrals", schedule.total_deferrals);
    json.Add(std::move(row));
  }
  for (const dag::NodeRun& node : schedule.node_runs) {
    std::printf("%-24s %10.3f %12s\n", ("node:" + node.name).c_str(),
                node.seconds, "-");
    bench::BenchJson::Row row;
    row.Set("row", "node:" + node.name)
        .Set("seconds", node.seconds)
        .Set("peak_bytes", node.peak_bytes)
        .Set("estimated_bytes", node.estimated_bytes)
        .Set("from_checkpoint", node.from_checkpoint);
    json.Add(std::move(row));
  }
  {
    std::string path;
    for (const std::string& name : schedule.critical_path) {
      if (!path.empty()) path += " -> ";
      path += name;
    }
    std::printf("%-24s %10.3f %12s  %s\n", "critical_path",
                schedule.critical_path_seconds, "-", path.c_str());
    bench::BenchJson::Row row;
    row.Set("row", "critical_path")
        .Set("seconds", schedule.critical_path_seconds)
        .Set("path", path);
    json.Add(std::move(row));
  }
  LARGEEA_CHECK(identical);
  par::ThreadPool::Get().Shutdown();
  json.Write();
  return 0;
}

// ---------------------------------------------------------------------
// Serve sweep (--mode=serve): single-query latency of the serving layer
// across index sizes, through the real IndexManager -> QueryEngine path
// (snapshot per query, serve.* histograms live). Synthetic fused matrix
// and names, same generators as tests/serve_test.cc.

std::vector<std::string> ServeNames(int32_t n, uint64_t seed) {
  // Three words from a 24-word vocabulary plus a unique suffix: mostly
  // distinct strings with realistic token overlap (the DBpedia regime),
  // not a handful of giant near-duplicate clusters — those would
  // degenerate both the LSH buckets and the HNSW beam into linear
  // scans, which is not the workload the serving layer is sized for.
  static const char* const kWords[] = {
      "alda", "brin",  "ceto",  "doral", "evik", "fenor", "gil",  "hasem",
      "irol", "jun",   "kolv",  "lira",  "moth", "nerel", "ospa", "pran",
      "quel", "rosta", "sivel", "tor",   "ulm",  "vask",  "wex",  "yole"};
  constexpr int32_t kVocab = 24;
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    std::string name = kWords[rng.Uniform(kVocab)];
    name += ' ';
    name += kWords[rng.Uniform(kVocab)];
    name += ' ';
    name += kWords[rng.Uniform(kVocab)];
    name += ' ';
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

SparseSimMatrix ServeFused(int32_t num_source, int32_t num_target,
                           uint64_t seed) {
  SparseSimMatrix fused(num_source, num_target, 8);
  Rng rng(seed);
  for (int32_t s = 0; s < num_source; ++s) {
    for (int32_t j = 0; j < 6; ++j) {
      fused.Accumulate(s, static_cast<EntityId>(rng.Uniform(num_target)),
                       static_cast<float>(rng.UniformDouble()));
    }
  }
  return fused;
}

struct ServeLatency {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Times `fn(i)` one call at a time for at least `min_seconds` after a
/// short warm-up; QPS from the wall clock, percentiles from the
/// individual samples (this is a latency bench, not an averaging one).
ServeLatency TimeQueries(const std::function<void(int64_t)>& fn,
                         double min_seconds) {
  for (int64_t i = 0; i < 16; ++i) fn(i);
  std::vector<double> samples_us;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  int64_t count = 0;
  do {
    const auto t0 = std::chrono::steady_clock::now();
    fn(count);
    const auto t1 = std::chrono::steady_clock::now();
    samples_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++count;
    elapsed = std::chrono::duration<double>(t1 - start).count();
  } while (elapsed < min_seconds);
  std::sort(samples_us.begin(), samples_us.end());
  ServeLatency out;
  out.qps = static_cast<double>(count) / elapsed;
  out.p50_us = SortedPercentile(samples_us, 0.5);
  out.p99_us = SortedPercentile(samples_us, 0.99);
  out.p999_us = SortedPercentile(samples_us, 0.999);
  return out;
}

int RunServeSweep(const Flags& flags) {
  bench::BenchJson json(flags, "serve");
  const double min_time = flags.GetDouble("min-time", 0.3);
  const auto k = static_cast<int32_t>(flags.GetInt("k", 10));
  const double min_ann_speedup = flags.GetDouble("min-ann-speedup", 10.0);
  const std::vector<int32_t> sizes = ParseThreadsList(
      flags.GetString("targets-list", "2000,8000,32000,256000"));

  std::printf("%8s %-12s %14s %10s %10s %10s\n", "targets", "path",
              "items_per_sec", "p50_us", "p99_us", "p999_us");
  const auto print_row = [](int32_t targets, const char* path,
                            const ServeLatency& lat) {
    std::printf("%8d %-12s %14.0f %10.1f %10.1f %10.1f\n", targets, path,
                lat.qps, lat.p50_us, lat.p99_us, lat.p999_us);
  };

  double last_speedup = 0.0;
  int32_t last_targets = 0;
  for (const int32_t targets : sizes) {
    const int32_t sources = std::max<int32_t>(64, targets / 4);
    serve::ServeIndexOptions options;
    options.encoder.dim = static_cast<int32_t>(flags.GetInt("dim", 64));
    auto built = serve::ServeIndex::Build(
        ServeFused(sources, targets, 101), ServeNames(sources, 7),
        ServeNames(targets, 8),
        /*pipeline_fingerprint=*/static_cast<uint64_t>(targets), options);
    LARGEEA_CHECK(built.ok());
    serve::IndexManager manager(std::move(built).value());
    const serve::QueryEngine engine(&manager);
    const auto index = manager.Current();

    // Entity path correctness: every served top-1 is the batch fused
    // row's top-1 — serving re-serves the pipeline answer exactly.
    for (int32_t s = 0; s < sources; ++s) {
      const auto row = index->FusedRow(s);
      if (row.empty()) continue;
      serve::QueryRequest request;
      request.kind = serve::QueryRequest::Kind::kEntity;
      request.entity = s;
      request.k = 1;
      const auto response = engine.Execute(request);
      LARGEEA_CHECK(response.status.ok());
      LARGEEA_CHECK(!response.candidates.empty());
      LARGEEA_CHECK(response.candidates[0].target == row[0].column);
      LARGEEA_CHECK(response.candidates[0].score == row[0].score);
    }

    const std::vector<std::string> queries =
        ServeNames(std::min<int32_t>(256, targets), 9);
    const auto name_query = [&](int64_t i, bool exact) {
      serve::QueryRequest request;
      request.kind = serve::QueryRequest::Kind::kName;
      request.name = queries[static_cast<size_t>(i) % queries.size()];
      request.k = k;
      request.exact = exact;
      const auto response = engine.Execute(request);
      LARGEEA_CHECK(response.status.ok());
    };

    // Component sub-timings of the name path (printf diagnostics only):
    // where does a name query spend its time — encode, graph walk, or
    // the string shortlist + re-rank?
    {
      std::vector<float> qvec(index->encoder().dim());
      std::vector<SimEntry> scratch;
      int64_t shortlist_total = 0, shortlist_calls = 0;
      const ServeLatency enc = TimeQueries(
          [&](int64_t i) {
            index->encoder().EncodeName(
                queries[static_cast<size_t>(i) % queries.size()], qvec.data());
          },
          min_time / 4);
      const ServeLatency graph = TimeQueries(
          [&](int64_t i) {
            index->encoder().EncodeName(
                queries[static_cast<size_t>(i) % queries.size()], qvec.data());
            index->AnnTopK(qvec, k, scratch);
          },
          min_time / 4);
      const int32_t shortlist_cap = std::max(4 * k, 64);  // engine's cap
      const ServeLatency shortlist = TimeQueries(
          [&](int64_t i) {
            shortlist_total += static_cast<int64_t>(
                index
                    ->StringShortlist(
                        queries[static_cast<size_t>(i) % queries.size()],
                        shortlist_cap)
                    .size());
            ++shortlist_calls;
          },
          min_time / 4);
      std::printf(
          "%8d %-12s encode %.1fus  encode+graph %.1fus  shortlist %.1fus "
          "(avg %lld ids)\n",
          targets, "ann_parts", enc.p50_us, graph.p50_us, shortlist.p50_us,
          static_cast<long long>(shortlist_total /
                                 std::max<int64_t>(1, shortlist_calls)));
    }

    const ServeLatency entity = TimeQueries(
        [&](int64_t i) {
          serve::QueryRequest request;
          request.kind = serve::QueryRequest::Kind::kEntity;
          request.entity = static_cast<EntityId>(i % sources);
          request.k = k;
          const auto response = engine.Execute(request);
          LARGEEA_CHECK(response.status.ok());
        },
        min_time);
    const ServeLatency ann =
        TimeQueries([&](int64_t i) { name_query(i, /*exact=*/false); },
                    min_time);
    const ServeLatency exact =
        TimeQueries([&](int64_t i) { name_query(i, /*exact=*/true); },
                    min_time);

    // Recall of the ANN shortlist against the full scan, same queries,
    // same k, same exact re-rank scores on both sides.
    int64_t recalled = 0, expected = 0, top1_match = 0, top1_total = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      serve::QueryRequest request;
      request.kind = serve::QueryRequest::Kind::kName;
      request.name = queries[i];
      request.k = k;
      request.exact = true;
      const auto exact_response = engine.Execute(request);
      request.exact = false;
      const auto ann_response = engine.Execute(request);
      LARGEEA_CHECK(exact_response.status.ok());
      LARGEEA_CHECK(ann_response.status.ok());
      expected += static_cast<int64_t>(exact_response.candidates.size());
      for (const serve::Candidate& c : ann_response.candidates) {
        for (const serve::Candidate& e : exact_response.candidates) {
          if (e.target == c.target) {
            ++recalled;
            break;
          }
        }
      }
      if (!exact_response.candidates.empty() &&
          !ann_response.candidates.empty()) {
        ++top1_total;
        if (ann_response.candidates[0].target ==
            exact_response.candidates[0].target) {
          ++top1_match;
        }
      }
    }
    const double recall =
        expected > 0
            ? static_cast<double>(recalled) / static_cast<double>(expected)
            : 0.0;
    const double top1_rate =
        top1_total > 0
            ? static_cast<double>(top1_match) / static_cast<double>(top1_total)
            : 0.0;
    const double speedup = ann.p50_us > 0.0 ? exact.p50_us / ann.p50_us : 0.0;
    last_speedup = speedup;
    last_targets = targets;

    print_row(targets, "entity", entity);
    print_row(targets, "name_ann", ann);
    print_row(targets, "name_exact", exact);
    std::printf("%8d %-12s recall@%d %.3f  top1 %.3f  speedup %.1fx\n",
                targets, "ann_quality", k, recall, top1_rate, speedup);

    {
      bench::BenchJson::Row row;
      row.Set("targets", targets)
          .Set("path", "entity")
          .Set("items_per_sec", entity.qps)
          .Set("p50_us", entity.p50_us)
          .Set("p99_us", entity.p99_us)
          .Set("p999_us", entity.p999_us)
          .Set("k", k);
      json.Add(std::move(row));
    }
    {
      bench::BenchJson::Row row;
      row.Set("targets", targets)
          .Set("path", "name_ann")
          .Set("items_per_sec", ann.qps)
          .Set("p50_us", ann.p50_us)
          .Set("p99_us", ann.p99_us)
          .Set("p999_us", ann.p999_us)
          .Set("k", k)
          .Set("recall_at_k", recall)
          .Set("top1_match", top1_rate)
          .Set("ann_speedup_vs_scan", speedup);
      json.Add(std::move(row));
    }
    {
      bench::BenchJson::Row row;
      row.Set("targets", targets)
          .Set("path", "name_exact")
          .Set("items_per_sec", exact.qps)
          .Set("p50_us", exact.p50_us)
          .Set("p99_us", exact.p99_us)
          .Set("p999_us", exact.p999_us)
          .Set("k", k);
      json.Add(std::move(row));
    }
  }

  par::ThreadPool::Get().Shutdown();
  json.Write();
  if (min_ann_speedup > 0.0 && last_speedup < min_ann_speedup) {
    std::fprintf(stderr,
                 "serve sweep: ANN p50 speedup %.1fx at %d targets is below "
                 "the required %.1fx\n",
                 last_speedup, last_targets, min_ann_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace largeea

int main(int argc, char** argv) {
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--json-out", 0) == 0) {
      json_mode = true;
    }
  }
  if (json_mode) {
    const largeea::Flags flags(argc, argv);
    const std::string mode = flags.GetString("mode", "threads");
    if (mode == "backend") return largeea::RunBackendMatrix(flags);
    if (mode == "stream") return largeea::RunStreamSweep(flags);
    if (mode == "dag") return largeea::RunDagSweep(flags);
    if (mode == "profile") return largeea::RunProfileSweep(flags);
    if (mode == "serve") return largeea::RunServeSweep(flags);
    return largeea::RunKernelScaling(flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
