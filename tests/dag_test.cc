// Operator-DAG executor tests (src/dag/, DESIGN.md §14).
//
// Two layers:
//   * scheduler unit tests on toy graphs — serial order at concurrency
//     1, genuine overlap at concurrency 2, budget deferrals, release at
//     last consumer, first-error-by-node-id;
//   * pipeline equivalence — RunLargeEa is proven bit-identical to an
//     independent reference (Algorithm 1 composed from the public
//     per-operator calls, with no scheduler, checkpoint, or stream)
//     across thread counts × memory budgets × SIMD backends, its
//     checkpoints are byte-identical across schedules, --resume
//     re-executes only the dirty subgraph, and a wrong-shaped
//     checkpoint matrix is recomputed instead of fused.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/core/large_ea.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/dag/graph.h"
#include "src/dag/scheduler.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/dataset.h"
#include "src/name/data_augmentation.h"
#include "src/name/semantic_sim.h"
#include "src/name/string_sim.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/thread_pool.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Scheduler unit tests on toy graphs.

TEST(DagGraphTest, ValidateRejectsConsumerBeforeProducer) {
  dag::Graph graph;
  const int32_t v = graph.AddValue("v", true);
  // Consume v before any node produces it: the value stays an external
  // input (producer -1), which Validate accepts...
  graph.AddNode("consumer", {v}, {}, 0,
                [](dag::NodeContext&) { return OkStatus(); });
  ASSERT_TRUE(graph.Validate().ok());
  // ...but producing it *after* the consumer is a cycle in id order.
  graph.AddNode("late-producer", {}, {v}, 0,
                [](dag::NodeContext&) { return OkStatus(); });
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(DagSchedulerTest, ConcurrencyOneReproducesSerialOrder) {
  std::mutex mu;
  std::vector<std::string> order;
  const auto record = [&](std::string name) {
    return [&, name](dag::NodeContext&) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
      return OkStatus();
    };
  };
  dag::Graph graph;
  const int32_t a = graph.AddValue("a", true);
  const int32_t b = graph.AddValue("b", true);
  graph.AddNode("n0", {}, {a}, 0, record("n0"));
  graph.AddNode("n1", {}, {b}, 0, record("n1"));
  graph.AddNode("n2", {a, b}, {}, 0, record("n2"));

  dag::ScheduleOptions options;
  options.max_concurrency = 1;
  const auto result = dag::Execute(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(order, (std::vector<std::string>{"n0", "n1", "n2"}));
  ASSERT_EQ(result->node_runs.size(), 3u);
  EXPECT_EQ(result->total_deferrals, 0);
  EXPECT_FALSE(result->critical_path.empty());
}

TEST(DagSchedulerTest, IndependentNodesGenuinelyOverlap) {
  // Handshake: each node waits (bounded) for the other to start. Only a
  // scheduler that actually has both in flight at once can finish.
  std::atomic<int> started{0};
  const auto handshake = [&](dag::NodeContext&) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        return InternalError("peer never started: nodes did not overlap");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return OkStatus();
  };
  dag::Graph graph;
  graph.AddNode("left", {}, {}, 0, handshake);
  graph.AddNode("right", {}, {}, 0, handshake);

  dag::ScheduleOptions options;
  options.max_concurrency = 2;
  const auto result = dag::Execute(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(started.load(), 2);
}

TEST(DagSchedulerTest, TinyBudgetDefersButStillRunsEverything) {
  // Two independent hogs each declare a footprint larger than the whole
  // budget: the progress guarantee admits one at a time and the second
  // admission attempt must be deferred at least once.
  std::atomic<int> ran{0};
  const auto body = [&](dag::NodeContext&) {
    ran.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return OkStatus();
  };
  dag::Graph graph;
  graph.AddNode("hog0", {}, {}, int64_t{1} << 30, body);
  graph.AddNode("hog1", {}, {}, int64_t{1} << 30, body);
  graph.AddNode("hog2", {}, {}, int64_t{1} << 30, body);

  dag::ScheduleOptions options;
  options.max_concurrency = 4;
  options.memory_budget_bytes = 1 << 20;
  const auto result = dag::Execute(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_GT(result->total_deferrals, 0);
}

TEST(DagSchedulerTest, ReleasesValueAtLastConsumerOnly) {
  std::atomic<bool> released{false};
  std::atomic<bool> released_before_consumers{false};
  const auto noop = [](dag::NodeContext&) { return OkStatus(); };
  const auto check = [&](dag::NodeContext&) {
    if (released.load()) released_before_consumers.store(true);
    return OkStatus();
  };
  dag::Graph graph;
  const int32_t mid =
      graph.AddValue("mid", /*retain=*/false, [&] { released.store(true); });
  const int32_t kept =
      graph.AddValue("kept", /*retain=*/true, [&] { released.store(true); });
  graph.AddNode("producer", {}, {mid, kept}, 0, noop);
  graph.AddNode("consumer0", {mid}, {}, 0, check);
  graph.AddNode("consumer1", {mid, kept}, {}, 0, check);

  dag::ScheduleOptions options;
  options.max_concurrency = 1;
  ASSERT_TRUE(dag::Execute(graph, options).ok());
  // `mid` was released after its last consumer, never before one ran;
  // the retained value's release closure was never invoked (it shares
  // the flag, which a second invocation would not change — so pair it
  // with the ordering check).
  EXPECT_TRUE(released.load());
  EXPECT_FALSE(released_before_consumers.load());
}

TEST(DagSchedulerTest, ReportsFirstErrorInSerialOrder) {
  // Both roots fail; the error surfaced must be the one the serial
  // order would have hit first (lowest node id), at any concurrency.
  dag::Graph graph;
  graph.AddNode("slow-early-failure", {}, {}, 0, [](dag::NodeContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return InternalError("early");
  });
  graph.AddNode("fast-late-failure", {}, {}, 0, [](dag::NodeContext&) {
    return InternalError("late");
  });
  graph.AddNode("downstream", {}, {}, 0, [](dag::NodeContext&) {
    return InternalError("downstream must never run after a failure");
  });

  dag::ScheduleOptions options;
  options.max_concurrency = 2;
  const auto result = dag::Execute(graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("early"), std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------
// Pipeline equivalence: RunLargeEa vs an independent reference.

/// Algorithm 1 as a straight composition of the public per-operator
/// calls (the ones e2ebench/probe.cc times): no scheduler, checkpoint,
/// or stream context, so nothing it shares with RunLargeEa beyond the
/// operators themselves.
LargeEaResult ReferenceRun(const EaDataset& dataset,
                           const LargeEaOptions& options) {
  const NameChannelOptions& n = options.name_channel;
  LargeEaResult result;
  SparseSimMatrix name;
  if (options.use_name_channel) {
    const SparseSimMatrix semantic =
        ComputeSemanticSimilarity(dataset.source, dataset.target, n.nff.sens);
    const SparseSimMatrix string =
        ComputeStringSimilarity(dataset.source, dataset.target, n.nff.stns);
    name = semantic.Fuse(string, 1.0f, n.nff.string_weight,
                         n.nff.max_entries_per_row);
    if (n.enable_augmentation) {
      result.pseudo_seeds = GeneratePseudoSeeds(name, dataset.split.train,
                                                n.augmentation_margin);
    }
  }
  result.effective_seeds = dataset.split.train;
  result.effective_seeds.insert(result.effective_seeds.end(),
                                result.pseudo_seeds.begin(),
                                result.pseudo_seeds.end());
  SparseSimMatrix structure;
  if (options.use_structure_channel) {
    const StructureChannelOptions& s = options.structure_channel;
    auto batches = PrepareStructureBatches(
        dataset.source, dataset.target, result.effective_seeds, s, nullptr);
    EXPECT_TRUE(batches.ok()) << batches.status().ToString();
    auto trained = TrainStructureChannel(dataset.source, dataset.target,
                                         std::move(batches).value(), s);
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    structure = std::move(trained->similarity);
  }
  if (options.use_name_channel && options.use_structure_channel &&
      options.fuse_name_similarity) {
    result.fused = structure.Fuse(name, options.structure_weight,
                                  options.name_weight, options.fused_top_k);
  } else if (options.use_structure_channel) {
    result.fused = std::move(structure);
  } else {
    result.fused = std::move(name);
  }
  result.metrics = Evaluate(result.fused, dataset.split.test);
  return result;
}

uint64_t FusedHash(const SparseSimMatrix& m) {
  std::string bytes;
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    bytes.append(reinterpret_cast<const char*>(row.data()),
                 row.size_bytes());
  }
  return rt::Fnv1a64(bytes);
}

class DagPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 300;
    dataset_ = new EaDataset(GenerateBenchmark(spec));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const EaDataset& dataset() { return *dataset_; }

  void SetUp() override {
    rt::FaultInjector::Get().Reset();
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    rt::FaultInjector::Get().Reset();
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  static LargeEaOptions BaseOptions() {
    LargeEaOptions options;
    options.structure_channel.train.epochs = 3;
    options.structure_channel.num_batches = 2;
    options.stream.memory_budget_mb = 0;  // explicit: in-memory
    return options;
  }

  static void ExpectSameResult(const LargeEaResult& a,
                               const LargeEaResult& b) {
    ASSERT_EQ(a.fused.num_rows(), b.fused.num_rows());
    for (int32_t r = 0; r < a.fused.num_rows(); ++r) {
      const auto ra = a.fused.Row(r);
      const auto rb = b.fused.Row(r);
      ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
      for (size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(ra[i].column, rb[i].column) << "row " << r;
        // Bit-exact on purpose: the schedule must not perturb one ulp.
        ASSERT_EQ(ra[i].score, rb[i].score) << "row " << r;
      }
    }
    EXPECT_EQ(a.effective_seeds, b.effective_seeds);
    EXPECT_DOUBLE_EQ(a.metrics.hits_at_1, b.metrics.hits_at_1);
    EXPECT_DOUBLE_EQ(a.metrics.hits_at_5, b.metrics.hits_at_5);
    EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr);
  }

  std::string CheckpointDir(const std::string& name) {
    const std::string dir =
        (fs::temp_directory_path() / ("largeea_dag_" + name)).string();
    fs::remove_all(dir);
    if (dir_.empty()) dir_ = dir;  // best-effort cleanup anchor
    return dir;
  }

  /// filename -> content hash for every checkpoint artifact in `dir`.
  static std::map<std::string, uint64_t> DirHashes(const std::string& dir) {
    std::map<std::string, uint64_t> hashes;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const auto bytes = rt::ReadFileToString(entry.path().string());
      if (bytes.ok()) {
        hashes[entry.path().filename().string()] = rt::Fnv1a64(*bytes);
      }
    }
    return hashes;
  }

  std::string dir_;
  int32_t saved_threads_ = 1;

 private:
  static const EaDataset* dataset_;
};

const EaDataset* DagPipelineTest::dataset_ = nullptr;

TEST_F(DagPipelineTest, MatchesReferenceAcrossThreadsAndBudgets) {
  const LargeEaResult reference = ReferenceRun(dataset(), BaseOptions());

  for (const int32_t threads : {1, 2, 8}) {
    for (const int64_t budget_mb : {int64_t{0}, int64_t{1}}) {
      par::ThreadPool::Get().SetNumThreads(threads);
      LargeEaOptions options = BaseOptions();
      options.stream.memory_budget_mb = budget_mb;
      if (budget_mb > 0) options.stream.tile_rows = 64;
      const auto scheduled = RunLargeEa(dataset(), options);
      ASSERT_TRUE(scheduled.ok())
          << "threads=" << threads << " budget=" << budget_mb << ": "
          << scheduled.status().ToString();
      ExpectSameResult(reference, *scheduled);
      EXPECT_FALSE(scheduled->schedule.node_runs.empty());
      EXPECT_GT(scheduled->schedule.critical_path_seconds, 0.0);
      EXPECT_FALSE(scheduled->schedule.critical_path.empty());
    }
  }
}

TEST_F(DagPipelineTest, UnbudgetedRunReleasesIntermediates) {
  // Every run, budgeted or not, consumes M_se, M_st, M_n and M_s in its
  // fusions and releases them; M, the seeds and the metrics stay. Once
  // the run returns, the only tracked bytes it leaves behind are M's.
  const LargeEaResult reference = ReferenceRun(dataset(), BaseOptions());
  const int64_t before = MemoryTracker::Get().CurrentBytes();
  const auto run = RunLargeEa(dataset(), BaseOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(MemoryTracker::Get().CurrentBytes() - before,
            run->fused.MemoryBytes());
  EXPECT_GT(run->fused.MemoryBytes(), 0);
  ExpectSameResult(reference, *run);
  EXPECT_EQ(FusedHash(run->fused), FusedHash(reference.fused));
  EXPECT_EQ(run->pseudo_seeds, reference.pseudo_seeds);
  EXPECT_FALSE(run->pseudo_seeds.empty());
  EXPECT_GT(run->metrics.num_test_pairs, 0);
}

TEST_F(DagPipelineTest, MatchesReferenceOnScalarBackend) {
  const simd::Backend original = simd::ActiveBackend();
  simd::SetBackend(simd::Backend::kScalar);
  const LargeEaResult reference = ReferenceRun(dataset(), BaseOptions());

  par::ThreadPool::Get().SetNumThreads(4);
  const auto scheduled = RunLargeEa(dataset(), BaseOptions());
  simd::SetBackend(original);
  ASSERT_TRUE(scheduled.ok()) << scheduled.status().ToString();
  ExpectSameResult(reference, *scheduled);
}

TEST_F(DagPipelineTest, ChecksDagBudgetComplianceGauge) {
  LargeEaOptions options = BaseOptions();
  options.stream.memory_budget_mb = 256;  // generous: must be compliant
  options.stream.tile_rows = 64;
  const auto run = RunLargeEa(dataset(), options);
  ASSERT_TRUE(run.ok());
  auto& metrics = obs::MetricsRegistry::Get();
  EXPECT_EQ(metrics.GetGauge("dag.budget.compliant").Value(), 1.0);
}

TEST_F(DagPipelineTest, ChecksNodeStatsCoverEveryOperator) {
  par::ThreadPool::Get().SetNumThreads(4);
  LargeEaOptions options = BaseOptions();
  const auto run = RunLargeEa(dataset(), options);
  ASSERT_TRUE(run.ok());
  std::vector<std::string> names;
  for (const dag::NodeRun& node : run->schedule.node_runs) {
    names.push_back(node.name);
  }
  for (const char* expected :
       {"name_semantic", "name_string", "name_fuse", "name_augmentation",
        "seed_augmentation", "partition", "structure_train", "fusion",
        "evaluate"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing node " << expected;
  }
}

TEST_F(DagPipelineTest, CheckpointsAreByteIdenticalAcrossSchedules) {
  // The checkpoint contract is schedule-invariant: one thread
  // unbudgeted and eight threads under a tiny budget write the same
  // artifact set, byte for byte. (Nodes persist full intermediate
  // artifacts regardless of the budget — that is what makes this
  // possible; see DESIGN.md §14.)
  par::ThreadPool::Get().SetNumThreads(1);
  LargeEaOptions first = BaseOptions();
  first.fault_tolerance.checkpoint_dir = CheckpointDir("bytes_1t");
  ASSERT_TRUE(RunLargeEa(dataset(), first).ok());

  par::ThreadPool::Get().SetNumThreads(8);
  LargeEaOptions second = BaseOptions();
  second.stream.memory_budget_mb = 1;
  second.stream.tile_rows = 64;
  second.fault_tolerance.checkpoint_dir = CheckpointDir("bytes_8t");
  ASSERT_TRUE(RunLargeEa(dataset(), second).ok());

  const auto a = DirHashes(first.fault_tolerance.checkpoint_dir);
  const auto b = DirHashes(second.fault_tolerance.checkpoint_dir);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  fs::remove_all(first.fault_tolerance.checkpoint_dir);
  fs::remove_all(second.fault_tolerance.checkpoint_dir);
}

// A resume of an unchanged run marks every node whose artifact loaded —
// the partition node's batch set included — as from checkpoint, and only
// those: the nodes that persist nothing run again.
TEST_F(DagPipelineTest, ResumeMarksEveryNodeWhoseArtifactLoaded) {
  LargeEaOptions options = BaseOptions();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("marks");
  ASSERT_TRUE(RunLargeEa(dataset(), options).ok());
  options.fault_tolerance.resume = true;
  const auto resumed = RunLargeEa(dataset(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  std::vector<std::string> marked;
  for (const dag::NodeRun& node : resumed->schedule.node_runs) {
    if (node.from_checkpoint) marked.push_back(node.name);
  }
  std::sort(marked.begin(), marked.end());
  EXPECT_EQ(marked, (std::vector<std::string>{
                        "fusion", "name_augmentation", "name_fuse",
                        "name_semantic", "name_string", "partition",
                        "structure_train"}));
}

TEST_F(DagPipelineTest, ResumeReExecutesOnlyTheDirtySubgraph) {
  LargeEaOptions options = BaseOptions();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("dirty");
  ASSERT_TRUE(RunLargeEa(dataset(), options).ok());

  // Change a training knob: everything downstream of `partition` is
  // dirty, the name channel is not.
  LargeEaOptions changed = options;
  changed.structure_channel.train.epochs = 5;
  changed.fault_tolerance.resume = true;
#if LARGEEA_FAULT_INJECTION
  rt::FaultInjector::Get().Reset();  // zero the hit counters
#endif
  const auto resumed = RunLargeEa(dataset(), changed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // The name channel resumed: each of its four nodes restored its
  // artifact.
  for (const char* node : {"name_semantic", "name_string", "name_fuse",
                           "name_augmentation"}) {
    const dag::NodeRun* run = resumed->schedule.Find(node);
    ASSERT_NE(run, nullptr) << node;
    EXPECT_TRUE(run->from_checkpoint) << node;
  }
  EXPECT_EQ(resumed->batches_resumed, 0);
#if LARGEEA_FAULT_INJECTION
  // The name features were restored, not recomputed: the fault point
  // inside the compute path was never reached.
  EXPECT_EQ(rt::FaultInjector::Get().HitCount("name.features"), 0);
#endif

  // And the selective resume is still bit-identical to a fresh run of
  // the changed configuration.
  LargeEaOptions fresh = changed;
  fresh.fault_tolerance = {};
  const auto baseline = RunLargeEa(dataset(), fresh);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(FusedHash(baseline->fused), FusedHash(resumed->fused));
}

TEST_F(DagPipelineTest, WrongShapedCheckpointMatrixIsRecomputed) {
  // Budgeted runs of the former serial executor left an empty
  // name_semantic under a fingerprint that promises full bytes. A
  // resume whose name_fuse node recomputes must treat it like a
  // fingerprint mismatch — count it, recompute — instead of fusing it.
  LargeEaOptions changed = BaseOptions();
  changed.name_channel.nff.string_weight = 0.5f;
  const auto fresh = RunLargeEa(dataset(), changed);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Every artifact downstream of name_fuse is stale under the edit, so
  // an intact directory's resume sets the expected failure count.
  const auto resume_load_failures = [&](const std::string& dir,
                                        bool empty_semantic) -> int64_t {
    LargeEaOptions first = BaseOptions();
    first.fault_tolerance.checkpoint_dir = dir;
    EXPECT_TRUE(RunLargeEa(dataset(), first).ok());
    if (empty_semantic) {
      rt::CheckpointManager checkpoint = MakePipelineCheckpointManager(
          dataset(), first, dir, /*resume=*/false);
      EXPECT_TRUE(checkpoint.SaveMatrix("name_semantic", SparseSimMatrix())
                      .ok());
    }
    LargeEaOptions resume = changed;
    resume.fault_tolerance.checkpoint_dir = dir;
    resume.fault_tolerance.resume = true;
    obs::Counter& failures = obs::MetricsRegistry::Get().GetCounter(
        "checkpoint.load_failures");
    const int64_t before = failures.Value();
    const auto resumed = RunLargeEa(dataset(), resume);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
    if (resumed.ok()) ExpectSameResult(*fresh, *resumed);
    return failures.Value() - before;
  };
  const std::string intact_dir = CheckpointDir("shape_intact");
  const std::string emptied_dir = CheckpointDir("shape_empty");
  const int64_t intact =
      resume_load_failures(intact_dir, /*empty_semantic=*/false);
  const int64_t emptied =
      resume_load_failures(emptied_dir, /*empty_semantic=*/true);
  EXPECT_EQ(emptied, intact + 1);
  fs::remove_all(intact_dir);
  fs::remove_all(emptied_dir);
}

TEST_F(DagPipelineTest, BothChannelsDisabledIsInvalidArgument) {
  LargeEaOptions options = BaseOptions();
  options.use_name_channel = false;
  options.use_structure_channel = false;
  const auto run = RunLargeEa(dataset(), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DagPipelineTest, TraceShowsNodeSpansAndFlowEvents) {
  par::ThreadPool::Get().SetNumThreads(4);
  auto& recorder = obs::TraceRecorder::Get();
  recorder.Clear();
  recorder.Enable();
  LargeEaOptions options = BaseOptions();
  const auto run = RunLargeEa(dataset(), options);
  recorder.Disable();
  ASSERT_TRUE(run.ok());

  bool saw_semantic = false;
  bool saw_string = false;
  for (const obs::SpanRecord& span : recorder.Records()) {
    if (span.name == "dag/name_semantic") saw_semantic = true;
    if (span.name == "dag/name_string") saw_string = true;
  }
  EXPECT_TRUE(saw_semantic);
  EXPECT_TRUE(saw_string);

  // Flow arrows along the edges: every end has a matching start id.
  const auto flows = recorder.Flows();
  EXPECT_FALSE(flows.empty());
  for (const obs::FlowRecord& flow : flows) {
    if (flow.start) continue;
    bool matched = false;
    for (const obs::FlowRecord& other : flows) {
      if (other.start && other.id == flow.id) matched = true;
    }
    EXPECT_TRUE(matched) << "unmatched flow end id " << flow.id;
  }
  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  recorder.Clear();
}

}  // namespace
}  // namespace largeea
