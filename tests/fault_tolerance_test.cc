// Crash/resume and graceful-degradation tests for the fault-tolerant
// pipeline runtime (src/rt/ + the checkpoint wiring in the channels).
//
// The core property (DESIGN.md §7): for every registered fault point, an
// injected failure either (a) fails the run cleanly and a --resume run
// reproduces the uninterrupted result bit-identically, or (b) degrades
// gracefully with the damage counted and visible — never a crash, never a
// silently wrong answer.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/core/config.h"
#include "src/core/large_ea.h"
#include "src/core/pipeline_fingerprint.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/dataset.h"
#include "src/kg/kg_io.h"
#include "src/par/thread_pool.h"
#include "src/rt/checkpoint.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/shard/orchestrator.h"
#include "src/shard/subprocess.h"

namespace largeea {
namespace {

#if LARGEEA_FAULT_INJECTION

namespace fs = std::filesystem;

/// The in-process trainer, copying the structure channel's own M_s into
/// `out`: a run releases M_s once fusion has consumed it.
StructureTrainer KeepingStructure(SparseSimMatrix* out) {
  return [out](const KnowledgeGraph& source, const KnowledgeGraph& target,
               MiniBatchSet batches, const StructureChannelOptions& options,
               rt::CheckpointManager* checkpoint) {
    auto trained = TrainStructureChannel(source, target, std::move(batches),
                                         options, checkpoint);
    if (trained.ok()) *out = trained->similarity;
    return trained;
  };
}

/// "The name channel resumed": each of its four nodes restored its
/// checkpoint artifact instead of computing.
bool NameChannelResumed(const LargeEaResult& run) {
  for (const char* node : {"name_semantic", "name_string", "name_fuse",
                           "name_augmentation"}) {
    const dag::NodeRun* r = run.schedule.Find(node);
    if (r == nullptr || !r->from_checkpoint) return false;
  }
  return true;
}

void ExpectBitIdentical(const LargeEaResult& a, const LargeEaResult& b) {
  ASSERT_EQ(a.fused.num_rows(), b.fused.num_rows());
  ASSERT_EQ(a.fused.num_cols(), b.fused.num_cols());
  for (int32_t r = 0; r < a.fused.num_rows(); ++r) {
    const auto ra = a.fused.Row(r);
    const auto rb = b.fused.Row(r);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].column, rb[i].column) << "row " << r;
      // Bit-exact float equality, deliberately not EXPECT_FLOAT_EQ: a
      // resumed run must be indistinguishable from an uninterrupted one.
      EXPECT_EQ(ra[i].score, rb[i].score) << "row " << r;
    }
  }
  EXPECT_EQ(a.effective_seeds, b.effective_seeds);
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_1, b.metrics.hits_at_1);
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_5, b.metrics.hits_at_5);
  EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr);
}

class FaultToleranceTest : public ::testing::Test {
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
    // Which batch absorbs the Nth structure.batch.train hit depends on
    // scheduling once batches train concurrently, so the crash matrix
    // pins the pool to one thread (the tsan preset otherwise forces
    // LARGEEA_THREADS=4). Thread-count invariance of the *results* is
    // covered by par_determinism_test.cc.
    saved_threads_ = par::ThreadPool::Get().num_threads();
    par::ThreadPool::Get().SetNumThreads(1);
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    rt::FaultInjector::Get().Reset();
    fs::remove_all(dir_);
  }

  /// Pipeline options shaped for the crash matrix: small and fast, no
  /// retries (a failing batch fails the run, like a real crash).
  static LargeEaOptions Options() {
    LargeEaOptions options;
    options.structure_channel.num_batches = 3;
    options.structure_channel.train.epochs = 10;
    options.structure_channel.max_batch_retries = 0;
    options.structure_channel.drop_failed_batches = false;
    return options;
  }

  std::string CheckpointDir(const std::string& name) {
    dir_ = (fs::temp_directory_path() / ("largeea_ft_" + name)).string();
    fs::remove_all(dir_);
    return dir_;
  }

  std::string dir_;
  int32_t saved_threads_ = 1;

 private:
  static const EaDataset* dataset_;
};

const EaDataset* FaultToleranceTest::dataset_ = nullptr;

TEST_F(FaultToleranceTest, CrashResumeMatrixIsBitIdentical) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), Options()).value();

  // One crash site per pipeline seam; structure.batch.train is exercised
  // at every batch boundary (hit = batch index + 1).
  struct CrashCase {
    const char* point;
    int32_t trigger_on_hit;
  };
  const CrashCase cases[] = {
      {"name.features", 1},
      {"name.augmentation", 1},
      {"partition.metis_cps", 1},
      {"structure.batch.train", 1},
      {"structure.batch.train", 2},
      {"structure.batch.train", 3},
      {"structure.csls", 1},
      {"pipeline.fusion", 1},
      {"pipeline.evaluate", 1},
  };
  auto& injector = rt::FaultInjector::Get();
  for (const CrashCase& c : cases) {
    SCOPED_TRACE(std::string(c.point) + " @hit " +
                 std::to_string(c.trigger_on_hit));
    LargeEaOptions options = Options();
    options.fault_tolerance.checkpoint_dir =
        CheckpointDir(std::string("crash_") + c.point + "_" +
                      std::to_string(c.trigger_on_hit));

    // Run 1: the "crash". The injected kAborted must surface as a clean
    // contextful error, never a crash or a wrong answer.
    rt::FaultSpec spec;
    spec.code = StatusCode::kAborted;
    spec.message = "simulated crash";
    spec.trigger_on_hit = c.trigger_on_hit;
    injector.Arm(c.point, spec);
    const auto crashed = RunLargeEa(dataset(), options);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
    EXPECT_NE(crashed.status().message().find("simulated crash"),
              std::string::npos);
    injector.Disarm(c.point);

    // Run 2: resume from whatever the crashed run managed to persist.
    options.fault_tolerance.resume = true;
    const auto resumed = RunLargeEa(dataset(), options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectBitIdentical(baseline, *resumed);
    fs::remove_all(dir_);
  }

  // Coverage guard: every fault point the pipeline actually hits must be
  // in the matrix above (or covered by the dedicated tests below), so a
  // new seam cannot be added without a crash/resume story.
  const std::set<std::string> covered = {
      "name.features",    "name.augmentation", "partition.metis_cps",
      "structure.batch.train", "structure.csls", "pipeline.fusion",
      "pipeline.evaluate",
      "checkpoint.write",  // best-effort by contract, tested below
  };
  for (const std::string& seen : injector.SeenPoints()) {
    EXPECT_TRUE(covered.contains(seen))
        << "fault point '" << seen << "' has no crash/resume test";
  }
}

TEST_F(FaultToleranceTest, ResumeAfterBatchCrashReplaysOnlyMissingBatches) {
  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("partial");

  rt::FaultSpec spec;
  spec.code = StatusCode::kAborted;
  spec.trigger_on_hit = 3;  // batches 0 and 1 complete, batch 2 dies
  rt::FaultInjector::Get().Arm("structure.batch.train", spec);
  ASSERT_FALSE(RunLargeEa(dataset(), options).ok());
  rt::FaultInjector::Get().Disarm("structure.batch.train");

  options.fault_tolerance.resume = true;
  const auto resumed = RunLargeEa(dataset(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // Two blocks came from checkpoints, only the in-flight one retrained.
  EXPECT_EQ(resumed->batches_resumed, 2);
  EXPECT_TRUE(NameChannelResumed(*resumed));
}

TEST_F(FaultToleranceTest, CorruptCheckpointIsRecomputedNotTrusted) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), Options()).value();

  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("corrupt");
  ASSERT_TRUE(RunLargeEa(dataset(), options).ok());

  // Flip bytes in one batch checkpoint; resume must detect DATA_LOSS,
  // retrain that batch, and still match the baseline bit-for-bit.
  const std::string victim = dir_ + "/batch_0001.ckpt";
  ASSERT_TRUE(fs::exists(victim));
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  options.fault_tolerance.resume = true;
  const auto resumed = RunLargeEa(dataset(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdentical(baseline, *resumed);
  EXPECT_EQ(resumed->batches_resumed, 2);
}

TEST_F(FaultToleranceTest, StaleFingerprintInvalidatesCheckpoints) {
  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("stale");
  ASSERT_TRUE(RunLargeEa(dataset(), options).ok());

  // Same directory, different result-affecting configuration: stale
  // artifacts must be recomputed, not silently reused. With per-node
  // fingerprints (DESIGN.md §14) only the dirty subgraph re-executes:
  // a changed epoch count invalidates the batch and fused artifacts but
  // the name channel — upstream of the edit — still resumes.
  LargeEaOptions changed = options;
  changed.structure_channel.train.epochs = 12;
  changed.fault_tolerance.resume = true;
  const auto resumed = RunLargeEa(dataset(), changed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(NameChannelResumed(*resumed));
  EXPECT_EQ(resumed->batches_resumed, 0);

  LargeEaOptions fresh = changed;
  fresh.fault_tolerance = {};
  ExpectBitIdentical(RunLargeEa(dataset(), fresh).value(), *resumed);
}

TEST_F(FaultToleranceTest, FailedBatchIsDroppedAndCounted) {
  LargeEaOptions options = Options();
  options.structure_channel.max_batch_retries = 2;
  options.structure_channel.drop_failed_batches = true;

  // Batch 1 fails its first attempt and both retries; batches 0 and 2
  // are untouched.
  rt::FaultSpec spec;
  spec.trigger_on_hit = 2;
  spec.max_triggers = 3;
  rt::FaultInjector::Get().Arm("structure.batch.train", spec);
  SparseSimMatrix structure;
  const auto degraded =
      RunLargeEa(dataset(), options, KeepingStructure(&structure));
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->batches_dropped, 1);
  EXPECT_EQ(degraded->batches_retried, 2);

  // The dropped batch's structural similarity block is zero — visible
  // damage, not a silently wrong answer.
  const MiniBatch& dropped = degraded->batches[1];
  for (const EntityId e : dropped.source_entities) {
    EXPECT_TRUE(structure.Row(e).empty());
  }
  // The run is still a valid (degraded) alignment.
  EXPECT_GT(degraded->metrics.hits_at_1, 0.0);
}

TEST_F(FaultToleranceTest, RetryRecoversFromTransientFault) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), Options()).value();

  LargeEaOptions options = Options();
  options.structure_channel.max_batch_retries = 2;
  options.structure_channel.drop_failed_batches = true;

  // Fails once, then the retry succeeds — a transient fault costs one
  // retry and changes nothing about the result.
  rt::FaultSpec spec;
  spec.trigger_on_hit = 2;
  spec.max_triggers = 1;
  rt::FaultInjector::Get().Arm("structure.batch.train", spec);
  const auto recovered = RunLargeEa(dataset(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->batches_dropped, 0);
  EXPECT_EQ(recovered->batches_retried, 1);
  ExpectBitIdentical(baseline, *recovered);
}

TEST_F(FaultToleranceTest, CheckpointWriteFailuresNeverFailTheRun) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), Options()).value();

  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("wfail");
  rt::FaultSpec spec;
  spec.max_triggers = -1;  // every checkpoint write fails
  rt::FaultInjector::Get().Arm("checkpoint.write", spec);
  const auto result = RunLargeEa(dataset(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdentical(baseline, *result);
  rt::FaultInjector::Get().Disarm("checkpoint.write");

  // Nothing was persisted, so a resume recomputes everything — and still
  // matches.
  options.fault_tolerance.resume = true;
  const auto resumed = RunLargeEa(dataset(), options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->batches_resumed, 0);
  ExpectBitIdentical(baseline, *resumed);
}

TEST_F(FaultToleranceTest, ResumeOfCompletedRunIsInstantAndIdentical) {
  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("complete");
  const LargeEaResult first = RunLargeEa(dataset(), options).value();

  options.fault_tolerance.resume = true;
  const auto second = RunLargeEa(dataset(), options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(NameChannelResumed(*second));
  EXPECT_EQ(second->batches_resumed, 3);
  ExpectBitIdentical(first, *second);
}

// ---------------------------------------------------------------------------
// Multi-process shard chaos matrix (DESIGN.md §12). Real largeea_cli
// worker subprocesses are SIGKILLed mid-phase, frozen with SIGSTOP,
// denied checkpoint writes, and fed corrupt artifacts; every scenario
// must end in a bit-identical fused matrix or an explicitly counted
// degradation — never a hang, never a silently wrong answer. Worker
// failure schedules travel via LARGEEA_FAULTS / LARGEEA_FAULTS_SHARD in
// the spawned environment, so the test process's own injector state
// never leaks into the children.
// ---------------------------------------------------------------------------

#ifdef LARGEEA_CLI_BIN

class ShardChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Generate once, write to TSV, and load BACK from TSV: the
    // orchestrator (in-process) and the workers (subprocesses reading
    // the same files) must see an identical dataset, or the config
    // fingerprints diverge and every artifact is rejected.
    BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
    spec.world.num_entities = 300;
    const EaDataset generated = GenerateBenchmark(spec);
    tsv_dir_ = new std::string(
        (fs::temp_directory_path() / "largeea_shard_chaos_data").string());
    fs::remove_all(*tsv_dir_);
    fs::create_directories(*tsv_dir_);
    ASSERT_TRUE(
        SaveTriples(generated.source, *tsv_dir_ + "/source.tsv").ok());
    ASSERT_TRUE(
        SaveTriples(generated.target, *tsv_dir_ + "/target.tsv").ok());
    ASSERT_TRUE(SaveAlignment(generated.split.train, generated.source,
                              generated.target, *tsv_dir_ + "/train.tsv")
                    .ok());
    ASSERT_TRUE(SaveAlignment(generated.split.test, generated.source,
                              generated.target, *tsv_dir_ + "/test.tsv")
                    .ok());
    EaDatasetPaths paths;
    paths.source_triples = *tsv_dir_ + "/source.tsv";
    paths.target_triples = *tsv_dir_ + "/target.tsv";
    paths.train_pairs = *tsv_dir_ + "/train.tsv";
    paths.test_pairs = *tsv_dir_ + "/test.tsv";
    auto loaded = LoadEaDataset(paths, {}, "chaos");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    dataset_ = new EaDataset(std::move(loaded).value());
  }
  static void TearDownTestSuite() {
    fs::remove_all(*tsv_dir_);
    delete tsv_dir_;
    tsv_dir_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }
  static const EaDataset& dataset() { return *dataset_; }

  void SetUp() override {
    rt::FaultInjector::Get().Reset();
    saved_threads_ = par::ThreadPool::Get().num_threads();
    par::ThreadPool::Get().SetNumThreads(1);
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    rt::FaultInjector::Get().Reset();
    fs::remove_all(dir_);
  }

  /// One flag list drives BOTH sides: the in-process orchestrator's
  /// LargeEaOptions parse from it (OptionsFromArgs) and the workers
  /// receive it verbatim as their command line — so the two cannot
  /// disagree on anything that enters the config fingerprint.
  /// --threads=1 keeps per-worker batch training sequential, which makes
  /// "the Nth structure.batch.train hit" a deterministic batch index.
  static std::vector<std::string> AlignArgs(const std::string& ckpt_dir) {
    return {"run",
            "--source=" + *tsv_dir_ + "/source.tsv",
            "--target=" + *tsv_dir_ + "/target.tsv",
            "--seeds=" + *tsv_dir_ + "/train.tsv",
            "--test=" + *tsv_dir_ + "/test.tsv",
            "--batches=3",
            "--epochs=10",
            "--threads=1",
            "--log-level=warn",
            "--checkpoint-dir=" + ckpt_dir};
  }

  static LargeEaOptions OptionsFromArgs(std::vector<std::string> args) {
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (std::string& a : args) argv.push_back(a.data());
    const Flags flags(static_cast<int>(argv.size()), argv.data());
    auto config = ConfigFromFlags(flags);
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    return config->pipeline;
  }

  shard::ShardOptions FastShardOptions(int32_t n,
                                       const std::string& ckpt_dir) {
    shard::ShardOptions s;
    s.num_shards = n;
    s.retry_backoff_ms = 10;
    s.heartbeat_interval_ms = 50;
    s.poll_interval_ms = 10;
    s.worker_command.push_back(LARGEEA_CLI_BIN);
    for (std::string& a : AlignArgs(ckpt_dir)) {
      s.worker_command.push_back(std::move(a));
    }
    return s;
  }

  std::string CheckpointDir(const std::string& name) {
    dir_ = (fs::temp_directory_path() / ("largeea_chaos_" + name)).string();
    fs::remove_all(dir_);
    return dir_;
  }

  std::string dir_;
  int32_t saved_threads_ = 1;

 private:
  static const EaDataset* dataset_;
  static std::string* tsv_dir_;
};

const EaDataset* ShardChaosTest::dataset_ = nullptr;
std::string* ShardChaosTest::tsv_dir_ = nullptr;

TEST_F(ShardChaosTest, ShardedRunIsBitIdenticalAtAnyShardCount) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();

  for (const int32_t n : {1, 2, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const std::string ckpt =
        CheckpointDir("identity_" + std::to_string(n));
    shard::ShardRunStats stats;
    const auto sharded = shard::RunShardedLargeEa(
        dataset(), OptionsFromArgs(AlignArgs(ckpt)),
        FastShardOptions(n, ckpt), &stats);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectBitIdentical(baseline, *sharded);
    EXPECT_EQ(stats.workers_launched, n);
    EXPECT_EQ(stats.shards_degraded, 0);
    fs::remove_all(dir_);
  }
}

TEST_F(ShardChaosTest, MoreShardsThanBatchesSpawnsOnlyNonEmptyShards) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();
  const std::string ckpt = CheckpointDir("surplus");
  shard::ShardRunStats stats;
  const auto sharded = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(ckpt)),
      FastShardOptions(5, ckpt), &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(baseline, *sharded);
  EXPECT_EQ(stats.workers_launched, 3);  // 3 batches -> 2 empty shards
}

TEST_F(ShardChaosTest, ZeroShardsFallsBackToSingleProcess) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();
  shard::ShardRunStats stats;
  const auto plain = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs("")), shard::ShardOptions{},
      &stats);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExpectBitIdentical(baseline, *plain);
  EXPECT_EQ(stats.workers_launched, 0);
}

TEST_F(ShardChaosTest, WorkerSigkilledMidTrainingIsRespawnedBitIdentically) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();
  const std::string ckpt = CheckpointDir("sigkill");

  // Two shards: worker 0 owns batches {0, 2}. Its 2nd batch-train hit
  // raises SIGKILL — batch 0's artifact is already on disk, so the
  // respawned attempt resumes it and only trains batch 2. The schedule
  // rides in the child environment; this process arms nothing.
  shard::ShardOptions sharding = FastShardOptions(2, ckpt);
  sharding.worker_env = {"LARGEEA_FAULTS=structure.batch.train@2=kill",
                         "LARGEEA_FAULTS_SHARD=0"};
  shard::ShardRunStats stats;
  const auto sharded = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(ckpt)), sharding, &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(baseline, *sharded);
  EXPECT_EQ(stats.workers_retried, 1);
  EXPECT_EQ(stats.workers_launched, 3);  // 2 initial + 1 respawn
  EXPECT_EQ(stats.shards_degraded, 0);
}

TEST_F(ShardChaosTest, ShardExhaustingRetriesDegradesToNameChannel) {
  const std::string ckpt = CheckpointDir("degrade");

  // Worker 1 is killed at startup on every attempt; with one retry it
  // exhausts and degrades. Its single batch must come back as a zero
  // block with the damage counted, while shards 0 and 2 are untouched.
  shard::ShardOptions sharding = FastShardOptions(3, ckpt);
  sharding.max_shard_retries = 1;
  sharding.worker_env = {"LARGEEA_FAULTS=shard.worker.start=kill",
                         "LARGEEA_FAULTS_SHARD=1"};
  shard::ShardRunStats stats;
  const auto degraded = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(ckpt)), sharding, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(stats.shards_degraded, 1);
  EXPECT_EQ(stats.workers_launched, 4);  // 3 initial + 1 retry of shard 1
  EXPECT_EQ(degraded->batches_dropped, 1);
  // The run released its M_s; the orchestrator's merge (merge-only
  // TrainStructureChannel over the shared checkpoints) rebuilds it.
  const LargeEaOptions options = OptionsFromArgs(AlignArgs(ckpt));
  rt::CheckpointManager checkpoint = MakePipelineCheckpointManager(
      dataset(), options, ckpt, /*resume=*/true);
  StructureChannelOptions merge = options.structure_channel;
  merge.resume_missing_batches_as_failed = true;
  merge.drop_failed_batches = true;
  const auto structure =
      TrainStructureChannel(dataset().source, dataset().target,
                            degraded->batches, merge,
                            &checkpoint);
  ASSERT_TRUE(structure.ok()) << structure.status().ToString();
  EXPECT_EQ(structure->batches_dropped, 1);
  const MiniBatch& dropped = degraded->batches[1];
  for (const EntityId e : dropped.source_entities) {
    EXPECT_TRUE(structure->similarity.Row(e).empty());
  }
  // Still a valid (explicitly degraded) alignment, not a wrong one.
  EXPECT_GT(degraded->metrics.hits_at_1, 0.0);

  // With degradation disabled the same failure is a clean channel error.
  const std::string strict_ckpt = CheckpointDir("degrade_strict");
  shard::ShardOptions strict = FastShardOptions(3, strict_ckpt);
  strict.max_shard_retries = 0;
  strict.degrade_failed_shards = false;
  strict.worker_env = sharding.worker_env;
  const auto failed = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(strict_ckpt)), strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

TEST_F(ShardChaosTest, HungWorkerIsDetectedKilledAndRecovered) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();
  const std::string ckpt = CheckpointDir("hang");

  // Worker 2 freezes (SIGSTOP — every thread, heartbeat included) in
  // finalize, AFTER its batch artifact hit the disk. The monitor must
  // notice the stale heartbeat, SIGKILL it, and accept the shard from
  // its completed artifacts without a respawn. Bounded: a missed hang
  // here is a test timeout, which is exactly the bug it guards against.
  shard::ShardOptions sharding = FastShardOptions(3, ckpt);
  sharding.heartbeat_interval_ms = 50;
  sharding.heartbeat_timeout_ms = 1500;
  sharding.worker_env = {"LARGEEA_FAULTS=shard.worker.finalize=stop",
                         "LARGEEA_FAULTS_SHARD=2"};
  shard::ShardRunStats stats;
  const auto sharded = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(ckpt)), sharding, &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(baseline, *sharded);
  EXPECT_EQ(stats.workers_killed_hung, 1);
  EXPECT_EQ(stats.shards_degraded, 0);
}

TEST_F(ShardChaosTest, WorkerWithFailingCheckpointDiskDegrades) {
  const std::string ckpt = CheckpointDir("diskfull");

  // Every checkpoint write in worker 1 fails (scratch disk full).
  // Training itself succeeds — the worker must still refuse to report
  // success, because its artifacts never reached the shared disk.
  shard::ShardOptions sharding = FastShardOptions(3, ckpt);
  sharding.max_shard_retries = 0;
  sharding.worker_env = {"LARGEEA_FAULTS=checkpoint.write@1x-1=fail",
                         "LARGEEA_FAULTS_SHARD=1"};
  shard::ShardRunStats stats;
  const auto degraded = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(ckpt)), sharding, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(stats.shards_degraded, 1);
  EXPECT_EQ(degraded->batches_dropped, 1);
  EXPECT_GT(degraded->metrics.hits_at_1, 0.0);
}

TEST_F(ShardChaosTest, CorruptShardArtifactIsRetrainedOnResume) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();
  const std::string ckpt = CheckpointDir("corrupt_shard");

  shard::ShardRunStats first_stats;
  ASSERT_TRUE(shard::RunShardedLargeEa(dataset(),
                                       OptionsFromArgs(AlignArgs(ckpt)),
                                       FastShardOptions(3, ckpt),
                                       &first_stats)
                  .ok());

  // Flip a byte in shard 1's only batch artifact, then resume the WHOLE
  // sharded run: the orchestrator must quarantine the corrupt artifact,
  // respawn only shard 1, and converge bit-identically.
  const std::string victim = ckpt + "/batch_0001.ckpt";
  ASSERT_TRUE(fs::exists(victim));
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  LargeEaOptions options = OptionsFromArgs(AlignArgs(ckpt));
  options.fault_tolerance.resume = true;
  shard::ShardRunStats stats;
  const auto resumed = shard::RunShardedLargeEa(
      dataset(), options, FastShardOptions(3, ckpt), &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdentical(baseline, *resumed);
  EXPECT_EQ(stats.workers_launched, 1);  // only the damaged shard
  EXPECT_EQ(stats.shards_resumed, 2);
  EXPECT_TRUE(fs::exists(victim + ".corrupt"));  // quarantined, kept
}

TEST_F(ShardChaosTest, OrchestratorKilledBeforeMergeResumesWithoutWorkers) {
  const LargeEaResult baseline =
      RunLargeEa(dataset(), OptionsFromArgs(AlignArgs(""))).value();
  const std::string ckpt = CheckpointDir("orch_crash");

  // The orchestrator "dies" after every worker finished but before the
  // merge (the in-process injection stands in for SIGKILLing the parent:
  // same observable state — complete shard artifacts, no fused matrix).
  rt::FaultSpec spec;
  spec.code = StatusCode::kAborted;
  spec.message = "orchestrator crash";
  rt::FaultInjector::Get().Arm("shard.orchestrator.merge", spec);
  const auto crashed = shard::RunShardedLargeEa(
      dataset(), OptionsFromArgs(AlignArgs(ckpt)),
      FastShardOptions(3, ckpt));
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  rt::FaultInjector::Get().Disarm("shard.orchestrator.merge");

  // Resume: every shard re-attaches to its completed artifacts; no
  // worker process is spawned at all.
  LargeEaOptions options = OptionsFromArgs(AlignArgs(ckpt));
  options.fault_tolerance.resume = true;
  shard::ShardRunStats stats;
  const auto resumed = shard::RunShardedLargeEa(
      dataset(), options, FastShardOptions(3, ckpt), &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdentical(baseline, *resumed);
  EXPECT_EQ(stats.workers_launched, 0);
  EXPECT_EQ(stats.shards_resumed, 3);
}

TEST_F(ShardChaosTest, BudgetedShardedRunResumesAfterFusionEdit) {
  // A sharded run under a tiny budget must checkpoint the name channel
  // in full, as any run does: a later resume that rejects the fused name
  // matrix (its string weight changed) rebuilds it from name_semantic and
  // name_string, which therefore must hold every source row.
  const std::string ckpt = CheckpointDir("budget_resume");
  const std::vector<std::string> budget = {"--memory-budget-mb=1",
                                           "--stream-tile-rows=64"};
  std::vector<std::string> args = AlignArgs(ckpt);
  args.insert(args.end(), budget.begin(), budget.end());
  shard::ShardOptions sharding = FastShardOptions(2, ckpt);
  sharding.worker_command.insert(sharding.worker_command.end(),
                                 budget.begin(), budget.end());
  const LargeEaOptions options = OptionsFromArgs(args);
  const auto sharded = shard::RunShardedLargeEa(dataset(), options, sharding);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  rt::CheckpointManager checkpoint = MakePipelineCheckpointManager(
      dataset(), options, ckpt, /*resume=*/true);
  for (const char* kind : {"name_semantic", "name_string"}) {
    const auto matrix = checkpoint.LoadMatrix(kind);
    ASSERT_TRUE(matrix.ok()) << kind << ": " << matrix.status().ToString();
    ASSERT_EQ(matrix->num_rows(), dataset().source.num_entities()) << kind;
  }

  // An unsharded resume with the fusion edit equals a fresh run of the
  // edited configuration, bit for bit.
  args.push_back("--string-weight=0.5");
  LargeEaOptions edited = OptionsFromArgs(args);
  edited.fault_tolerance.resume = true;
  const auto resumed = RunLargeEa(dataset(), edited);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  LargeEaOptions fresh = edited;
  fresh.fault_tolerance = {};
  const auto baseline = RunLargeEa(dataset(), fresh);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectBitIdentical(*baseline, *resumed);
}

TEST_F(ShardChaosTest, CliShardedRunReportsShardMetrics) {
  const std::string ckpt = CheckpointDir("cli_e2e");
  const std::string report = ckpt + "/report.json";
  fs::create_directories(ckpt);

  // End-to-end through the real binary: largeea_cli run --shards=2
  // orchestrates itself (WorkerCommand resolves /proc/self/exe) and the
  // JSON run report carries the shard.* supervision counters.
  std::vector<std::string> argv = {LARGEEA_CLI_BIN};
  for (std::string& a : AlignArgs(ckpt)) argv.push_back(std::move(a));
  argv.push_back("--shards=2");
  argv.push_back("--report-out=" + report);
  auto pid = shard::SpawnProcess(argv, {}, ckpt + "/orchestrator.log");
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  const shard::ProcessStatus status = shard::WaitProcess(*pid);
  EXPECT_TRUE(status.succeeded())
      << "exit=" << status.exit_code << " sig=" << status.term_signal;
  const auto json = rt::ReadFileToString(report);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("shard.launched"), std::string::npos);
  EXPECT_NE(json->find("\"shards\":\"2\""), std::string::npos);
}

TEST_F(ShardChaosTest, SigtermFlushesReportAndExits143) {
  const std::string ckpt = CheckpointDir("sigterm");
  const std::string report = ckpt + "/report.json";
  fs::create_directories(ckpt);

  // A run too long to finish (a million epochs); SIGTERM must flush the
  // report with an `interrupted` marker and exit 128+15.
  std::vector<std::string> argv = {LARGEEA_CLI_BIN};
  for (std::string& a : AlignArgs(ckpt)) argv.push_back(std::move(a));
  argv.push_back("--epochs=1000000");
  argv.push_back("--report-out=" + report);
  auto pid = shard::SpawnProcess(argv, {}, ckpt + "/cli.log");
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();

  // The first checkpoint artifact is written well after the signal
  // watcher is installed, so its appearance proves SIGTERM will be
  // caught rather than hitting the default handler.
  const auto has_artifact = [&] {
    for (const auto& entry : fs::directory_iterator(ckpt)) {
      if (entry.path().extension() == ".ckpt") return true;
    }
    return false;
  };
  bool started = false;
  for (int i = 0; i < 600 && !(started = has_artifact()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(started) << "pipeline never reached its first checkpoint";
  ::kill(*pid, SIGTERM);

  const shard::ProcessStatus status = shard::WaitProcess(*pid);
  EXPECT_EQ(status.state, shard::ProcessStatus::State::kExited);
  EXPECT_EQ(status.exit_code, 143);
  const auto json = rt::ReadFileToString(report);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("interrupted"), std::string::npos);
  EXPECT_NE(json->find("SIGTERM"), std::string::npos);
}

#endif  // LARGEEA_CLI_BIN

#else  // !LARGEEA_FAULT_INJECTION

TEST(FaultToleranceTest, DisabledBuildStillCompilesThePipeline) {
  // Fault injection is compiled out (-DLARGEEA_FAULT_INJECTION=OFF);
  // the crash matrix needs the injector, so there is nothing to run.
  GTEST_SKIP() << "built without LARGEEA_FAULT_INJECTION";
}

#endif  // LARGEEA_FAULT_INJECTION

}  // namespace
}  // namespace largeea
