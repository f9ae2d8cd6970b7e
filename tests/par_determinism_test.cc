// Thread-count invariance of the full pipeline (DESIGN.md §8): the same
// dataset and options must produce a bit-identical fused matrix — and
// byte-identical checkpoint artifacts — at --threads 1, 2, and 8. This
// is the integration-level proof of the determinism contract the par/
// layer promises; the unit-level pieces live in par_test.cc.
//
// Note the host may have a single core: SetNumThreads(2/8) still starts
// real workers, so tier-1 ctest exercises the parallel code paths (and
// their merges) even on one-CPU machines.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"
#include "src/par/thread_pool.h"
#include "src/rt/fault_injection.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

void ExpectBitIdentical(const LargeEaResult& a, const LargeEaResult& b) {
  ASSERT_EQ(a.fused.num_rows(), b.fused.num_rows());
  ASSERT_EQ(a.fused.num_cols(), b.fused.num_cols());
  for (int32_t r = 0; r < a.fused.num_rows(); ++r) {
    const auto ra = a.fused.Row(r);
    const auto rb = b.fused.Row(r);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].column, rb[i].column) << "row " << r;
      // Bit-exact, deliberately not EXPECT_FLOAT_EQ: thread count must
      // not perturb a single ulp anywhere in the pipeline.
      EXPECT_EQ(ra[i].score, rb[i].score) << "row " << r;
    }
  }
  EXPECT_EQ(a.effective_seeds, b.effective_seeds);
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_1, b.metrics.hits_at_1);
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_5, b.metrics.hits_at_5);
  EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr);
}

/// Reads every regular file under `dir` into a filename -> bytes map.
std::map<std::string, std::string> ReadDirBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

class ParDeterminismTest : public ::testing::Test {
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
    saved_threads_ = par::ThreadPool::Get().num_threads();
#if LARGEEA_FAULT_INJECTION
    rt::FaultInjector::Get().Reset();
#endif
  }
  void TearDown() override {
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
#if LARGEEA_FAULT_INJECTION
    rt::FaultInjector::Get().Reset();
#endif
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }

  static LargeEaOptions Options() {
    LargeEaOptions options;
    options.structure_channel.num_batches = 3;
    options.structure_channel.train.epochs = 10;
    return options;
  }

  std::string CheckpointDir(const std::string& name) {
    std::string dir =
        (fs::temp_directory_path() / ("largeea_par_" + name)).string();
    fs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  /// Runs the pipeline with the pool pinned to `threads`.
  LargeEaResult RunAt(int32_t threads, const LargeEaOptions& options) {
    par::ThreadPool::Get().SetNumThreads(threads);
    auto result = RunLargeEa(dataset(), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::vector<std::string> dirs_;
  int32_t saved_threads_ = 1;

 private:
  static const EaDataset* dataset_;
};

const EaDataset* ParDeterminismTest::dataset_ = nullptr;

TEST_F(ParDeterminismTest, FusedMatrixBitIdenticalAcrossThreadCounts) {
  const LargeEaOptions options = Options();
  const LargeEaResult at1 = RunAt(1, options);
  const LargeEaResult at2 = RunAt(2, options);
  const LargeEaResult at8 = RunAt(8, options);
  {
    SCOPED_TRACE("threads=2 vs threads=1");
    ExpectBitIdentical(at1, at2);
  }
  {
    SCOPED_TRACE("threads=8 vs threads=1");
    ExpectBitIdentical(at1, at8);
  }
}

TEST_F(ParDeterminismTest, CheckpointArtifactsByteIdenticalAcrossThreadCounts) {
  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("ckpt_t1");
  RunAt(1, options);
  const auto files_t1 = ReadDirBytes(options.fault_tolerance.checkpoint_dir);

  options.fault_tolerance.checkpoint_dir = CheckpointDir("ckpt_t8");
  RunAt(8, options);
  const auto files_t8 = ReadDirBytes(options.fault_tolerance.checkpoint_dir);

  ASSERT_FALSE(files_t1.empty());
  ASSERT_EQ(files_t1.size(), files_t8.size());
  for (const auto& [name, bytes] : files_t1) {
    const auto it = files_t8.find(name);
    ASSERT_NE(it, files_t8.end()) << "missing at threads=8: " << name;
    EXPECT_EQ(bytes, it->second) << "artifact differs: " << name;
  }
}

#if LARGEEA_FAULT_INJECTION
TEST_F(ParDeterminismTest, CrashThenResumeUnderDifferentThreadCount) {
  const LargeEaResult baseline = RunAt(1, Options());

  LargeEaOptions options = Options();
  options.structure_channel.max_batch_retries = 0;      // crash,
  options.structure_channel.drop_failed_batches = false;  // don't degrade
  options.fault_tolerance.checkpoint_dir = CheckpointDir("crash_resume");

  // Crash mid-structure-channel at threads=1 (hit order is deterministic
  // there), then resume at threads=8: the restored run must be
  // indistinguishable from the uninterrupted single-threaded baseline.
  rt::FaultSpec spec;
  spec.code = StatusCode::kAborted;
  spec.message = "simulated crash";
  spec.trigger_on_hit = 2;  // batch 0 completes, batch 1 dies
  rt::FaultInjector::Get().Arm("structure.batch.train", spec);
  par::ThreadPool::Get().SetNumThreads(1);
  const auto crashed = RunLargeEa(dataset(), options);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  rt::FaultInjector::Get().Disarm("structure.batch.train");

  options.fault_tolerance.resume = true;
  const LargeEaResult resumed = RunAt(8, options);
  ExpectBitIdentical(baseline, resumed);
}
#endif  // LARGEEA_FAULT_INJECTION

}  // namespace
}  // namespace largeea
