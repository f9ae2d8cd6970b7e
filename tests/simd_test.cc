// Tests for src/simd: backend selection, the cross-backend determinism
// contract (DESIGN.md §9), and the bit-parallel Levenshtein against its
// DP oracle.
//
// The equivalence fuzz compares every backend the CPU supports against
// the scalar backend *bit for bit* — EXPECT that two floats share their
// exact bit pattern, not EXPECT_FLOAT_EQ — on shapes chosen to stress
// the kernels' structure: dims that are not multiples of 8, length-0 and
// length-1 tails, and deliberately misaligned views. The pipeline test
// at the bottom extends the same claim end to end: the fused similarity
// matrix and the checkpoint bytes cannot depend on --simd or --threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"
#include "src/la/aligned_buffer.h"
#include "src/name/levenshtein.h"
#include "src/par/thread_pool.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

TEST(SimdBackendTest, ParseBackendTokens) {
  simd::Backend backend;
  ASSERT_TRUE(simd::ParseBackend("scalar", &backend));
  EXPECT_EQ(backend, simd::Backend::kScalar);
  ASSERT_TRUE(simd::ParseBackend("sse2", &backend));
  EXPECT_EQ(backend, simd::Backend::kSse2);
  ASSERT_TRUE(simd::ParseBackend("avx2", &backend));
  EXPECT_EQ(backend, simd::Backend::kAvx2);
  ASSERT_TRUE(simd::ParseBackend("auto", &backend));
  EXPECT_EQ(backend, simd::BestBackend());
  EXPECT_FALSE(simd::ParseBackend("", &backend));
  EXPECT_FALSE(simd::ParseBackend("avx512", &backend));
  EXPECT_FALSE(simd::ParseBackend("SCALAR", &backend));
}

TEST(SimdBackendTest, AvailabilityIsConsistent) {
  // Scalar always runs; whatever BestBackend picks must be available;
  // AvailableBackends lists worst to best and contains both.
  EXPECT_TRUE(simd::BackendAvailable(simd::Backend::kScalar));
  EXPECT_TRUE(simd::BackendAvailable(simd::BestBackend()));
  const std::vector<simd::Backend> available = simd::AvailableBackends();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), simd::Backend::kScalar);
  EXPECT_EQ(available.back(), simd::BestBackend());
  for (size_t i = 1; i < available.size(); ++i) {
    EXPECT_LT(static_cast<int>(available[i - 1]),
              static_cast<int>(available[i]));
  }
}

TEST(SimdBackendTest, BackendNamesRoundTrip) {
  for (const simd::Backend b : simd::AvailableBackends()) {
    simd::Backend parsed;
    ASSERT_TRUE(simd::ParseBackend(simd::BackendName(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
}

// ---------------------------------------------------------------------
// Kernel equivalence: every available backend against scalar, bitwise.

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  // Dims stressing the 8-lane structure: empty, pure-tail lengths (< 8),
  // exact multiples, multiples +/- 1, and larger sizes with every tail
  // remainder. 16 lanes of SSE2's two-register layout are covered too.
  static std::vector<int64_t> Dims() {
    return {0,  1,  2,  3,  5,  7,  8,  9,   15,  16,  17,
            24, 31, 33, 63, 64, 65, 100, 255, 257, 1000};
  }

  // Fills with a mix of magnitudes and signs so reductions actually
  // exercise rounding (uniform [0,1) values rarely expose order bugs).
  static void FillRandom(float* p, int64_t n, Rng& rng) {
    for (int64_t i = 0; i < n; ++i) {
      const float magnitude =
          static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
      const int scale = static_cast<int>(rng.Uniform(17)) - 8;
      p[i] = std::ldexp(magnitude, scale);
    }
  }
};

TEST_F(SimdEquivalenceTest, ReductionsBitIdenticalAcrossBackends) {
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::Backend::kScalar);
  Rng rng(29);
  for (const simd::Backend backend : simd::AvailableBackends()) {
    const simd::KernelTable& kt = simd::KernelsFor(backend);
    for (const int64_t dim : Dims()) {
      // Misaligned views: the aligned base plus a 0..7 float offset, so
      // vector loads straddle cache lines. The buffer over-allocates by
      // the offset to keep every access in bounds.
      for (const int64_t offset : {int64_t{0}, int64_t{1}, int64_t{3}}) {
        AlignedBuffer a(static_cast<size_t>(dim + offset));
        AlignedBuffer b(static_cast<size_t>(dim + offset));
        FillRandom(a.data(), dim + offset, rng);
        FillRandom(b.data(), dim + offset, rng);
        const float* pa = a.data() + offset;
        const float* pb = b.data() + offset;
        SCOPED_TRACE(std::string(simd::BackendName(backend)) + " dim=" +
                     std::to_string(dim) + " offset=" +
                     std::to_string(offset));
        EXPECT_EQ(FloatBits(kt.dot(pa, pb, dim)),
                  FloatBits(scalar.dot(pa, pb, dim)));
        EXPECT_EQ(FloatBits(kt.manhattan(pa, pb, dim)),
                  FloatBits(scalar.manhattan(pa, pb, dim)));
      }
    }
  }
}

// The four-pair kernels against the scalar single-pair ones, pair by
// pair. The target sets mix distinct rows, a repeated row and the
// source row itself, so neither repetition nor aliasing can move a
// pair's bits.
TEST_F(SimdEquivalenceTest, FourPairReductionsMatchSinglePairBitwise) {
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::Backend::kScalar);
  Rng rng(37);
  for (const simd::Backend backend : simd::AvailableBackends()) {
    const simd::KernelTable& kt = simd::KernelsFor(backend);
    for (const int64_t dim : Dims()) {
      for (const int64_t offset : {int64_t{0}, int64_t{1}, int64_t{3}}) {
        std::vector<AlignedBuffer> buffers;
        for (int r = 0; r < 4; ++r) {
          buffers.emplace_back(static_cast<size_t>(dim + offset));
          FillRandom(buffers.back().data(), dim + offset, rng);
        }
        const float* a = buffers[0].data() + offset;
        const float* b1 = buffers[1].data() + offset;
        const float* b2 = buffers[2].data() + offset;
        const float* b3 = buffers[3].data() + offset;
        const float* const sets[][4] = {{b1, b2, b3, a},
                                        {b1, b1, b2, b2},
                                        {a, a, a, a},
                                        {b3, a, b1, b3}};
        SCOPED_TRACE(std::string(simd::BackendName(backend)) + " dim=" +
                     std::to_string(dim) + " offset=" +
                     std::to_string(offset));
        for (const auto& rows : sets) {
          float dots[4], distances[4];
          kt.dot4(a, rows, dim, dots);
          kt.manhattan4(a, rows, dim, distances);
          for (int q = 0; q < 4; ++q) {
            EXPECT_EQ(FloatBits(dots[q]),
                      FloatBits(scalar.dot(a, rows[q], dim)))
                << "q=" << q;
            EXPECT_EQ(FloatBits(distances[q]),
                      FloatBits(scalar.manhattan(a, rows[q], dim)))
                << "q=" << q;
          }
        }
      }
    }
  }
}

TEST_F(SimdEquivalenceTest, ElementwiseBitIdenticalAcrossBackends) {
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::Backend::kScalar);
  Rng rng(31);
  for (const simd::Backend backend : simd::AvailableBackends()) {
    const simd::KernelTable& kt = simd::KernelsFor(backend);
    for (const int64_t dim : Dims()) {
      AlignedBuffer x(static_cast<size_t>(dim));
      FillRandom(x.data(), dim, rng);
      const float alpha = 1.0f + static_cast<float>(rng.UniformDouble());
      AlignedBuffer y(static_cast<size_t>(dim));
      FillRandom(y.data(), dim, rng);

      SCOPED_TRACE(std::string(simd::BackendName(backend)) + " dim=" +
                   std::to_string(dim));
      AlignedBuffer y_kt = y;
      AlignedBuffer y_ref = y;
      kt.axpy(alpha, x.data(), y_kt.data(), dim);
      scalar.axpy(alpha, x.data(), y_ref.data(), dim);
      // memcmp rejects null even at length 0, and an empty AlignedBuffer
      // holds no storage — the dim-0 kernel calls above are the test.
      if (dim == 0) continue;
      EXPECT_EQ(0, std::memcmp(y_kt.data(), y_ref.data(),
                               static_cast<size_t>(dim) * sizeof(float)));

      AlignedBuffer x_kt = x;
      AlignedBuffer x_ref = x;
      kt.scale(x_kt.data(), alpha, dim);
      scalar.scale(x_ref.data(), alpha, dim);
      EXPECT_EQ(0, std::memcmp(x_kt.data(), x_ref.data(),
                               static_cast<size_t>(dim) * sizeof(float)));

      x_kt = x;
      x_ref = x;
      kt.divide(x_kt.data(), alpha, dim);
      scalar.divide(x_ref.data(), alpha, dim);
      EXPECT_EQ(0, std::memcmp(x_kt.data(), x_ref.data(),
                               static_cast<size_t>(dim) * sizeof(float)));
    }
  }
}

// The RREA epoch's kernels and the Adam step against scalar, bitwise,
// on misaligned views. Beyond backend agreement, each checks the
// identity its caller relies on: scaled_dot equals dot on the
// materialised row in either argument order, reflect_backward's dsrc
// update equals reflect_add of the gradient at scale 1, and a
// self-loop's two directions may hit the same dsrc and dn rows.
TEST_F(SimdEquivalenceTest, TrainingKernelsBitIdenticalAcrossBackends) {
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::Backend::kScalar);
  const auto same = [](const float* a, const float* b, int64_t n) {
    return n == 0 ||
           std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
  };
  Rng rng(41);
  for (const simd::Backend backend : simd::AvailableBackends()) {
    const simd::KernelTable& kt = simd::KernelsFor(backend);
    for (const int64_t dim : Dims()) {
      for (const int64_t offset : {int64_t{0}, int64_t{1}, int64_t{3}}) {
        SCOPED_TRACE(std::string(simd::BackendName(backend)) + " dim=" +
                     std::to_string(dim) + " offset=" +
                     std::to_string(offset));
        const auto row = [&] {
          AlignedBuffer b(static_cast<size_t>(dim + offset));
          FillRandom(b.data(), dim + offset, rng);
          return b;
        };
        const AlignedBuffer n_buf = row(), h_buf = row(), g_buf = row();
        const float* n = n_buf.data() + offset;
        const float* h = h_buf.data() + offset;
        const float* gout = g_buf.data() + offset;
        const float c = 0.25f + static_cast<float>(rng.UniformDouble());

        // scaled_dot == dot(n, c * gout) == dot(c * gout, n).
        AlignedBuffer g_mat(static_cast<size_t>(dim + offset));
        float* g = g_mat.data() + offset;
        for (int64_t i = 0; i < dim; ++i) g[i] = c * gout[i];
        const float gn = kt.scaled_dot(n, gout, c, dim);
        EXPECT_EQ(FloatBits(gn),
                  FloatBits(scalar.scaled_dot(n, gout, c, dim)));
        EXPECT_EQ(FloatBits(gn), FloatBits(scalar.dot(n, g, dim)));
        EXPECT_EQ(FloatBits(gn), FloatBits(scalar.dot(g, n, dim)));
        const float nh = scalar.dot(n, h, dim);

        // reflect_add.
        AlignedBuffer dst_kt = row();
        AlignedBuffer dst_ref = dst_kt;
        kt.reflect_add(n, h, nh, c, dst_kt.data() + offset, dim);
        scalar.reflect_add(n, h, nh, c, dst_ref.data() + offset, dim);
        EXPECT_TRUE(same(dst_kt.data(), dst_ref.data(), dim + offset));

        // reflect_backward, twice into the same rows (a self-loop), the
        // second time with h aliasing gout.
        AlignedBuffer dsrc_kt = row(), dn_kt = row();
        AlignedBuffer dsrc_ref = dsrc_kt, dn_ref = dn_kt;
        AlignedBuffer dsrc_old = dsrc_kt;
        const auto self_loop = [&](const simd::KernelTable& table,
                                   AlignedBuffer& dsrc_buf,
                                   AlignedBuffer& dn_buf) {
          float* dsrc = dsrc_buf.data() + offset;
          float* dn = dn_buf.data() + offset;
          table.reflect_backward(n, h, gout, c, gn, nh, dsrc, dn, dim);
          table.reflect_backward(n, gout, gout, c, gn, gn, dsrc, dn, dim);
        };
        self_loop(kt, dsrc_kt, dn_kt);
        self_loop(scalar, dsrc_ref, dn_ref);
        EXPECT_TRUE(same(dsrc_kt.data(), dsrc_ref.data(), dim + offset));
        EXPECT_TRUE(same(dn_kt.data(), dn_ref.data(), dim + offset));
        AlignedBuffer dsrc_one = dsrc_old;
        AlignedBuffer dn_one = row();
        kt.reflect_backward(n, h, gout, c, gn, nh, dsrc_one.data() + offset,
                            dn_one.data() + offset, dim);
        kt.reflect_add(n, g, gn, 1.0f, dsrc_old.data() + offset, dim);
        EXPECT_TRUE(same(dsrc_one.data(), dsrc_old.data(), dim + offset));

        // adam_step, with a non-negative second moment as Adam keeps it.
        AlignedBuffer p_kt = row(), m_kt = row(), v_kt = row();
        for (int64_t i = 0; i < dim + offset; ++i) {
          v_kt.data()[i] = std::fabs(v_kt.data()[i]);
        }
        AlignedBuffer p_ref = p_kt, m_ref = m_kt, v_ref = v_kt;
        const simd::AdamScalars adam{.beta1 = 0.9f,
                                     .one_minus_beta1 = 1.0f - 0.9f,
                                     .beta2 = 0.999f,
                                     .one_minus_beta2 = 1.0f - 0.999f,
                                     .bias1 = 0.271f,
                                     .bias2 = 0.002997f,
                                     .learning_rate = 0.02f,
                                     .epsilon = 1e-8f};
        kt.adam_step(p_kt.data() + offset, gout, m_kt.data() + offset,
                     v_kt.data() + offset, dim, adam);
        scalar.adam_step(p_ref.data() + offset, gout, m_ref.data() + offset,
                         v_ref.data() + offset, dim, adam);
        EXPECT_TRUE(same(p_kt.data(), p_ref.data(), dim + offset));
        EXPECT_TRUE(same(m_kt.data(), m_ref.data(), dim + offset));
        EXPECT_TRUE(same(v_kt.data(), v_ref.data(), dim + offset));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Myers bit-parallel Levenshtein against the DP oracle.

std::string RandomString(Rng& rng, int64_t length, int alphabet) {
  std::string s;
  s.reserve(static_cast<size_t>(length));
  for (int64_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>(
        'a' + rng.Uniform(static_cast<uint64_t>(alphabet))));
  }
  return s;
}

TEST(LevenshteinMyersTest, MatchesDpOracleOnFuzzedStrings) {
  Rng rng(37);
  for (int iter = 0; iter < 3000; ++iter) {
    // Lengths cross the 64-char single-word boundary; tiny alphabets
    // force dense match structure (the hard case for the bit vectors).
    const int alphabet = 1 + static_cast<int>(rng.Uniform(4));
    const std::string a =
        RandomString(rng, static_cast<int64_t>(rng.Uniform(150)), alphabet);
    const std::string b =
        RandomString(rng, static_cast<int64_t>(rng.Uniform(150)), alphabet);
    ASSERT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(LevenshteinMyersTest, ExercisesMultiWordBoundaries) {
  // Exactly 64, 65, 128, and 129 pattern characters: the single-word /
  // multi-word split and the block-carry chain.
  for (const size_t len : {size_t{64}, size_t{65}, size_t{128}, size_t{129}}) {
    std::string a(len, 'a');
    std::string b = a;
    b[len / 2] = 'b';
    b.push_back('c');
    EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDp(a, b))
        << "len=" << len;
    EXPECT_EQ(LevenshteinDistance(a, a), 0) << "len=" << len;
  }
}

TEST(LevenshteinMyersTest, EmptyAndDegenerate) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("", std::string(100, 'x')), 100);
  EXPECT_EQ(LevenshteinDistance(std::string(100, 'x'), ""), 100);
  const std::string long_a(300, 'a');
  const std::string long_b(300, 'b');
  EXPECT_EQ(LevenshteinDistance(long_a, long_b), 300);
}

TEST(BoundedLevenshteinTest, ExactUnderCapCappedAbove) {
  Rng rng(41);
  for (int iter = 0; iter < 3000; ++iter) {
    const int alphabet = 1 + static_cast<int>(rng.Uniform(4));
    const std::string a =
        RandomString(rng, static_cast<int64_t>(rng.Uniform(60)), alphabet);
    const std::string b =
        RandomString(rng, static_cast<int64_t>(rng.Uniform(60)), alphabet);
    const int32_t cap = static_cast<int32_t>(rng.Uniform(12));
    const int32_t exact = LevenshteinDistanceDp(a, b);
    const int32_t bounded = BoundedLevenshteinDistance(a, b, cap);
    if (exact <= cap) {
      ASSERT_EQ(bounded, exact) << "a=" << a << " b=" << b << " cap=" << cap;
    } else {
      ASSERT_EQ(bounded, cap + 1)
          << "a=" << a << " b=" << b << " cap=" << cap;
    }
  }
}

TEST(BoundedLevenshteinTest, ZeroCapAndEmptyStrings) {
  EXPECT_EQ(BoundedLevenshteinDistance("abc", "abc", 0), 0);
  EXPECT_EQ(BoundedLevenshteinDistance("abc", "abd", 0), 1);  // cap + 1
  EXPECT_EQ(BoundedLevenshteinDistance("", "", 0), 0);
  EXPECT_EQ(BoundedLevenshteinDistance("", "ab", 5), 2);
  EXPECT_EQ(BoundedLevenshteinDistance("", "ab", 1), 2);  // cap + 1
}

// ---------------------------------------------------------------------
// End-to-end: the fused matrix and checkpoint artifacts are invariant
// under --simd x --threads (the §8 x §9 cross product).

void ExpectFusedBitIdentical(const LargeEaResult& a, const LargeEaResult& b) {
  ASSERT_EQ(a.fused.num_rows(), b.fused.num_rows());
  for (int32_t r = 0; r < a.fused.num_rows(); ++r) {
    const auto ra = a.fused.Row(r);
    const auto rb = b.fused.Row(r);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].column, rb[i].column) << "row " << r;
      EXPECT_EQ(FloatBits(ra[i].score), FloatBits(rb[i].score))
          << "row " << r;
    }
  }
  EXPECT_EQ(a.effective_seeds, b.effective_seeds);
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_1, b.metrics.hits_at_1);
  EXPECT_DOUBLE_EQ(a.metrics.hits_at_5, b.metrics.hits_at_5);
  EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr);
}

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

class SimdDeterminismTest : public ::testing::Test {
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

  void SetUp() override {
    saved_backend_ = simd::ActiveBackend();
    saved_threads_ = par::ThreadPool::Get().num_threads();
  }
  void TearDown() override {
    simd::SetBackend(saved_backend_);
    par::ThreadPool::Get().SetNumThreads(saved_threads_);
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }

  static LargeEaOptions Options() {
    LargeEaOptions options;
    options.structure_channel.num_batches = 3;
    options.structure_channel.train.epochs = 10;
    options.structure_channel.retry_backoff_ms = 0;
    return options;
  }

  std::string CheckpointDir(const std::string& name) {
    std::string dir =
        (fs::temp_directory_path() / ("largeea_simd_" + name)).string();
    fs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  LargeEaResult RunWith(simd::Backend backend, int32_t threads,
                        const LargeEaOptions& options) {
    simd::SetBackend(backend);
    par::ThreadPool::Get().SetNumThreads(threads);
    auto result = RunLargeEa(*dataset_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::vector<std::string> dirs_;
  simd::Backend saved_backend_ = simd::Backend::kScalar;
  int32_t saved_threads_ = 1;

  static const EaDataset* dataset_;
};

const EaDataset* SimdDeterminismTest::dataset_ = nullptr;

TEST_F(SimdDeterminismTest, FusedMatrixInvariantAcrossBackendsAndThreads) {
  const LargeEaOptions options = Options();
  const LargeEaResult baseline =
      RunWith(simd::Backend::kScalar, 1, options);
  for (const simd::Backend backend : simd::AvailableBackends()) {
    for (const int32_t threads : {1, 8}) {
      if (backend == simd::Backend::kScalar && threads == 1) continue;
      SCOPED_TRACE(std::string("simd=") + simd::BackendName(backend) +
                   " threads=" + std::to_string(threads));
      const LargeEaResult run = RunWith(backend, threads, options);
      ExpectFusedBitIdentical(baseline, run);
    }
  }
}

TEST_F(SimdDeterminismTest, CheckpointBytesInvariantAcrossBackends) {
  LargeEaOptions options = Options();
  options.fault_tolerance.checkpoint_dir = CheckpointDir("scalar_t1");
  RunWith(simd::Backend::kScalar, 1, options);
  const auto scalar_files =
      ReadDirBytes(options.fault_tolerance.checkpoint_dir);
  ASSERT_FALSE(scalar_files.empty());

  options.fault_tolerance.checkpoint_dir = CheckpointDir("best_t8");
  RunWith(simd::BestBackend(), 8, options);
  const auto best_files =
      ReadDirBytes(options.fault_tolerance.checkpoint_dir);

  ASSERT_EQ(scalar_files.size(), best_files.size());
  for (const auto& [name, bytes] : scalar_files) {
    const auto it = best_files.find(name);
    ASSERT_NE(it, best_files.end()) << "missing: " << name;
    EXPECT_EQ(bytes, it->second) << "artifact differs: " << name;
  }
}

}  // namespace
}  // namespace largeea
