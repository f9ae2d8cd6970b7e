#include "src/sim/lsh.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/simd/simd.h"

namespace largeea {

LshIndex::LshIndex(const MatrixRowRange& data, const LshOptions& options)
    : dim_(static_cast<int32_t>(data.cols())),
      options_(options),
      num_rows_(data.rows()) {
  LARGEEA_CHECK_GT(options.num_tables, 0);
  LARGEEA_CHECK_GT(options.bits_per_table, 0);
  LARGEEA_CHECK_LE(options.bits_per_table, kMaxLshBits);
  LARGEEA_CHECK_GE(options.probe_radius, 0);
  LARGEEA_CHECK_LE(options.probe_radius, kMaxLshProbeRadius);
  LARGEEA_CHECK_LE(num_rows_, std::numeric_limits<int32_t>::max());
  Rng rng(options.seed);
  planes_ = Matrix(static_cast<int64_t>(options.num_tables) *
                       options.bits_per_table,
                   dim_);
  planes_.GaussianInit(rng, 1.0f);

  obs::Span build_span("lsh/build_index");
  build_span.AddAttr("num_tables", static_cast<int64_t>(options.num_tables));
  build_span.AddAttr("bits_per_table",
                     static_cast<int64_t>(options.bits_per_table));
  // Every row's key in every table, then a counting sort per table:
  // bucket sizes, their prefix sums, then the rows scattered in ascending
  // order, so every bucket's members ascend and Query() can OR them
  // straight into a bitset.
  const int64_t tables = options_.num_tables;
  const int64_t rows = num_rows_;
  const int64_t buckets = int64_t{1} << options_.bits_per_table;
  std::vector<uint32_t> keys(static_cast<size_t>(rows * tables));
  for (int64_t r = 0; r < rows; ++r) {
    for (int32_t t = 0; t < tables; ++t) {
      keys[r * tables + t] = Key(data.Row(r), t);
    }
  }
  offsets_.assign(static_cast<size_t>(tables * (buckets + 1)), 0);
  members_.resize(static_cast<size_t>(tables * rows));
  std::vector<int32_t> cursor(static_cast<size_t>(buckets));
  for (int64_t t = 0; t < tables; ++t) {
    int32_t* offsets = offsets_.data() + t * (buckets + 1);
    for (int64_t r = 0; r < rows; ++r) ++offsets[keys[r * tables + t] + 1];
    std::partial_sum(offsets, offsets + buckets + 1, offsets);
    std::copy(offsets, offsets + buckets, cursor.begin());
    int32_t* members = members_.data() + t * rows;
    for (int64_t r = 0; r < rows; ++r) {
      members[cursor[keys[r * tables + t]]++] = static_cast<int32_t>(r);
    }
  }

  // Bucket-occupancy histogram: the paper's Fig. 4 linearity argument
  // rests on occupancy staying near-constant as the dataset grows.
  obs::Histogram& occupancy = obs::MetricsRegistry::Get().GetHistogram(
      "lsh.bucket_occupancy",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
  for (int64_t t = 0; t < tables; ++t) {
    const int32_t* offsets = offsets_.data() + t * (buckets + 1);
    for (int64_t key = 0; key < buckets; ++key) {
      const int32_t size = offsets[key + 1] - offsets[key];
      if (size > 0) occupancy.Observe(static_cast<double>(size));
    }
  }
}

uint32_t LshIndex::Key(const float* vec, int32_t table) const {
  // Projects onto four hyperplanes per kernel call, `vec` as the
  // shared row; a product's bits do not depend on operand order, so
  // each projection equals Dot(plane, vec).
  const simd::KernelTable& kt = simd::Kernels();
  const int32_t bits = options_.bits_per_table;
  const int64_t base = static_cast<int64_t>(table) * bits;
  uint32_t key = 0;
  int32_t b = 0;
  float dots[4];
  for (; b + 4 <= bits; b += 4) {
    const float* four[4] = {planes_.Row(base + b), planes_.Row(base + b + 1),
                            planes_.Row(base + b + 2),
                            planes_.Row(base + b + 3)};
    kt.dot4(vec, four, dim_, dots);
    for (int q = 0; q < 4; ++q) {
      if (dots[q] >= 0.0f) key |= 1u << (b + q);
    }
  }
  for (; b < bits; ++b) {
    if (kt.dot(vec, planes_.Row(base + b), dim_) >= 0.0f) key |= 1u << b;
  }
  return key;
}

void LshIndex::Query(const float* vec, uint64_t* bits) const {
  const int64_t tables = options_.num_tables;
  const int64_t rows = num_rows_;
  const int64_t buckets = int64_t{1} << options_.bits_per_table;
  for (int32_t t = 0; t < tables; ++t) {
    const int32_t* offsets = offsets_.data() + t * (buckets + 1);
    const int32_t* members = members_.data() + t * rows;
    const auto set_bucket = [&](uint32_t key) {
      for (int32_t m = offsets[key]; m < offsets[key + 1]; ++m) {
        const int32_t row = members[m];
        bits[row >> 6] |= uint64_t{1} << (row & 63);
      }
    };
    const uint32_t key = Key(vec, t);
    set_bucket(key);
    if (options_.probe_radius >= 1) {
      // Multiprobe: buckets whose key differs in exactly one bit.
      for (int32_t b = 0; b < options_.bits_per_table; ++b) {
        set_bucket(key ^ (1u << b));
      }
    }
  }
  // One relaxed add per query — negligible next to the bucket scans.
  obs::MetricsRegistry::Get().GetCounter("lsh.queries").Increment();
}

}  // namespace largeea
