// Random-hyperplane locality-sensitive hashing over embedding rows.
//
// Each table projects a vector onto `bits_per_table` random hyperplanes
// and uses the sign pattern as a bucket key; vectors with high cosine
// similarity collide with high probability. Queries OR the members of
// the colliding buckets across tables into a bitset with one bit per
// indexed row, so the set bits are the sorted, de-duplicated candidates
// for exact re-scoring.
#ifndef LARGEEA_SIM_LSH_H_
#define LARGEEA_SIM_LSH_H_

#include <cstdint>
#include <vector>

#include "src/la/matrix.h"

namespace largeea {

/// Largest `bits_per_table`: every table keeps a flat 2^bits offset
/// table, and 16 is the widest that LSH sizing rules ever pick.
inline constexpr int32_t kMaxLshBits = 16;
/// Largest multiprobe radius Query() implements.
inline constexpr int32_t kMaxLshProbeRadius = 1;

struct LshOptions {
  int32_t num_tables = 24;
  int32_t bits_per_table = 10;
  /// Multiprobe radius: 0 probes only the exact bucket, 1 additionally
  /// probes every bucket at Hamming distance 1 (bits_per_table extra
  /// probes per table), trading query time for much better recall.
  int32_t probe_radius = 1;
  uint64_t seed = 1;
};

/// Words of a bitset with one bit per row id in [0, rows).
inline int64_t BitsetWords(int64_t rows) { return (rows + 63) / 64; }

/// LSH index over the rows of a data matrix, immutable once built. The
/// hyperplanes depend only on (seed, dim).
class LshIndex {
 public:
  /// Builds the index over `data` (rows are points): packs each table's
  /// buckets into flat offsets over one row-id array and records the
  /// bucket-occupancy histogram. The rows are not retained; only bucket
  /// membership is stored. `data` may be a whole Matrix or a view, e.g.
  /// of a mapped spill.
  LshIndex(const MatrixRowRange& data, const LshOptions& options);

  /// Sets bit j of `bits` for every row j that shares a bucket with
  /// `vec` (dimension must match) in at least one table, or, with
  /// probe_radius 1, lies in a bucket one key bit away. `bits` holds
  /// BitsetWords(num_rows()) words and is zeroed by the caller; bits
  /// already set stay set.
  void Query(const float* vec, uint64_t* bits) const;

  /// Bucket key of `vec` in `table`: bit b is set when the projection
  /// on the table's b-th hyperplane is non-negative.
  uint32_t Key(const float* vec, int32_t table) const;

  int32_t dim() const { return dim_; }
  /// The indexed row count: the bit count of a Query() bitset.
  int64_t num_rows() const { return num_rows_; }
  const LshOptions& options() const { return options_; }

 private:
  int32_t dim_ = 0;
  LshOptions options_;
  int64_t num_rows_ = 0;
  /// Hyperplane normals: one matrix of shape
  /// (num_tables * bits_per_table) x dim, row-major by (table, bit).
  Matrix planes_;
  /// Per table t, bucket `key` holds members_[t * n + o] for o in
  /// [offsets_[t * (2^bits + 1) + key], offsets_[... + key + 1]), with
  /// n the row count; members ascend within each bucket.
  std::vector<int32_t> offsets_;
  std::vector<int32_t> members_;
};

}  // namespace largeea

#endif  // LARGEEA_SIM_LSH_H_
