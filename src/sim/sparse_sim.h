// Sparse top-k similarity matrix between two entity sets.
//
// The paper's memory argument hinges on never materialising the dense
// |Es| x |Et| similarity matrix: only the top-k scores per source entity
// are kept (O(k|Es|) memory), whether they come from mini-batch structural
// training, semantic top-k search, or string matching. This class is that
// representation, and all channel fusion happens on it.
#ifndef LARGEEA_SIM_SPARSE_SIM_H_
#define LARGEEA_SIM_SPARSE_SIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/types.h"
#include "src/rt/binary_io.h"
#include "src/rt/status.h"

namespace largeea {

/// One scored candidate in a row.
struct SimEntry {
  EntityId column = kInvalidEntity;
  float score = 0.0f;
};
static_assert(sizeof(SimEntry) == 8, "SimEntry is serialised as its bytes");

/// Row-sparse similarity matrix. Rows index source entities, columns index
/// target entities. Each row holds at most `max_entries_per_row` entries,
/// kept sorted by descending score (ties broken by ascending column id so
/// results are deterministic).
class SparseSimMatrix {
 public:
  SparseSimMatrix() = default;

  /// `max_entries_per_row` <= 0 means unlimited.
  SparseSimMatrix(int32_t num_rows, int32_t num_cols,
                  int32_t max_entries_per_row);

  /// Copies duplicate the entry storage (and its tracker registration).
  SparseSimMatrix(const SparseSimMatrix& other);
  SparseSimMatrix& operator=(const SparseSimMatrix& other);
  SparseSimMatrix(SparseSimMatrix&&) noexcept = default;
  SparseSimMatrix& operator=(SparseSimMatrix&&) noexcept = default;

  int32_t num_rows() const { return static_cast<int32_t>(rows_.size()); }
  int32_t num_cols() const { return num_cols_; }
  int32_t max_entries_per_row() const { return max_entries_per_row_; }

  /// Adds `score` to the (row, col) entry, creating it if absent. If the
  /// row is full the weakest entry is evicted (only when the new score
  /// beats it).
  void Accumulate(int32_t row, EntityId col, float score);

  /// Accumulate()s each of `entries` into `row`, in order, with the same
  /// stored order and score bits as those calls, but stores the row once
  /// at its final length where they regrow it by doubling (a 50-entry
  /// row: 400 bytes, not 512). Rows written by different threads must
  /// be distinct.
  void AccumulateRow(int32_t row, std::span<const SimEntry> entries);

  /// Entries of `row`, sorted by descending score.
  std::span<const SimEntry> Row(int32_t row) const;

  /// Best-scoring column of `row`, or kInvalidEntity if the row is empty.
  EntityId ArgmaxOfRow(int32_t row) const;

  /// 1-based rank of `col` within `row`, or 0 if absent.
  int32_t RankInRow(int32_t row, EntityId col) const;

  /// Total stored entries.
  int64_t TotalEntries() const;

  /// For every column, the row holding its single best score
  /// (kInvalidEntity for columns never scored). Used by the mutual-
  /// nearest-neighbour pseudo-seed generator.
  std::vector<EntityId> ArgmaxPerColumn() const;

  /// result = alpha * this + beta * other, entry-union, re-truncated to
  /// `max_entries_per_row` (<= 0: unlimited) per row. Shapes must match.
  /// Rows merge in parallel chunks; the bytes do not depend on the
  /// thread count.
  SparseSimMatrix Fuse(const SparseSimMatrix& other, float alpha, float beta,
                       int32_t max_entries_per_row) const;

  /// Consuming variant of Fuse, the pipeline's fusion: releases each
  /// input row as it is merged, so peak entry storage is ~one matrix
  /// instead of three. The merge itself is row-identical to Fuse (same
  /// helper), so the result is bit-identical to
  /// `a.Fuse(b, alpha, beta, max_entries_per_row)`. Rows merge in
  /// parallel chunks, `rows_per_block` rows at a time, and memory
  /// tracking is refreshed after each block so the MemoryTracker peak
  /// reflects the shrinking inputs.
  static SparseSimMatrix FuseStreamed(SparseSimMatrix a, SparseSimMatrix b,
                                      float alpha, float beta,
                                      int32_t max_entries_per_row,
                                      int64_t rows_per_block = 4096);

  /// Bytes of entry storage (the Table-6 accounting unit).
  int64_t MemoryBytes() const;

  /// Re-registers the current entry storage with the MemoryTracker.
  /// Accumulate() does not track per-call (too hot); bulk builders call
  /// this once after filling the matrix.
  void RefreshMemoryTracking();

  /// The payload codec of checkpoints and the serve index: the shape
  /// (rows, cols, max entries per row as i32), then each row's length
  /// (u32) and its entries in stored order as (i32 column, f32 score).
  void Serialize(rt::BinaryWriter& w) const;
  /// Reads what Serialize wrote straight into the rows, so the matrix is
  /// bit-identical to the one written, NaN and signed-zero scores
  /// included. DATA_LOSS on a negative shape, a row longer than its cap
  /// or than the bytes left, or a column out of range. The row lengths
  /// are walked before the rows are allocated.
  static StatusOr<SparseSimMatrix> Deserialize(rt::BinaryReader& r);

 private:

  int32_t num_cols_ = 0;
  int32_t max_entries_per_row_ = 0;
  std::vector<std::vector<SimEntry>> rows_;
  TrackedAllocation tracked_;
};

}  // namespace largeea

#endif  // LARGEEA_SIM_SPARSE_SIM_H_
