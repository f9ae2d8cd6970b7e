#include "src/sim/sparse_sim.h"

#include <algorithm>
#include <type_traits>

#include "src/common/macros.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"

namespace largeea {
namespace {

bool EntryBefore(const SimEntry& a, const SimEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.column < b.column;
}

// Shared row merge of Fuse and FuseStreamed — one implementation, so the
// streamed result is bit-identical to the in-memory one by construction.
void MergeRow(const std::vector<SimEntry>& a, const std::vector<SimEntry>& b,
              float alpha, float beta, std::vector<SimEntry>& merged) {
  merged.clear();
  for (const SimEntry& e : a) {
    merged.push_back(SimEntry{e.column, alpha * e.score});
  }
  for (const SimEntry& e : b) {
    bool found = false;
    for (SimEntry& m : merged) {
      if (m.column == e.column) {
        m.score += beta * e.score;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(SimEntry{e.column, beta * e.score});
  }
  std::sort(merged.begin(), merged.end(), EntryBefore);
}

// Accumulate's step on a bare row of at most `cap` entries (<= 0:
// unlimited): adds `score` to `col`'s entry, creating it if absent and
// evicting the weakest entry of a full row when the new one beats it,
// then restores the stored order.
void AccumulateEntry(std::vector<SimEntry>& entries, int32_t cap,
                     EntityId col, float score) {
  // Existing entry: accumulate and restore descending order by bubbling.
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].column == col) {
      entries[i].score += score;
      size_t j = i;
      while (j > 0 && EntryBefore(entries[j], entries[j - 1])) {
        std::swap(entries[j], entries[j - 1]);
        --j;
      }
      while (j + 1 < entries.size() &&
             EntryBefore(entries[j + 1], entries[j])) {
        std::swap(entries[j + 1], entries[j]);
        ++j;
      }
      return;
    }
  }

  const SimEntry entry{col, score};
  const bool full = cap > 0 && static_cast<int32_t>(entries.size()) >= cap;
  if (full) {
    if (!EntryBefore(entry, entries.back())) return;  // too weak to enter
    entries.back() = entry;
  } else {
    entries.push_back(entry);
  }
  size_t j = entries.size() - 1;
  while (j > 0 && EntryBefore(entries[j], entries[j - 1])) {
    std::swap(entries[j], entries[j - 1]);
    --j;
  }
}

size_t RowLimit(size_t merged_size, int32_t max_entries_per_row) {
  return max_entries_per_row > 0
             ? std::min(merged_size, static_cast<size_t>(max_entries_per_row))
             : merged_size;
}

// Fuse's merge of rows [begin, end) of `a` and `b` into `out`, in
// parallel chunks. Each row is read and written only by its own chunk,
// so the bytes are those of a serial merge at any thread count. Mutable
// inputs (FuseStreamed's own) are freed row by row as they are merged.
template <typename Rows>
void MergeRows(Rows& a, Rows& b, float alpha, float beta, int32_t cap,
               int64_t begin, int64_t end,
               std::vector<std::vector<SimEntry>>& out) {
  par::ParallelFor(
      begin, end, par::NormRowGrain(end - begin),
      [&](const par::ChunkRange& chunk) {
        std::vector<SimEntry> merged;
        for (int64_t r = chunk.begin; r < chunk.end; ++r) {
          MergeRow(a[r], b[r], alpha, beta, merged);
          out[r].assign(merged.begin(),
                        merged.begin() + RowLimit(merged.size(), cap));
          if constexpr (!std::is_const_v<Rows>) {
            // swap actually frees (clear() keeps capacity, which is the
            // whole footprint here).
            std::vector<SimEntry>().swap(a[r]);
            std::vector<SimEntry>().swap(b[r]);
          }
        }
      });
}

}  // namespace

SparseSimMatrix::SparseSimMatrix(int32_t num_rows, int32_t num_cols,
                                 int32_t max_entries_per_row)
    : num_cols_(num_cols),
      max_entries_per_row_(max_entries_per_row),
      rows_(num_rows) {
  LARGEEA_CHECK_GE(num_rows, 0);
  LARGEEA_CHECK_GE(num_cols, 0);
}

SparseSimMatrix::SparseSimMatrix(const SparseSimMatrix& other)
    : num_cols_(other.num_cols_),
      max_entries_per_row_(other.max_entries_per_row_),
      rows_(other.rows_),
      tracked_(other.MemoryBytes()) {}

SparseSimMatrix& SparseSimMatrix::operator=(const SparseSimMatrix& other) {
  if (this != &other) {
    num_cols_ = other.num_cols_;
    max_entries_per_row_ = other.max_entries_per_row_;
    rows_ = other.rows_;
    tracked_.Resize(other.MemoryBytes());
  }
  return *this;
}

void SparseSimMatrix::Accumulate(int32_t row, EntityId col, float score) {
  LARGEEA_CHECK_GE(row, 0);
  LARGEEA_CHECK_LT(row, num_rows());
  LARGEEA_CHECK_GE(col, 0);
  LARGEEA_CHECK_LT(col, num_cols_);
  AccumulateEntry(rows_[row], max_entries_per_row_, col, score);
}

void SparseSimMatrix::AccumulateRow(int32_t row,
                                    std::span<const SimEntry> entries) {
  LARGEEA_CHECK_GE(row, 0);
  LARGEEA_CHECK_LT(row, num_rows());
  if (entries.empty()) return;
  std::vector<SimEntry>& stored = rows_[row];
  // The row can only grow to the stored entries plus the new ones, and
  // never past the cap: reserving that bound means no regrowth below.
  size_t bound = stored.size() + entries.size();
  if (max_entries_per_row_ > 0) {
    bound = std::min(bound, static_cast<size_t>(max_entries_per_row_));
  }
  std::vector<SimEntry> merged;
  merged.reserve(bound);
  merged.assign(stored.begin(), stored.end());
  for (const SimEntry& e : entries) {
    LARGEEA_CHECK_GE(e.column, 0);
    LARGEEA_CHECK_LT(e.column, num_cols_);
    AccumulateEntry(merged, max_entries_per_row_, e.column, e.score);
  }
  // Repeated columns or entries too weak to enter leave it short of the
  // bound; then it moves once more, into an exact fit.
  merged.shrink_to_fit();
  stored = std::move(merged);
}

std::span<const SimEntry> SparseSimMatrix::Row(int32_t row) const {
  LARGEEA_CHECK_GE(row, 0);
  LARGEEA_CHECK_LT(row, num_rows());
  return rows_[row];
}

EntityId SparseSimMatrix::ArgmaxOfRow(int32_t row) const {
  const auto entries = Row(row);
  return entries.empty() ? kInvalidEntity : entries.front().column;
}

int32_t SparseSimMatrix::RankInRow(int32_t row, EntityId col) const {
  const auto entries = Row(row);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].column == col) return static_cast<int32_t>(i) + 1;
  }
  return 0;
}

int64_t SparseSimMatrix::TotalEntries() const {
  int64_t total = 0;
  for (const auto& row : rows_) total += static_cast<int64_t>(row.size());
  return total;
}

std::vector<EntityId> SparseSimMatrix::ArgmaxPerColumn() const {
  std::vector<EntityId> best_row(num_cols_, kInvalidEntity);
  std::vector<float> best_score(num_cols_, 0.0f);
  for (int32_t r = 0; r < num_rows(); ++r) {
    for (const SimEntry& e : rows_[r]) {
      if (best_row[e.column] == kInvalidEntity ||
          e.score > best_score[e.column] ||
          (e.score == best_score[e.column] && r < best_row[e.column])) {
        best_row[e.column] = r;
        best_score[e.column] = e.score;
      }
    }
  }
  return best_row;
}

SparseSimMatrix SparseSimMatrix::Fuse(const SparseSimMatrix& other,
                                      float alpha, float beta,
                                      int32_t max_entries_per_row) const {
  LARGEEA_CHECK_EQ(num_rows(), other.num_rows());
  LARGEEA_CHECK_EQ(num_cols(), other.num_cols());
  SparseSimMatrix result(num_rows(), num_cols(), max_entries_per_row);
  MergeRows(rows_, other.rows_, alpha, beta, max_entries_per_row, 0,
            num_rows(), result.rows_);
  result.RefreshMemoryTracking();
  return result;
}

SparseSimMatrix SparseSimMatrix::FuseStreamed(SparseSimMatrix a,
                                              SparseSimMatrix b, float alpha,
                                              float beta,
                                              int32_t max_entries_per_row,
                                              int64_t rows_per_block) {
  LARGEEA_CHECK_EQ(a.num_rows(), b.num_rows());
  LARGEEA_CHECK_EQ(a.num_cols(), b.num_cols());
  LARGEEA_CHECK_GT(rows_per_block, 0);
  SparseSimMatrix result(a.num_rows(), a.num_cols(), max_entries_per_row);
  for (int64_t begin = 0; begin < a.num_rows(); begin += rows_per_block) {
    const int64_t end = std::min<int64_t>(begin + rows_per_block,
                                          a.num_rows());
    MergeRows(a.rows_, b.rows_, alpha, beta, max_entries_per_row, begin, end,
              result.rows_);
    a.RefreshMemoryTracking();
    b.RefreshMemoryTracking();
    result.RefreshMemoryTracking();
  }
  return result;
}

int64_t SparseSimMatrix::MemoryBytes() const {
  return TotalEntries() * static_cast<int64_t>(sizeof(SimEntry));
}

void SparseSimMatrix::RefreshMemoryTracking() {
  tracked_.Resize(MemoryBytes());
}

void SparseSimMatrix::Serialize(rt::BinaryWriter& w) const {
  w.I32(num_rows());
  w.I32(num_cols_);
  w.I32(max_entries_per_row_);
  for (const std::vector<SimEntry>& row : rows_) {
    w.U32(static_cast<uint32_t>(row.size()));
    w.Raw(row.data(), row.size());
  }
}

StatusOr<SparseSimMatrix> SparseSimMatrix::Deserialize(rt::BinaryReader& r) {
  int32_t rows = 0, cols = 0, max_entries = 0;
  LARGEEA_RETURN_IF_ERROR(r.I32(&rows));
  LARGEEA_RETURN_IF_ERROR(r.I32(&cols));
  LARGEEA_RETURN_IF_ERROR(r.I32(&max_entries));
  if (rows < 0 || cols < 0) {
    return DataLossError("sim matrix: negative shape " +
                         std::to_string(rows) + " x " + std::to_string(cols));
  }
  // A damaged row count must not allocate row headers the payload does
  // not hold, so the lengths are walked on a copy of the reader first.
  rt::BinaryReader walk = r;
  for (int32_t i = 0; i < rows; ++i) {
    uint32_t length = 0;
    LARGEEA_RETURN_IF_ERROR(walk.U32(&length));
    if (max_entries > 0 && length > static_cast<uint32_t>(max_entries)) {
      return DataLossError("sim matrix: row " + std::to_string(i) + " holds " +
                           std::to_string(length) + " entries, cap " +
                           std::to_string(max_entries));
    }
    LARGEEA_RETURN_IF_ERROR(walk.Skip(uint64_t{length} * sizeof(SimEntry)));
  }
  SparseSimMatrix m(rows, cols, max_entries);
  for (std::vector<SimEntry>& row : m.rows_) {
    uint32_t length = 0;
    LARGEEA_RETURN_IF_ERROR(r.U32(&length));
    row.resize(length);
    LARGEEA_RETURN_IF_ERROR(r.Raw(row.data(), length));
    for (const SimEntry& e : row) {
      if (e.column < 0 || e.column >= cols) {
        return DataLossError("sim matrix: column " + std::to_string(e.column) +
                             " out of range [0, " + std::to_string(cols) +
                             ")");
      }
    }
  }
  m.RefreshMemoryTracking();
  return m;
}

}  // namespace largeea
