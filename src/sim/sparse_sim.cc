#include "src/sim/sparse_sim.h"

#include <algorithm>

#include "src/common/macros.h"

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

size_t RowLimit(size_t merged_size, int32_t max_entries_per_row) {
  return max_entries_per_row > 0
             ? std::min(merged_size, static_cast<size_t>(max_entries_per_row))
             : merged_size;
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
  std::vector<SimEntry>& entries = rows_[row];

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
  const bool full = max_entries_per_row_ > 0 &&
                    static_cast<int32_t>(entries.size()) >=
                        max_entries_per_row_;
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
  std::vector<SimEntry> merged;
  for (int32_t r = 0; r < num_rows(); ++r) {
    MergeRow(rows_[r], other.rows_[r], alpha, beta, merged);
    result.rows_[r].assign(
        merged.begin(),
        merged.begin() + RowLimit(merged.size(), max_entries_per_row));
  }
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
  std::vector<SimEntry> merged;
  for (int32_t r = 0; r < a.num_rows(); ++r) {
    MergeRow(a.rows_[r], b.rows_[r], alpha, beta, merged);
    result.rows_[r].assign(
        merged.begin(),
        merged.begin() + RowLimit(merged.size(), max_entries_per_row));
    // Release the consumed rows; swap actually frees (clear() keeps
    // capacity, which is the whole footprint here).
    std::vector<SimEntry>().swap(a.rows_[r]);
    std::vector<SimEntry>().swap(b.rows_[r]);
    if ((r + 1) % rows_per_block == 0) {
      a.RefreshMemoryTracking();
      b.RefreshMemoryTracking();
      result.RefreshMemoryTracking();
    }
  }
  a.RefreshMemoryTracking();
  b.RefreshMemoryTracking();
  result.RefreshMemoryTracking();
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
