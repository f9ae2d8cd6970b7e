// Dense row-major float matrix used for embeddings and GNN weights.
//
// This is deliberately a small, predictable container — no expression
// templates, no lazy evaluation. All bulk math lives in free functions in
// ops.h so the data layout stays obvious. Storage is 64-byte aligned
// (AlignedBuffer) for the SIMD kernel layer, and buffers register with
// the MemoryTracker so the Table-6 bench can report working-set peaks.
#ifndef LARGEEA_LA_MATRIX_H_
#define LARGEEA_LA_MATRIX_H_

#include <cstdint>
#include <utility>

#include "src/common/macros.h"
#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/la/aligned_buffer.h"

namespace largeea {

/// Row-major dense matrix of float. Movable and copyable; copies duplicate
/// the buffer (and its tracker registration).
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;

  /// A `rows` x `cols` matrix initialised to zero.
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<size_t>(rows * cols)),
        tracked_(static_cast<int64_t>(data_.size() * sizeof(float))) {
    LARGEEA_CHECK_GE(rows, 0);
    LARGEEA_CHECK_GE(cols, 0);
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        data_(other.data_),
        tracked_(static_cast<int64_t>(data_.size() * sizeof(float))) {}

  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = other.data_;
      tracked_.Resize(static_cast<int64_t>(data_.size() * sizeof(float)));
    }
    return *this;
  }

  // Moves reset the source to an empty 0x0 matrix. The defaulted
  // operations used to leave rows_/cols_ nonzero on an empty buffer,
  // breaking the size()/Row() invariants of the moved-from object.
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)),
        tracked_(std::move(other.tracked_)) {}

  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
      data_ = std::move(other.data_);
      tracked_ = std::move(other.tracked_);
    }
    return *this;
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  float& At(int64_t r, int64_t c) { return data_[Index(r, c)]; }
  float At(int64_t r, int64_t c) const { return data_[Index(r, c)]; }

  /// Pointer to the start of row `r`.
  float* Row(int64_t r) { return data_.data() + Index(r, 0); }
  const float* Row(int64_t r) const { return data_.data() + Index(r, 0); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Glorot/Xavier-uniform initialisation: U(-limit, limit) with
  /// limit = sqrt(6 / (rows + cols)). Standard for GNN weight matrices.
  void GlorotInit(Rng& rng);

  /// Gaussian initialisation with the given standard deviation.
  void GaussianInit(Rng& rng, float stddev);

 private:
  int64_t Index(int64_t r, int64_t c) const {
    LARGEEA_CHECK_GE(r, 0);
    LARGEEA_CHECK_LT(r, rows_);
    LARGEEA_CHECK_GE(c, 0);
    LARGEEA_CHECK_LT(c, cols_);
    return r * cols_ + c;
  }

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  AlignedBuffer data_;  // 64-byte aligned for the SIMD kernels (§9)
  TrackedAllocation tracked_;
};

/// Non-owning view of dense row-major float rows: a whole Matrix, a
/// contiguous row range [row_begin, row_end) of one, or rows that sit in a
/// mapped file (the serve index, DESIGN.md §15). Implicitly constructible
/// from a whole Matrix, so APIs can take views without touching call
/// sites. The rows must outlive the view (same contract as a span).
class MatrixRowRange {
 public:
  MatrixRowRange(const Matrix& m)  // NOLINT: implicit by design
      : MatrixRowRange(m, 0, m.rows()) {}

  MatrixRowRange(const Matrix& m, int64_t row_begin, int64_t row_end)
      : rows_(row_end - row_begin), cols_(m.cols()) {
    LARGEEA_CHECK_GE(row_begin, 0);
    LARGEEA_CHECK_LE(row_begin, row_end);
    LARGEEA_CHECK_LE(row_end, m.rows());
    data_ = m.data() + row_begin * cols_;
  }

  MatrixRowRange(const float* data, int64_t rows, int64_t cols)
      : data_(data), rows_(rows), cols_(cols) {
    LARGEEA_CHECK_GE(rows, 0);
    LARGEEA_CHECK_GE(cols, 0);
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  /// Pointer to view-relative row `r` (row 0 is `row_begin` of the
  /// underlying matrix).
  const float* Row(int64_t r) const {
    LARGEEA_CHECK_GE(r, 0);
    LARGEEA_CHECK_LT(r, rows_);
    return data_ + r * cols_;
  }

 private:
  const float* data_ = nullptr;
  int64_t rows_;
  int64_t cols_;
};

}  // namespace largeea

#endif  // LARGEEA_LA_MATRIX_H_
