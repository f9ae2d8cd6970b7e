// A read-only array that either owns its elements or borrows them.
//
// The serve index is one flat image of sections (DESIGN.md §15): a loaded
// index reads its tables straight out of a read-only file mapping, while
// the pipeline and an index build make the same tables in memory. The
// classes whose tables take both forms — the encoder's IDF table, the
// MinHash band tables, the HNSW adjacency — hold them as FlatArrays, so one
// code path reads them either way.
#ifndef LARGEEA_COMMON_FLAT_ARRAY_H_
#define LARGEEA_COMMON_FLAT_ARRAY_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace largeea {

template <typename T>
class FlatArray {
 public:
  FlatArray() = default;
  /// Owns `values`.
  explicit FlatArray(std::vector<T> values)
      : owned_(std::move(values)), view_(owned_) {}
  /// Borrows `values`, whose storage must outlive the array.
  static FlatArray Borrow(std::span<const T> values) {
    FlatArray array;
    array.view_ = values;
    return array;
  }

  // A moved vector keeps its buffer, so the view stays valid across a
  // move; a copy would alias the source's buffer, so there is none.
  FlatArray(FlatArray&&) noexcept = default;
  FlatArray& operator=(FlatArray&&) noexcept = default;
  FlatArray(const FlatArray&) = delete;
  FlatArray& operator=(const FlatArray&) = delete;

  std::span<const T> span() const { return view_; }
  const T* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& operator[](size_t i) const { return view_[i]; }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
};

}  // namespace largeea

#endif  // LARGEEA_COMMON_FLAT_ARRAY_H_
