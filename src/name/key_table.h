// Flat lookup over sorted 64-bit hash keys.
//
// The name layer's two hash maps — a token's IDF weight and a MinHash
// band's targets — are flat tables: the keys sorted ascending, each key's
// value at the same position of a parallel array, and a directory of
// 2^bits + 1 starts over the keys' top `bits` bits, sized to about four
// keys per bucket. A lookup reads one directory entry and searches one
// bucket, so it is O(1) expected for hash keys, and a table is a few
// plain arrays that a file mapping holds verbatim (DESIGN.md §15).
#ifndef LARGEEA_NAME_KEY_TABLE_H_
#define LARGEEA_NAME_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/rt/status.h"

namespace largeea {

/// A view of sorted keys and their directory; both are borrowed.
class KeyTable {
 public:
  KeyTable() = default;
  /// `starts` must be Directory(keys) (Check verifies outside input).
  KeyTable(std::span<const uint64_t> keys, std::span<const uint32_t> starts);

  /// Directory entries of a table of `num_keys` keys: 2^bits + 1.
  static size_t DirectorySize(size_t num_keys);
  /// The directory of `sorted_keys`.
  static std::vector<uint32_t> Directory(std::span<const uint64_t> sorted_keys);
  /// DATA_LOSS, naming `what`, unless `keys` ascend (strictly when
  /// `unique`) and `starts` is their directory.
  static Status Check(std::span<const uint64_t> keys,
                      std::span<const uint32_t> starts, bool unique,
                      std::string_view what);

  /// Positions [first, last) of the keys equal to `key`.
  std::pair<size_t, size_t> Find(uint64_t key) const;

 private:
  std::span<const uint64_t> keys_;
  std::span<const uint32_t> starts_;
  int32_t bits_ = 0;
};

}  // namespace largeea

#endif  // LARGEEA_NAME_KEY_TABLE_H_
