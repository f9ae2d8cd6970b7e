#include "src/name/key_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "src/common/macros.h"

namespace largeea {
namespace {

/// About four keys per bucket; a small table is one bucket, and the cap
/// bounds the directory of a huge one.
int32_t DirectoryBits(size_t num_keys) {
  if (num_keys < 16) return 0;
  return std::min(static_cast<int32_t>(std::bit_width(num_keys)) - 3, 24);
}

uint64_t Bucket(uint64_t key, int32_t bits) {
  return bits == 0 ? 0 : key >> (64 - bits);
}

}  // namespace

KeyTable::KeyTable(std::span<const uint64_t> keys,
                   std::span<const uint32_t> starts)
    : keys_(keys), starts_(starts), bits_(DirectoryBits(keys.size())) {
  LARGEEA_CHECK_EQ(starts.size(), DirectorySize(keys.size()));
}

size_t KeyTable::DirectorySize(size_t num_keys) {
  return (size_t{1} << DirectoryBits(num_keys)) + 1;
}

std::vector<uint32_t> KeyTable::Directory(
    std::span<const uint64_t> sorted_keys) {
  LARGEEA_CHECK_LE(sorted_keys.size(),
                   size_t{std::numeric_limits<uint32_t>::max()});
  const int32_t bits = DirectoryBits(sorted_keys.size());
  std::vector<uint32_t> starts(DirectorySize(sorted_keys.size()));
  size_t i = 0;
  for (size_t b = 0; b + 1 < starts.size(); ++b) {
    starts[b] = static_cast<uint32_t>(i);
    while (i < sorted_keys.size() && Bucket(sorted_keys[i], bits) == b) ++i;
  }
  starts.back() = static_cast<uint32_t>(sorted_keys.size());
  return starts;
}

Status KeyTable::Check(std::span<const uint64_t> keys,
                       std::span<const uint32_t> starts, bool unique,
                       std::string_view what) {
  const auto damaged = [what](const std::string& why) {
    return DataLossError(std::string(what) + ": " + why);
  };
  if (keys.size() > std::numeric_limits<uint32_t>::max()) {
    return damaged("too many keys");
  }
  if (starts.size() != DirectorySize(keys.size())) {
    return damaged("directory has the wrong size");
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    if (unique ? keys[i - 1] >= keys[i] : keys[i - 1] > keys[i]) {
      return damaged("keys out of order");
    }
  }
  // Sorted keys fall in their buckets exactly when each bucket's range
  // holds only keys of that bucket and the ranges tile [0, n).
  const int32_t bits = DirectoryBits(keys.size());
  if (starts.front() != 0 || starts.back() != keys.size()) {
    return damaged("directory does not span the keys");
  }
  for (size_t b = 0; b + 1 < starts.size(); ++b) {
    if (starts[b] > starts[b + 1]) return damaged("directory out of order");
    for (uint32_t i = starts[b]; i < starts[b + 1]; ++i) {
      if (Bucket(keys[i], bits) != b) {
        return damaged("key outside its directory bucket");
      }
    }
  }
  return OkStatus();
}

std::pair<size_t, size_t> KeyTable::Find(uint64_t key) const {
  if (keys_.empty()) return {0, 0};
  const uint64_t b = Bucket(key, bits_);
  const auto first = keys_.begin() + starts_[b];
  const auto last = keys_.begin() + starts_[b + 1];
  const auto [lo, hi] = std::equal_range(first, last, key);
  return {static_cast<size_t>(lo - keys_.begin()),
          static_cast<size_t>(hi - keys_.begin())};
}

}  // namespace largeea
