// Little-endian binary serialisation for every persisted payload.
//
// Checkpoints, the serve index and spilled tiles all carry their
// payloads in this encoding inside the one artifact container
// (src/rt/artifact.h): sparse similarity matrices
// (SparseSimMatrix::Serialize), entity-pair lists and mini-batch sets
// (src/rt/checkpoint.cc), the index's dense sections (embedding rows,
// MinHash signatures, graph adjacency) and tile floats.
// BinaryWriter/BinaryReader give them a compact fixed-width encoding —
// floats as their IEEE-754 bits, so a round trip is bit-identical,
// NaN payloads and signed zeros included — with Status-propagating
// bounds checks, so a truncated or bit-rotted payload surfaces as a
// precise error instead of undefined behaviour.
//
// Values are written in host byte order, which is little-endian on every
// target this project builds for. The encoding has no self-description:
// reader and writer must agree on the field order, which the container
// header versions.
#ifndef LARGEEA_RT_BINARY_IO_H_
#define LARGEEA_RT_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/rt/status.h"

namespace largeea::rt {

/// Appends fixed-width little-endian values to a growing byte string.
class BinaryWriter {
 public:
  void U32(uint32_t v) { Raw(&v, 1); }
  void U64(uint64_t v) { Raw(&v, 1); }
  void I32(int32_t v) { Raw(&v, 1); }
  void I64(int64_t v) { Raw(&v, 1); }
  void F32(float v) { Raw(&v, 1); }

  /// Length-prefixed (u64) byte string.
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void StrArray(const std::vector<std::string>& v) {
    U64(v.size());
    for (const std::string& s : v) Str(s);
  }

  /// `count` trivially copyable values as their bytes, with no length
  /// prefix: the reader knows the count (a shape written before them).
  template <typename T>
  void Raw(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(data), count * sizeof(T));
  }
  /// Length-prefixed (u64 element count) array of trivially copyable
  /// values.
  template <typename T>
  void Array(const std::vector<T>& v) {
    U64(v.size());
    Raw(v.data(), v.size());
  }

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

/// Consumes a byte view written by BinaryWriter. Every read is bounds-
/// checked: running off the end is kDataLoss (truncation), and so is a
/// count the remaining bytes cannot hold, which is refused before any
/// allocation (bit rot in a length field would otherwise ask for an
/// allocation of garbage size). Copyable, so a decoder can walk ahead
/// on a copy before it allocates.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status U32(uint32_t* v) { return Raw(v, 1); }
  Status U64(uint64_t* v) { return Raw(v, 1); }
  Status I32(int32_t* v) { return Raw(v, 1); }
  Status I64(int64_t* v) { return Raw(v, 1); }
  Status F32(float* v) { return Raw(v, 1); }

  Status Str(std::string* s);
  /// Walks the strings before sizing `v`, so a damaged count allocates
  /// nothing for strings the payload does not hold.
  Status StrArray(std::vector<std::string>* v);

  /// Reads `count` values straight into caller-sized memory (no length
  /// prefix: the count comes from a shape read before them).
  template <typename T>
  Status Raw(T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return Truncated(count, sizeof(T));
    // An empty vector's data() may be null, and memcpy forbids a null
    // pointer even for zero bytes.
    if (count == 0) return OkStatus();
    std::memcpy(out, data_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return OkStatus();
  }
  /// Reads an array written by BinaryWriter::Array.
  template <typename T>
  Status Array(std::vector<T>* v) {
    uint64_t count = 0;
    LARGEEA_RETURN_IF_ERROR(Count(&count, sizeof(T)));
    v->resize(count);
    return Raw(v->data(), count);
  }

  /// Reads a u64 element count and refuses one that the remaining bytes
  /// cannot hold at `min_element_bytes` per element.
  Status Count(uint64_t* count, size_t min_element_bytes);
  /// Steps over `bytes` bytes.
  Status Skip(uint64_t bytes);

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  Status Truncated(uint64_t count, size_t element_bytes) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace largeea::rt

#endif  // LARGEEA_RT_BINARY_IO_H_
