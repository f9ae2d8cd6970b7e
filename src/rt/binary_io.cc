#include "src/rt/binary_io.h"

namespace largeea::rt {

Status BinaryReader::ReadRaw(void* out, size_t n) {
  // An empty vector's data() may be null, and memcpy forbids a null
  // pointer even for zero bytes.
  if (n == 0) return OkStatus();
  if (n > data_.size() - pos_) {
    return DataLossError("binary payload truncated: need " +
                         std::to_string(n) + " bytes, have " +
                         std::to_string(data_.size() - pos_));
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return OkStatus();
}

Status BinaryReader::CheckedLen(uint64_t* len, size_t element_size) {
  LARGEEA_RETURN_IF_ERROR(U64(len));
  if (element_size != 0 && *len > remaining() / element_size) {
    return DataLossError("binary length prefix " + std::to_string(*len) +
                         " exceeds remaining payload");
  }
  return OkStatus();
}

Status BinaryReader::Str(std::string* s) {
  uint64_t len = 0;
  LARGEEA_RETURN_IF_ERROR(CheckedLen(&len, 1));
  s->resize(len);
  return ReadRaw(s->data(), len);
}

Status BinaryReader::F32Array(std::vector<float>* v) {
  uint64_t len = 0;
  LARGEEA_RETURN_IF_ERROR(CheckedLen(&len, sizeof(float)));
  v->resize(len);
  return ReadRaw(v->data(), len * sizeof(float));
}

Status BinaryReader::U64Array(std::vector<uint64_t>* v) {
  uint64_t len = 0;
  LARGEEA_RETURN_IF_ERROR(CheckedLen(&len, sizeof(uint64_t)));
  v->resize(len);
  return ReadRaw(v->data(), len * sizeof(uint64_t));
}

Status BinaryReader::I32Array(std::vector<int32_t>* v) {
  uint64_t len = 0;
  LARGEEA_RETURN_IF_ERROR(CheckedLen(&len, sizeof(int32_t)));
  v->resize(len);
  return ReadRaw(v->data(), len * sizeof(int32_t));
}

Status BinaryReader::StrArray(std::vector<std::string>* v) {
  uint64_t len = 0;
  // Each string costs at least its 8-byte length prefix.
  LARGEEA_RETURN_IF_ERROR(CheckedLen(&len, sizeof(uint64_t)));
  v->resize(len);
  for (uint64_t i = 0; i < len; ++i) {
    LARGEEA_RETURN_IF_ERROR(Str(&(*v)[i]));
  }
  return OkStatus();
}

}  // namespace largeea::rt
