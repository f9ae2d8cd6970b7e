#include "src/rt/binary_io.h"

namespace largeea::rt {

Status BinaryReader::Truncated(uint64_t count, size_t element_bytes) const {
  return DataLossError("binary payload truncated: need " +
                       std::to_string(count) + " x " +
                       std::to_string(element_bytes) + " bytes, have " +
                       std::to_string(remaining()));
}

Status BinaryReader::Count(uint64_t* count, size_t min_element_bytes) {
  LARGEEA_RETURN_IF_ERROR(U64(count));
  if (min_element_bytes != 0 && *count > remaining() / min_element_bytes) {
    return DataLossError("binary length prefix " + std::to_string(*count) +
                         " exceeds remaining payload");
  }
  return OkStatus();
}

Status BinaryReader::Skip(uint64_t bytes) {
  if (bytes > remaining()) return Truncated(bytes, 1);
  pos_ += bytes;
  return OkStatus();
}

Status BinaryReader::Str(std::string* s) {
  uint64_t len = 0;
  LARGEEA_RETURN_IF_ERROR(Count(&len, 1));
  s->resize(len);
  return Raw(s->data(), len);
}

Status BinaryReader::StrArray(std::vector<std::string>* v) {
  uint64_t count = 0;
  // Each string costs at least its 8-byte length prefix.
  LARGEEA_RETURN_IF_ERROR(Count(&count, sizeof(uint64_t)));
  BinaryReader walk = *this;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    LARGEEA_RETURN_IF_ERROR(walk.Count(&len, 1));
    LARGEEA_RETURN_IF_ERROR(walk.Skip(len));
  }
  v->resize(count);
  for (std::string& s : *v) LARGEEA_RETURN_IF_ERROR(Str(&s));
  return OkStatus();
}

}  // namespace largeea::rt
