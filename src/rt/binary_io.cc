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

}  // namespace largeea::rt
