// Crash-safe file helpers shared by the IO and checkpoint layers.
#ifndef LARGEEA_RT_IO_UTIL_H_
#define LARGEEA_RT_IO_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "src/rt/status.h"

namespace largeea::rt {

/// Writes `pieces`, in order, to `path` atomically: the bytes go to
/// "<path>.tmp" which is renamed over `path` only after a successful
/// write+close, so a crash mid-write can never leave a truncated file
/// under the final name (rename(2) is atomic on POSIX filesystems). A
/// header and a payload need not be joined in memory first.
Status AtomicallyWriteFile(const std::string& path,
                           std::initializer_list<std::string_view> pieces);
inline Status AtomicallyWriteFile(const std::string& path,
                                  std::string_view content) {
  return AtomicallyWriteFile(path, {content});
}

/// Reads the whole file into one string sized from the file itself, so
/// reading allocates no more than the file's bytes. NOT_FOUND if it
/// cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// FNV-1a 64-bit hash — the checkpoint checksum/fingerprint primitive.
/// Not cryptographic; it detects truncation and bit rot, not adversaries.
uint64_t Fnv1a64(std::string_view data);

}  // namespace largeea::rt

#endif  // LARGEEA_RT_IO_UTIL_H_
