// Crash-safe file helpers shared by the IO and checkpoint layers.
#ifndef LARGEEA_RT_IO_UTIL_H_
#define LARGEEA_RT_IO_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "src/rt/status.h"

namespace largeea::rt {

/// Writes `content` to `path` atomically: the bytes go to "<path>.tmp"
/// which is renamed over `path` only after a successful write+close, so a
/// crash mid-write can never leave a truncated file under the final name
/// (rename(2) is atomic on POSIX filesystems).
Status AtomicallyWriteFile(const std::string& path, std::string_view content);

/// Reads the whole file into one string sized from the file itself, so
/// reading allocates no more than the file's bytes. NOT_FOUND if it
/// cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Closes a file descriptor when it goes out of scope.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

/// FNV-1a 64-bit hash — the checkpoint checksum/fingerprint primitive.
/// Not cryptographic; it detects truncation and bit rot, not adversaries.
/// Passing an earlier result as `hash` continues it over more bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(std::string_view data, uint64_t hash = kFnv1a64Basis);

}  // namespace largeea::rt

#endif  // LARGEEA_RT_IO_UTIL_H_
