#include "src/rt/io_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

namespace largeea::rt {

Status AtomicallyWriteFile(const std::string& path,
                           std::initializer_list<std::string_view> pieces) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return UnavailableError("cannot open '" + tmp_path + "' for writing");
    }
    for (const std::string_view piece : pieces) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    }
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return UnavailableError("short write to '" + tmp_path + "'");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return UnavailableError("cannot rename '" + tmp_path + "' to '" + path +
                            "'");
  }
  return OkStatus();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return NotFoundError("cannot open '" + path + "'");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return UnavailableError("cannot stat '" + path + "'");
  }
  std::string content(static_cast<size_t>(st.st_size), '\0');
  size_t filled = 0;
  char more[4096];
  while (true) {
    // Into the string while it has room; past the size fstat reported (a
    // file that grew, or one that reports no size) through a small
    // buffer, so an unchanged file costs exactly one allocation.
    const bool room = filled < content.size();
    const ssize_t n = room ? ::read(fd, content.data() + filled,
                                    content.size() - filled)
                           : ::read(fd, more, sizeof(more));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return UnavailableError("read error on '" + path + "'");
    }
    if (n == 0) break;
    if (!room) content.append(more, static_cast<size_t>(n));
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  content.resize(filled);
  return content;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace largeea::rt
