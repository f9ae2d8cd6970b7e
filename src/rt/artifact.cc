#include "src/rt/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/common/macros.h"
#include "src/rt/io_util.h"

namespace largeea::rt {
namespace {

/// The longest header line the reader looks for: every field but the
/// kind has a bounded spelling, and the writers keep kinds short.
constexpr size_t kMaxHeaderBytes = 256;
constexpr size_t kHeaderFields = 6;
/// The most the mapped reader holds of the file at once while it hashes:
/// small enough that the heap keeps no large block resident after it.
constexpr size_t kHashChunkBytes = size_t{64} << 10;

/// Parses a whole field as an unsigned number in `base`.
std::optional<uint64_t> ParseU64(std::string_view text, int base) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

size_t PayloadOffset(size_t header_line_bytes) {
  return (header_line_bytes + kPayloadAlignment - 1) / kPayloadAlignment *
         kPayloadAlignment;
}

/// The header line of an artifact and its NUL padding up to the payload.
std::string HeaderFor(std::string_view family, std::string_view kind,
                      uint64_t fingerprint, uint64_t payload_bytes,
                      uint64_t hash) {
  std::string header = std::string(family) + " v" +
                       std::to_string(kArtifactVersion) + ' ' +
                       std::string(kind) + ' ' + Hex64(fingerprint) + ' ' +
                       std::to_string(payload_bytes) + ' ' + Hex64(hash) +
                       '\n';
  header.resize(PayloadOffset(header.size()), '\0');
  return header;
}

/// Writes all of `head` and then all of `tail` at `offset`, in one call
/// unless the kernel takes fewer bytes.
Status WriteAt(int fd, std::string_view head, std::string_view tail,
               uint64_t offset, const std::string& path) {
  while (!head.empty() || !tail.empty()) {
    const iovec pieces[2] = {{const_cast<char*>(head.data()), head.size()},
                             {const_cast<char*>(tail.data()), tail.size()}};
    const ssize_t n = ::pwritev(fd, pieces, 2, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return UnavailableError("short write to '" + path + "'");
    const size_t from_head = std::min(static_cast<size_t>(n), head.size());
    head.remove_prefix(from_head);
    tail.remove_prefix(static_cast<size_t>(n) - from_head);
    offset += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

/// What a header line says about its file.
struct Header {
  std::string kind;
  uint64_t fingerprint = 0;
  uint64_t payload_bytes = 0;
  uint64_t hash = 0;
  size_t payload_offset = 0;
};

/// Parses the header at the start of `head`, the file's first bytes (at
/// least kMaxHeaderBytes + kPayloadAlignment of them, or the whole file),
/// and checks the padding and the file's size against it.
StatusOr<Header> ParseHeader(std::string_view head, uint64_t file_bytes,
                             const std::string& path,
                             std::string_view family) {
  const auto damaged = [&path](const std::string& what) {
    return DataLossError("'" + path + "': " + what);
  };
  const size_t newline = head.substr(0, kMaxHeaderBytes).find('\n');
  if (newline == std::string_view::npos) return damaged("no header line");

  // Split at single spaces; one field too many marks the header
  // malformed.
  std::array<std::string_view, kHeaderFields + 1> fields;
  size_t num_fields = 0;
  for (std::string_view rest = head.substr(0, newline);
       num_fields < fields.size();) {
    const size_t space = rest.find(' ');
    fields[num_fields++] = rest.substr(0, space);
    if (space == std::string_view::npos) break;
    rest.remove_prefix(space + 1);
  }
  if (num_fields < 2 || fields[0] != family) {
    return damaged("not a " + std::string(family) + " file");
  }
  const std::optional<uint64_t> version =
      fields[1].size() > 1 && fields[1][0] == 'v'
          ? ParseU64(fields[1].substr(1), 10)
          : std::nullopt;
  if (!version) return damaged("malformed version");
  if (*version != kArtifactVersion) {
    return FailedPreconditionError(
        "'" + path + "': format version v" + std::to_string(*version) +
        ", this build reads v" + std::to_string(kArtifactVersion));
  }
  if (num_fields != kHeaderFields || fields[2].empty()) {
    return damaged("malformed header");
  }
  const std::optional<uint64_t> fingerprint = ParseHex64(fields[3]);
  const std::optional<uint64_t> payload_bytes = ParseU64(fields[4], 10);
  const std::optional<uint64_t> hash = ParseHex64(fields[5]);
  if (!fingerprint || !payload_bytes || !hash) {
    return damaged("malformed header");
  }

  Header header{std::string(fields[2]), *fingerprint, *payload_bytes, *hash,
                PayloadOffset(newline + 1)};
  if (file_bytes < header.payload_offset) {
    return damaged("truncated before the payload");
  }
  const std::string_view padding =
      head.substr(newline + 1, header.payload_offset - newline - 1);
  if (std::any_of(padding.begin(), padding.end(),
                  [](char c) { return c != '\0'; })) {
    return damaged("header padding is not NUL");
  }
  if (file_bytes - header.payload_offset != header.payload_bytes) {
    return damaged("payload is " +
                   std::to_string(file_bytes - header.payload_offset) +
                   " bytes, header says " +
                   std::to_string(header.payload_bytes));
  }
  return header;
}

/// The checks after the checksum: the kind, then the fingerprint.
Status CheckIdentity(const Header& header, const std::string& path,
                     std::string_view kind,
                     std::optional<uint64_t> fingerprint) {
  if (header.kind != kind) {
    return DataLossError("'" + path + "': artifact kind '" + header.kind +
                         "', expected '" + std::string(kind) + "'");
  }
  if (fingerprint.has_value() && header.fingerprint != *fingerprint) {
    return FailedPreconditionError(
        "'" + path + "': written under fingerprint " +
        Hex64(header.fingerprint) + ", expected " + Hex64(*fingerprint));
  }
  return OkStatus();
}

/// Reads up to `bytes` bytes at `offset` into `out`; the count read.
StatusOr<size_t> ReadAt(int fd, char* out, size_t bytes, uint64_t offset,
                        const std::string& path) {
  size_t filled = 0;
  while (filled < bytes) {
    const ssize_t n = ::pread(fd, out + filled, bytes - filled,
                              static_cast<off_t>(offset + filled));
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError("read error on '" + path + "'");
    }
    if (n == 0) break;
    filled += static_cast<size_t>(n);
  }
  return filled;
}

}  // namespace

std::string Hex64(uint64_t value) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) {
    out[i] = "0123456789abcdef"[value & 0xf];
  }
  return out;
}

std::optional<uint64_t> ParseHex64(std::string_view text) {
  if (text.size() > 16) return std::nullopt;
  return ParseU64(text, 16);
}

std::string ArtifactHeader(std::string_view family, std::string_view kind,
                           uint64_t fingerprint, std::string_view payload) {
  return HeaderFor(family, kind, fingerprint, payload.size(),
                   Fnv1a64(payload));
}

StatusOr<ArtifactWriter> ArtifactWriter::Create(const std::string& path,
                                                std::string_view family,
                                                std::string_view kind,
                                                uint64_t fingerprint,
                                                uint64_t payload_bytes) {
  ArtifactWriter writer;
  writer.path_ = path;
  // Every hash spells as 16 digits, so the header's length is known now.
  writer.header_ = HeaderFor(family, kind, fingerprint, payload_bytes, 0);
  writer.payload_bytes_ = payload_bytes;
  writer.hash_ = kFnv1a64Basis;
  const std::string tmp_path = path + ".tmp";
  writer.fd_ = ::open(tmp_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (writer.fd_ < 0) {
    return UnavailableError("cannot open '" + tmp_path + "' for writing");
  }
  return writer;
}

ArtifactWriter::ArtifactWriter(ArtifactWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      header_(std::move(other.header_)),
      payload_bytes_(other.payload_bytes_),
      written_(other.written_),
      hash_(other.hash_) {}

ArtifactWriter::~ArtifactWriter() { Discard(); }

void ArtifactWriter::Discard() {
  if (fd_ < 0) return;
  ::close(std::exchange(fd_, -1));
  std::remove((path_ + ".tmp").c_str());
}

Status ArtifactWriter::Append(std::string_view bytes) {
  LARGEEA_CHECK_GE(fd_, 0);
  LARGEEA_CHECK_LE(bytes.size(), payload_bytes_ - written_);
  // The file is written front to back: the first bytes go out behind the
  // header, its hash still zeros, in one write from offset 0. A server
  // mapping a fresh DBP1M index written payload first peaked ~1 MiB
  // higher (VmHWM 41.9 against 40.9 MiB, five runs each, 4-vCPU x86
  // host): the kernel caches the two write orders differently.
  const Status status =
      written_ == 0
          ? WriteAt(fd_, header_, bytes, 0, path_ + ".tmp")
          : WriteAt(fd_, {}, bytes, header_.size() + written_, path_ + ".tmp");
  if (!status.ok()) {
    Discard();
    return status;
  }
  hash_ = Fnv1a64(bytes, hash_);
  written_ += bytes.size();
  return OkStatus();
}

StatusOr<int64_t> ArtifactWriter::Finish() {
  LARGEEA_CHECK_GE(fd_, 0);
  LARGEEA_CHECK_EQ(written_, payload_bytes_);
  const std::string tmp_path = path_ + ".tmp";
  const std::string hash = Hex64(hash_);
  header_.replace(header_.find('\n') - hash.size(), hash.size(), hash);
  Status status = WriteAt(fd_, header_, {}, 0, tmp_path);
  if (::close(std::exchange(fd_, -1)) != 0 && status.ok()) {
    status = UnavailableError("short write to '" + tmp_path + "'");
  }
  if (status.ok() && std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    status = UnavailableError("cannot rename '" + tmp_path + "' to '" +
                              path_ + "'");
  }
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  return static_cast<int64_t>(header_.size() + payload_bytes_);
}

Status WriteArtifact(const std::string& path, std::string_view family,
                     std::string_view kind, uint64_t fingerprint,
                     std::string_view payload, int64_t* bytes_written) {
  LARGEEA_ASSIGN_OR_RETURN(
      ArtifactWriter writer,
      ArtifactWriter::Create(path, family, kind, fingerprint, payload.size()));
  LARGEEA_RETURN_IF_ERROR(writer.Append(payload));
  LARGEEA_ASSIGN_OR_RETURN(const int64_t bytes, writer.Finish());
  if (bytes_written != nullptr) *bytes_written = bytes;
  return OkStatus();
}

StatusOr<Artifact> ReadArtifact(const std::string& path,
                                std::string_view family,
                                std::string_view kind,
                                std::optional<uint64_t> fingerprint) {
  LARGEEA_ASSIGN_OR_RETURN(std::string file, ReadFileToString(path));
  LARGEEA_ASSIGN_OR_RETURN(const Header header,
                           ParseHeader(file, file.size(), path, family));
  const std::string_view payload =
      std::string_view(file).substr(header.payload_offset);
  if (Fnv1a64(payload) != header.hash) {
    return DataLossError("'" + path + "': payload checksum mismatch");
  }
  LARGEEA_RETURN_IF_ERROR(CheckIdentity(header, path, kind, fingerprint));
  return Artifact{header.fingerprint, std::move(file), header.payload_offset};
}

MappedArtifact::MappedArtifact(MappedArtifact&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      reserved_bytes_(std::exchange(other.reserved_bytes_, 0)),
      fingerprint_(other.fingerprint_),
      payload_(std::exchange(other.payload_, {})) {}

MappedArtifact& MappedArtifact::operator=(MappedArtifact&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(base_, reserved_bytes_);
    base_ = std::exchange(other.base_, nullptr);
    reserved_bytes_ = std::exchange(other.reserved_bytes_, 0);
    fingerprint_ = other.fingerprint_;
    payload_ = std::exchange(other.payload_, {});
  }
  return *this;
}

MappedArtifact::~MappedArtifact() {
  if (base_ != nullptr) ::munmap(base_, reserved_bytes_);
}

StatusOr<MappedArtifact> MapArtifact(const std::string& path,
                                     std::string_view family,
                                     std::string_view kind,
                                     std::optional<uint64_t> fingerprint) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return NotFoundError("cannot open '" + path + "'");
  const FdCloser closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return UnavailableError("cannot stat '" + path + "'");
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);

  std::array<char, kMaxHeaderBytes + kPayloadAlignment> head_bytes{};
  LARGEEA_ASSIGN_OR_RETURN(
      const size_t head_size,
      ReadAt(fd, head_bytes.data(), head_bytes.size(), 0, path));
  const std::string_view head(head_bytes.data(), head_size);
  LARGEEA_ASSIGN_OR_RETURN(const Header header,
                           ParseHeader(head, file_bytes, path, family));

  // The checksum by streaming read: the page cache holds the file, and
  // only what the reader later touches through the mapping is resident.
  uint64_t hash = kFnv1a64Basis;
  const size_t chunk_bytes =
      static_cast<size_t>(std::min<uint64_t>(kHashChunkBytes,
                                             header.payload_bytes));
  std::unique_ptr<char[]> chunk(new char[std::max<size_t>(chunk_bytes, 1)]);
  for (uint64_t done = 0; done < header.payload_bytes;) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(chunk_bytes, header.payload_bytes - done));
    LARGEEA_ASSIGN_OR_RETURN(
        const size_t got,
        ReadAt(fd, chunk.get(), want, header.payload_offset + done, path));
    if (got != want) {
      return DataLossError("'" + path + "': shrank while it was read");
    }
    hash = Fnv1a64(std::string_view(chunk.get(), got), hash);
    done += got;
  }
  chunk.reset();
  if (hash != header.hash) {
    return DataLossError("'" + path + "': payload checksum mismatch");
  }
  LARGEEA_RETURN_IF_ERROR(CheckIdentity(header, path, kind, fingerprint));

  // Reserve the mapping plus one guard page, then map the file over the
  // front of the reservation.
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t mapped = static_cast<size_t>(file_bytes);
  const size_t reserved = (mapped + page - 1) / page * page + page;
  void* base = ::mmap(nullptr, reserved, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    return UnavailableError("cannot reserve a mapping for '" + path + "'");
  }
  if (::mmap(base, mapped, PROT_READ, MAP_SHARED | MAP_FIXED, fd, 0) ==
      MAP_FAILED) {
    ::munmap(base, reserved);
    return UnavailableError("cannot map '" + path + "'");
  }
  MappedArtifact artifact;
  artifact.base_ = base;
  artifact.reserved_bytes_ = reserved;
  artifact.fingerprint_ = header.fingerprint;
  artifact.payload_ = std::string_view(static_cast<const char*>(base), mapped)
                          .substr(header.payload_offset);
  return artifact;
}

}  // namespace largeea::rt
