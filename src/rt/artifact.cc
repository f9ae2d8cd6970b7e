#include "src/rt/artifact.h"

#include <array>
#include <charconv>

#include "src/rt/io_util.h"

namespace largeea::rt {
namespace {

/// The longest header line the reader looks for: every field but the
/// kind has a bounded spelling, and the writers keep kinds short.
constexpr size_t kMaxHeaderBytes = 256;
constexpr size_t kHeaderFields = 6;

/// Parses a whole field as an unsigned number in `base`.
std::optional<uint64_t> ParseU64(std::string_view text, int base) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
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
  return std::string(family) + " v" + std::to_string(kArtifactVersion) +
         ' ' + std::string(kind) + ' ' + Hex64(fingerprint) + ' ' +
         std::to_string(payload.size()) + ' ' + Hex64(Fnv1a64(payload)) +
         '\n';
}

Status WriteArtifact(const std::string& path, std::string_view family,
                     std::string_view kind, uint64_t fingerprint,
                     std::string_view payload, int64_t* bytes_written) {
  const std::string header =
      ArtifactHeader(family, kind, fingerprint, payload);
  LARGEEA_RETURN_IF_ERROR(AtomicallyWriteFile(path, {header, payload}));
  if (bytes_written != nullptr) {
    *bytes_written = static_cast<int64_t>(header.size() + payload.size());
  }
  return OkStatus();
}

StatusOr<Artifact> ReadArtifact(const std::string& path,
                                std::string_view family,
                                std::string_view kind,
                                std::optional<uint64_t> fingerprint) {
  LARGEEA_ASSIGN_OR_RETURN(std::string file, ReadFileToString(path));
  const auto damaged = [&path](const std::string& what) {
    return DataLossError("'" + path + "': " + what);
  };
  const size_t newline =
      std::string_view(file).substr(0, kMaxHeaderBytes).find('\n');
  if (newline == std::string::npos) return damaged("no header line");

  // Split at single spaces; one field too many marks the header
  // malformed.
  std::array<std::string_view, kHeaderFields + 1> fields;
  size_t num_fields = 0;
  for (std::string_view rest(file.data(), newline);
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
  const std::optional<uint64_t> stored_fingerprint = ParseHex64(fields[3]);
  const std::optional<uint64_t> payload_bytes = ParseU64(fields[4], 10);
  const std::optional<uint64_t> hash = ParseHex64(fields[5]);
  if (!stored_fingerprint || !payload_bytes || !hash) {
    return damaged("malformed header");
  }

  const std::string_view payload = std::string_view(file).substr(newline + 1);
  if (payload.size() != *payload_bytes) {
    return damaged("payload is " + std::to_string(payload.size()) +
                   " bytes, header says " + std::to_string(*payload_bytes));
  }
  if (Fnv1a64(payload) != *hash) return damaged("payload checksum mismatch");
  if (fields[2] != kind) {
    return damaged("artifact kind '" + std::string(fields[2]) +
                   "', expected '" + std::string(kind) + "'");
  }
  if (fingerprint.has_value() && *stored_fingerprint != *fingerprint) {
    return FailedPreconditionError(
        "'" + path + "': written under fingerprint " +
        Hex64(*stored_fingerprint) + ", expected " + Hex64(*fingerprint));
  }
  return Artifact{*stored_fingerprint, std::move(file), newline + 1};
}

}  // namespace largeea::rt
