// The one on-disk container of every artifact the system persists:
// pipeline checkpoints (src/rt/checkpoint.h), the serve index
// (src/serve/index_artifact.h) and spilled tiles (src/stream/tile_store.h).
//
//   largeea-<family> v2 <kind> <fingerprint> <payload-bytes> <payload-hash>\n
//   <payload: little-endian binary, written by rt::BinaryWriter>
//
// * family — the header's magic: which kind of file this is at all.
// * kind — what the payload encodes: a checkpoint's unit ("fused",
//   "batch_0003"), "serve" for an index, "dense" for a tile.
// * fingerprint — 16 hex digits naming what produced the artifact: a
//   checkpoint's per-node configuration fingerprint, an index's pipeline
//   fingerprint, 0 for a tile.
// * payload-hash — FNV-1a 64 of the payload, 16 hex digits. It detects
//   truncation and bit rot, not adversaries, so every payload decoder
//   still checks each count against the bytes that remain before it
//   allocates.
//
// The reader's taxonomy: a malformed header, a payload shorter or longer
// than its header says, a checksum mismatch or the wrong kind is
// DATA_LOSS; a well-formed header of another version, or a fingerprint
// other than the expected one, is FAILED_PRECONDITION; a missing file is
// NOT_FOUND. There is one version and one reader: a file of an older
// version is refused, never converted.
#ifndef LARGEEA_RT_ARTIFACT_H_
#define LARGEEA_RT_ARTIFACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/rt/status.h"

namespace largeea::rt {

/// The container version this build writes and the only one it reads.
inline constexpr int kArtifactVersion = 2;

/// Family magics.
inline constexpr std::string_view kCheckpointFamily = "largeea-ckpt";
inline constexpr std::string_view kIndexFamily = "largeea-index";
inline constexpr std::string_view kTileFamily = "largeea-tile";

/// `value` as 16 lowercase hex digits, the header's fingerprint and hash
/// spelling.
std::string Hex64(uint64_t value);
/// Parses 1 to 16 hex digits and nothing else.
std::optional<uint64_t> ParseHex64(std::string_view text);

/// The header line of an artifact carrying `payload`, newline included.
std::string ArtifactHeader(std::string_view family, std::string_view kind,
                           uint64_t fingerprint, std::string_view payload);

/// Writes the header and `payload` to `path` atomically (tmp + rename),
/// and the file's size to `bytes_written` when given.
Status WriteArtifact(const std::string& path, std::string_view family,
                     std::string_view kind, uint64_t fingerprint,
                     std::string_view payload,
                     int64_t* bytes_written = nullptr);

/// A verified artifact file: the whole file, its payload a view into it.
struct Artifact {
  uint64_t fingerprint = 0;
  std::string file;
  size_t payload_offset = 0;

  std::string_view payload() const {
    return std::string_view(file).substr(payload_offset);
  }
};

/// Reads `path` and verifies it as a `family` artifact of `kind`, and,
/// when `fingerprint` is set, of that fingerprint (taxonomy above).
StatusOr<Artifact> ReadArtifact(const std::string& path,
                                std::string_view family,
                                std::string_view kind,
                                std::optional<uint64_t> fingerprint);

}  // namespace largeea::rt

#endif  // LARGEEA_RT_ARTIFACT_H_
