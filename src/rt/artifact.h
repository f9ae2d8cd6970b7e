// The one on-disk container of every artifact the system persists:
// pipeline checkpoints (src/rt/checkpoint.h), the serve index
// (src/serve/index_artifact.h) and the spilled target of a memory-budgeted
// run (src/stream/spill.h).
//
//   largeea-<family> v3 <kind> <fingerprint> <payload-bytes> <payload-hash>\n
//   <NUL bytes up to the next multiple of 64>
//   <payload: little-endian binary>
//
// * family — the header's magic: which kind of file this is at all.
// * kind — what the payload encodes: a checkpoint's unit ("fused",
//   "batch_0003"), "serve" for an index, "dense" for a spill.
// * fingerprint — 16 hex digits naming what produced the artifact: a
//   checkpoint's per-node configuration fingerprint, an index's pipeline
//   fingerprint, 0 for a spill.
// * payload-hash — FNV-1a 64 of the payload, 16 hex digits. It detects
//   truncation and bit rot, not adversaries, so every payload decoder
//   still checks each count against the bytes that remain before it
//   allocates.
//
// The payload starts 64-byte aligned, so a mapped payload can hold arrays
// that are read in place (the serve index's sections).
//
// One writer, ArtifactWriter, appends a payload of known size in pieces,
// hashing it as it goes, and writes the final header last; WriteArtifact is
// that writer given the whole payload at once. Two readers share one header
// parser and one taxonomy. ReadArtifact copies the file into memory
// (checkpoints decode their payload into their own structures anyway);
// MapArtifact checksums the file by streaming read and maps it read-only,
// for the serve index and a spill, which are read in the mapping. A
// mapping stays valid only because
// artifacts are replaced by rename and never rewritten in place: a file
// truncated under a live mapping would SIGBUS its reader.
//
// The taxonomy: a malformed header, non-NUL padding, a payload shorter or
// longer than its header says, a checksum mismatch or the wrong kind is
// DATA_LOSS; a well-formed header of another version, or a fingerprint
// other than the expected one, is FAILED_PRECONDITION; a missing file is
// NOT_FOUND. There is one version: a file of an older version is refused,
// never converted.
#ifndef LARGEEA_RT_ARTIFACT_H_
#define LARGEEA_RT_ARTIFACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/rt/status.h"

namespace largeea::rt {

/// The container version this build writes and the only one it reads.
inline constexpr int kArtifactVersion = 3;
/// The payload's offset in the file is a multiple of this.
inline constexpr size_t kPayloadAlignment = 64;

/// Family magics.
inline constexpr std::string_view kCheckpointFamily = "largeea-ckpt";
inline constexpr std::string_view kIndexFamily = "largeea-index";
inline constexpr std::string_view kTileFamily = "largeea-tile";

/// `value` as 16 lowercase hex digits, the header's fingerprint and hash
/// spelling.
std::string Hex64(uint64_t value);
/// Parses 1 to 16 hex digits and nothing else.
std::optional<uint64_t> ParseHex64(std::string_view text);

/// The bytes of an artifact carrying `payload` that precede it: the
/// header line and the NUL padding up to the payload's aligned offset.
std::string ArtifactHeader(std::string_view family, std::string_view kind,
                           uint64_t fingerprint, std::string_view payload);

/// Writes one artifact whose payload size is known before its bytes are.
/// The header's length does not depend on the hash, so the file is written
/// front to back behind a header whose hash is still zeros, the payload
/// appended in pieces and hashed as it goes, and Finish() writes the final
/// header over the first. The bytes go to "<path>.tmp", which Finish()
/// renames over `path`, so a failed or interrupted write never leaves a
/// partial file under the final name. A writer destroyed before Finish()
/// succeeds removes its temporary file.
class ArtifactWriter {
 public:
  /// Opens "<path>.tmp" for an artifact of `payload_bytes` payload bytes.
  static StatusOr<ArtifactWriter> Create(const std::string& path,
                                         std::string_view family,
                                         std::string_view kind,
                                         uint64_t fingerprint,
                                         uint64_t payload_bytes);

  ArtifactWriter(ArtifactWriter&& other) noexcept;
  ArtifactWriter& operator=(ArtifactWriter&&) = delete;
  ArtifactWriter(const ArtifactWriter&) = delete;
  ArtifactWriter& operator=(const ArtifactWriter&) = delete;
  ~ArtifactWriter();

  /// Appends the payload's next bytes; never more than declared in all.
  Status Append(std::string_view bytes);

  /// Once the whole payload is in: writes the header, closes the file and
  /// renames it into place. Returns the file's size.
  StatusOr<int64_t> Finish();

 private:
  ArtifactWriter() = default;
  /// Closes and removes the temporary file, if it is still open.
  void Discard();

  int fd_ = -1;
  std::string path_;
  /// The header with a zero hash; Finish() spells the payload's hash
  /// over its last 16 digits.
  std::string header_;
  uint64_t payload_bytes_ = 0;
  uint64_t written_ = 0;
  uint64_t hash_ = 0;
};

/// Writes the header and `payload` to `path` through an ArtifactWriter,
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

/// A verified artifact file mapped read-only; unmapped when the object
/// dies. An inaccessible guard page follows the mapping, so a read past
/// its end faults instead of reading another mapping's memory.
class MappedArtifact {
 public:
  MappedArtifact(MappedArtifact&& other) noexcept;
  MappedArtifact& operator=(MappedArtifact&& other) noexcept;
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;
  ~MappedArtifact();

  uint64_t fingerprint() const { return fingerprint_; }
  /// The payload in the mapping, 64-byte aligned.
  std::string_view payload() const { return payload_; }

 private:
  friend StatusOr<MappedArtifact> MapArtifact(
      const std::string& path, std::string_view family,
      std::string_view kind, std::optional<uint64_t> fingerprint);
  MappedArtifact() = default;

  void* base_ = nullptr;
  size_t reserved_bytes_ = 0;  ///< the mapping and its guard page
  uint64_t fingerprint_ = 0;
  std::string_view payload_;
};

/// Verifies `path` like ReadArtifact — the checksum by a streaming read
/// through a buffer of at most 64 KiB, never the whole file in memory —
/// then maps it PROT_READ.
StatusOr<MappedArtifact> MapArtifact(const std::string& path,
                                     std::string_view family,
                                     std::string_view kind,
                                     std::optional<uint64_t> fingerprint);

}  // namespace largeea::rt

#endif  // LARGEEA_RT_ARTIFACT_H_
