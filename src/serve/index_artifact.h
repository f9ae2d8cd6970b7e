// The immutable serve index artifact (DESIGN.md §15).
//
// A ServeIndex is everything the query layer needs, packed into one
// checksummed file so a serving process can answer alignment queries
// without the pipeline, the dataset, or a checkpoint directory:
//
//   * the fused sparse similarity matrix M as CSR — "top-k candidates for
//     source entity e" is a row read;
//   * the target-side semantic embeddings plus a deterministic HNSW graph
//     over them — "top-k candidates for raw name" is encode + graph walk
//     + exact re-rank;
//   * the 16 MinHash band tables of the target names — the string-channel
//     shortlist, merged into the name path the same way NFF fuses the
//     batch channels;
//   * the query encoder's IDF table, and both entity id -> name tables.
//
// The index is a read-only view over one flat image of sections. Build
// lays the image out in memory, Save writes it verbatim as the payload of
// a `largeea-index` artifact of kind "serve" (src/rt/artifact.h), and
// Load maps the file read-only and reads every section in place: nothing
// is copied, decoded or recomputed. The image starts with a section table
// — a u32 section count, a u32 zero, then one {u64 offset, u64 bytes} per
// IndexSection in order, offsets from the image's start — and each
// section follows the one before at a 64-byte-aligned offset, the last
// one ending the image.
//
// Because FNV is not adversarially secure, a checksum that passes proves
// nothing about the contents, so binding the image checks every section
// offset and length, CSR offset, column, neighbor id, HNSW level rule and
// table order before any query reads a byte; anything wrong is kDataLoss,
// like checksum, truncation or header damage (the file is never
// half-trusted). An index of another container version is
// kFailedPrecondition, and so is a clean artifact whose fingerprint is not
// the expected one. The header fingerprint is the producing pipeline's
// fused-artifact fingerprint (PipelineFingerprints.fused), so an index is
// traceable to the exact run that produced it.
//
// A ServeIndex views its own storage, so it is neither copyable nor
// movable; it lives on the heap behind shared_ptr<const ServeIndex>, which
// is exactly the ownership the IndexManager's atomic swap needs. A loaded
// version is unmapped when its last snapshot drops.
#ifndef LARGEEA_SERVE_INDEX_ARTIFACT_H_
#define LARGEEA_SERVE_INDEX_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/name/minhash.h"
#include "src/name/semantic_encoder.h"
#include "src/rt/artifact.h"
#include "src/rt/status.h"
#include "src/sim/hnsw.h"
#include "src/sim/sparse_sim.h"

namespace largeea::serve {

struct ServeIndexOptions {
  /// Must match the pipeline's SENS options — it defines the embedding
  /// space the stored target vectors live in.
  SemanticEncoderOptions encoder;
  SimMetric metric = SimMetric::kManhattan;
  HnswOptions hnsw;
  /// String-channel shortlist parameters (the STNS defaults).
  int32_t num_bands = 16;
  int32_t rows_per_band = 4;
  uint64_t minhash_seed = 17;
  TokenizerOptions minhash_tokenizer{
      .ngram_size = 3, .include_words = false, .include_ngrams = true};
};

/// The image's sections, in file order. S and T are the source and
/// target counts.
enum class IndexSection : uint32_t {
  kMeta,               ///< counts and options, as rt::BinaryWriter fields
  kSourceNameOffsets,  ///< u64[S + 1] into kSourceNames
  kSourceNames,        ///< the source names' bytes, back to back
  kTargetNameOffsets,  ///< u64[T + 1] into kTargetNames
  kTargetNames,        ///< the target names' bytes, back to back
  kFusedRowOffsets,    ///< u64[S + 1] into kFusedEntries
  kFusedEntries,       ///< SimEntry[], each row in its stored order
  kTargetEmbeddings,   ///< f32[T * encoder dim], row-major
  kGraphNodeSlots,     ///< HnswIndex::node_slots()
  kGraphListOffsets,   ///< HnswIndex::list_offsets()
  kGraphLinks,         ///< HnswIndex::links()
  kBandKeys,           ///< MinHashLsh::Tables::keys
  kBandItems,          ///< MinHashLsh::Tables::items
  kBandStarts,         ///< MinHashLsh::Tables::starts
  kIdfHashes,          ///< IdfTable::hashes
  kIdfWeights,         ///< IdfTable::weights
  kIdfStarts,          ///< IdfTable::starts
  kCount,
};

class ServeIndex {
 public:
  ServeIndex(const ServeIndex&) = delete;
  ServeIndex& operator=(const ServeIndex&) = delete;

  /// Builds an index from pipeline outputs: the fused matrix, the two
  /// name tables (index = dense entity id), and the fingerprint of the
  /// run that fused them. Fits the encoder's IDF, encodes the target
  /// names, builds the HNSW graph and the band tables, and lays all of
  /// it out as the image.
  static StatusOr<std::shared_ptr<const ServeIndex>> Build(
      const SparseSimMatrix& fused, std::vector<std::string> source_names,
      std::vector<std::string> target_names, uint64_t pipeline_fingerprint,
      const ServeIndexOptions& options);

  /// Writes the image to `path` atomically (tmp + rename).
  Status Save(const std::string& path) const;

  /// Maps an artifact written by Save(). kNotFound if absent, kDataLoss
  /// on any header, checksum or image damage. When
  /// `expected_fingerprint` is set, a clean artifact from a different
  /// pipeline run is rejected with kFailedPrecondition.
  static StatusOr<std::shared_ptr<const ServeIndex>> Load(
      const std::string& path,
      std::optional<uint64_t> expected_fingerprint = std::nullopt);

  // -- Identity ------------------------------------------------------
  uint64_t fingerprint() const { return fingerprint_; }
  const ServeIndexOptions& options() const { return options_; }
  int64_t num_source_entities() const { return num_sources_; }
  int64_t num_target_entities() const { return num_targets_; }

  // -- Query surface (all const, all thread-safe) --------------------
  /// Fused candidates for a source entity, best first.
  std::span<const SimEntry> FusedRow(EntityId source) const;
  std::string_view SourceName(EntityId e) const;
  std::string_view TargetName(EntityId e) const;

  /// The query-side name encoder (shared space with the stored target
  /// embeddings).
  const SemanticEncoder& encoder() const { return *encoder_; }
  /// Target `e`'s stored embedding (encoder dim floats).
  const float* TargetEmbedding(EntityId e) const;
  /// Top-k targets for an encoded query (length encoder dim) by an
  /// HNSW walk over the target embeddings, as {target id, exact score}
  /// in (score desc, id asc) order. `out` is cleared first.
  void AnnTopK(std::span<const float> query, int32_t k,
               std::vector<SimEntry>& out) const;
  /// The same answer by a full scan of the target embeddings — the
  /// reference path the ANN answer is benchmarked and verified against.
  void ExactTopK(std::span<const float> query, int32_t k,
                 std::vector<SimEntry>& out) const;

  /// Target ids whose MinHash signature collides with `name`'s in at
  /// least one LSH band (the string-channel shortlist; deduplicated),
  /// bounded to `limit` ids, preferring candidates that collide in more
  /// bands (higher estimated Jaccard; deterministic cut). The bound
  /// keeps one query against a popular bucket from degenerating into an
  /// O(n) re-rank.
  std::vector<int32_t> StringShortlist(const std::string& name,
                                       int32_t limit) const;

  /// Exact similarity (options().metric) between an encoded query
  /// vector (length encoder dim) and one target's stored embedding —
  /// the re-rank scorer for shortlisted candidates.
  float ScoreAgainstTarget(const float* query, EntityId target) const;

  /// Bytes of the image: what the index keeps resident once every
  /// section has been read.
  int64_t MemoryBytes() const { return static_cast<int64_t>(image_.size()); }

 private:
  ServeIndex() = default;

  /// Points every view at `image` after checking all of it (file
  /// comment); Build and Load both end here.
  Status Bind(std::string_view image);

  struct AlignedDelete {
    void operator()(char* p) const;
  };

  // The image's storage, declared first so the views die before it: a
  // built index owns its image, a loaded one maps it.
  std::unique_ptr<char[], AlignedDelete> built_image_;
  std::optional<rt::MappedArtifact> mapped_;
  std::string_view image_;

  uint64_t fingerprint_ = 0;
  ServeIndexOptions options_;
  int64_t num_sources_ = 0;
  int64_t num_targets_ = 0;
  std::span<const uint64_t> source_name_offsets_;
  std::string_view source_names_;
  std::span<const uint64_t> target_name_offsets_;
  std::string_view target_names_;
  std::span<const uint64_t> fused_offsets_;
  std::span<const SimEntry> fused_entries_;
  const float* embeddings_ = nullptr;
  std::optional<SemanticEncoder> encoder_;
  std::optional<MinHasher> hasher_;
  std::optional<MinHashLsh> lsh_;
  /// Walks the graph sections over the embedding section.
  std::optional<HnswIndex> graph_;
};

}  // namespace largeea::serve

#endif  // LARGEEA_SERVE_INDEX_ARTIFACT_H_
