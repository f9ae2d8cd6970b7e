// The immutable serve index artifact (DESIGN.md §15).
//
// A ServeIndex is everything the query layer needs, packed into one
// checksummed file so a serving process can answer alignment queries
// without the pipeline, the dataset, or a checkpoint directory:
//
//   * the fused sparse similarity matrix M — "top-k candidates for
//     source entity e" is a row read;
//   * the target-side semantic embedding matrix plus a deterministic
//     HNSW graph over it — "top-k candidates for raw name" is
//     encode + graph walk + exact re-rank;
//   * MinHash signatures of the target names with LSH banding — the
//     string-channel shortlist, merged into the name path the same way
//     NFF fuses the batch channels;
//   * both entity id↔name tables (the name→id direction is rebuilt at
//     load, it is derived data).
//
// The file is a `largeea-index` artifact of kind "serve" in the one
// artifact container (src/rt/artifact.h), its payload written by
// rt::BinaryWriter end to end: options, name tables, the fused matrix
// (SparseSimMatrix::Serialize), one block of target embeddings, the
// graph, one block of signatures. The header fingerprint is the
// producing pipeline's fused-artifact fingerprint
// (PipelineFingerprints.fused), so an index is traceable to the exact
// run that produced it; Load() with an expected fingerprint rejects a
// mismatched artifact with kFailedPrecondition, an index of another
// container version is kFailedPrecondition too, and any checksum,
// truncation or decode damage is kDataLoss (the file is never
// half-trusted).
//
// A loaded index is immutable and internally self-referential (the HNSW
// graph borrows the embedding matrix), so it is neither copyable nor
// movable; it lives on the heap behind shared_ptr<const ServeIndex>,
// which is exactly the ownership the IndexManager's atomic swap needs.
#ifndef LARGEEA_SERVE_INDEX_ARTIFACT_H_
#define LARGEEA_SERVE_INDEX_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/la/matrix.h"
#include "src/name/minhash.h"
#include "src/name/semantic_encoder.h"
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

class ServeIndex {
 public:
  ServeIndex(const ServeIndex&) = delete;
  ServeIndex& operator=(const ServeIndex&) = delete;

  /// Builds an index from pipeline outputs: the fused matrix, the two
  /// name tables (index = dense entity id), and the fingerprint of the
  /// run that fused them. Encodes target names, builds the HNSW graph
  /// and MinHash/LSH structures. The inputs are copied/moved in; the
  /// result owns everything.
  static StatusOr<std::shared_ptr<const ServeIndex>> Build(
      const SparseSimMatrix& fused, std::vector<std::string> source_names,
      std::vector<std::string> target_names, uint64_t pipeline_fingerprint,
      const ServeIndexOptions& options);

  /// Serialises to `path` atomically (tmp + rename).
  Status Save(const std::string& path) const;

  /// Loads an artifact written by Save(). kNotFound if absent, kDataLoss
  /// on any header/checksum/payload damage. When `expected_fingerprint`
  /// is set, a clean artifact from a different pipeline run is rejected
  /// with kFailedPrecondition.
  static StatusOr<std::shared_ptr<const ServeIndex>> Load(
      const std::string& path,
      std::optional<uint64_t> expected_fingerprint = std::nullopt);

  // -- Identity ------------------------------------------------------
  uint64_t fingerprint() const { return fingerprint_; }
  const ServeIndexOptions& options() const { return options_; }
  int64_t num_source_entities() const {
    return static_cast<int64_t>(source_names_.size());
  }
  int64_t num_target_entities() const {
    return static_cast<int64_t>(target_names_.size());
  }

  // -- Query surface (all const, all thread-safe) --------------------
  /// Fused candidates for a source entity, best first.
  const SparseSimMatrix& fused() const { return fused_; }
  const std::string& SourceName(EntityId e) const { return source_names_[e]; }
  const std::string& TargetName(EntityId e) const { return target_names_[e]; }
  /// Dense id for an exact source/target name, or nullopt.
  std::optional<EntityId> SourceIdByName(const std::string& name) const;
  std::optional<EntityId> TargetIdByName(const std::string& name) const;

  /// The query-side name encoder (shared space with the stored target
  /// embeddings).
  const SemanticEncoder& encoder() const { return *encoder_; }
  const Matrix& target_embeddings() const { return target_embeddings_; }
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

  /// Entry storage across all packed structures (telemetry).
  int64_t MemoryBytes() const;

 private:
  ServeIndex() = default;

  /// Shared tail of Build and Load: derived structures (name→id maps,
  /// encoder IDF, LSH banding) computed from the packed
  /// state. The HNSW graph must already sit in graph_ (Load) or is
  /// built here (Build).
  Status Finish();

  std::string SerializePayload() const;
  Status DeserializePayload(std::string_view payload);

  uint64_t fingerprint_ = 0;
  ServeIndexOptions options_;
  SparseSimMatrix fused_;
  std::vector<std::string> source_names_;
  std::vector<std::string> target_names_;
  Matrix target_embeddings_;
  /// Graph over target_embeddings_ (borrows the matrix — one reason
  /// this class is pinned to the heap). optional only because HnswIndex
  /// has no empty state; engaged after Build/Load succeeds.
  std::optional<HnswIndex> graph_;
  /// Signatures are packed (rebuilding them needs only names, but they
  /// are the expensive part of the string channel at DBP1M scale).
  std::vector<std::vector<uint64_t>> target_signatures_;

  // Derived at Build/Load time, never serialised.
  std::unordered_map<std::string, EntityId> source_by_name_;
  std::unordered_map<std::string, EntityId> target_by_name_;
  std::unique_ptr<SemanticEncoder> encoder_;
  std::unique_ptr<MinHasher> hasher_;
  std::unique_ptr<MinHashLsh> lsh_;
};

}  // namespace largeea::serve

#endif  // LARGEEA_SERVE_INDEX_ARTIFACT_H_
