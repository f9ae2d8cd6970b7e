// SENS semantic name encoder (the paper's BERT substitute).
//
// The paper feeds entity names through BERT, pools the token embeddings,
// and L2-normalises — *without fine-tuning*, because training is
// unaffordable at DBP1M scale. The only property SENS needs from the
// encoder is that names sharing meaning land close in embedding space
// and unrelated names land far apart.
//
// This encoder gets that property without pretrained weights via signed
// feature hashing: every token (word or character n-gram) activates a few
// pseudo-random dimensions with ±1 values, an entity embedding is the
// (optionally IDF-weighted) sum of its token features, and rows are
// L2-normalised (the paper's h_e / (||h_e|| + eps)). Cognate names share
// most n-gram tokens and therefore most active features; unrelated names
// collide only by chance. See DESIGN.md §1 for the substitution rationale.
#ifndef LARGEEA_NAME_SEMANTIC_ENCODER_H_
#define LARGEEA_NAME_SEMANTIC_ENCODER_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/flat_array.h"
#include "src/common/types.h"
#include "src/la/matrix.h"
#include "src/name/key_table.h"
#include "src/name/tokenizer.h"
#include "src/rt/status.h"

namespace largeea {

class KnowledgeGraph;

struct SemanticEncoderOptions {
  int32_t dim = 192;
  /// Dimensions each token activates (signed feature hashing).
  int32_t active_slots_per_token = 4;
  /// Weight multiplier for whole-word tokens relative to n-grams; exact
  /// word matches are stronger evidence than shared n-grams.
  float word_token_weight = 1.0f;
  TokenizerOptions tokenizer;
  /// Seed of the hashing family. Must be identical for the two KGs being
  /// aligned (it defines the shared semantic space).
  uint64_t seed = 42;
  float epsilon = 1e-6f;
};

/// Token hash -> IDF weight as a flat table (src/name/key_table.h): the
/// token hashes ascending, the weight of each at its hash's position, and
/// the hashes' directory. Empty when no IDF was fit.
struct IdfTable {
  FlatArray<uint64_t> hashes;
  FlatArray<float> weights;
  FlatArray<uint32_t> starts;
  /// Names the weights were fit over; a token outside the table weighs
  /// log(1 + documents), the weight of a maximally rare one.
  int64_t documents = 0;
};

/// Deterministic, training-free name embedder.
///
/// Optionally IDF-weighted: FitIdf() counts token document frequencies
/// over the KGs being aligned so that distinctive tokens dominate the
/// embedding (no training involved — pure corpus statistics, computed the
/// same way for both sides).
class SemanticEncoder {
 public:
  explicit SemanticEncoder(const SemanticEncoderOptions& options);
  /// An encoder weighted by a table fit earlier — the serve index's, which
  /// it borrows from its mapped image. DATA_LOSS unless the hashes ascend
  /// strictly, the weights match them and `starts` is their directory.
  static StatusOr<SemanticEncoder> WithIdf(
      const SemanticEncoderOptions& options, IdfTable idf);

  /// Computes IDF weights from the entity names of the given KGs.
  /// Call before encoding; both aligned KGs should be passed.
  void FitIdf(const std::vector<const KnowledgeGraph*>& kgs);

  /// Same statistic computed from bare name lists (order across corpora
  /// must match the FitIdf call being reproduced: source then target).
  /// An index build fits the query-side encoder from its name tables and
  /// stores the table it fit — document frequency is a multiset
  /// statistic, so the weights are bit-identical to the pipeline's fit.
  void FitIdfFromNames(
      const std::vector<const std::vector<std::string>*>& corpora);

  /// Embeds one name into `out` (length dim()): weighted sum of hashed
  /// token features, L2-normalised. A token-less name embeds to zero.
  void EncodeName(std::string_view name, float* out) const;

  /// Embeds every entity name of `kg`; row e is entity e.
  Matrix EncodeAllNames(const KnowledgeGraph& kg) const;

  /// Embeds entities [begin, end); row i is entity begin + i. Encoding
  /// is per-name, so range-encoded tiles are bit-identical to the
  /// corresponding rows of EncodeAllNames (the streaming layer relies
  /// on this).
  Matrix EncodeNameRange(const KnowledgeGraph& kg, EntityId begin,
                         EntityId end) const;

  int32_t dim() const { return options_.dim; }
  const IdfTable& idf() const { return idf_; }

 private:
  /// Adds `weight` times the signed hashed feature of `token_hash`.
  void AddTokenFeature(uint64_t token_hash, float weight, float* out) const;

  /// Shared per-name document-frequency accumulation for the two fits.
  void CountNameFrequencies(
      std::string_view name,
      std::unordered_map<uint64_t, int64_t>& document_frequency,
      std::unordered_set<uint64_t>& seen_in_name) const;
  /// Lays the weights of `documents` names out as the flat table.
  void FinishIdf(
      const std::unordered_map<uint64_t, int64_t>& document_frequency,
      int64_t documents);

  SemanticEncoderOptions options_;
  IdfTable idf_;
  /// Lookup over idf_.hashes (its spans stay valid when the encoder moves).
  KeyTable idf_keys_;
};

}  // namespace largeea

#endif  // LARGEEA_NAME_SEMANTIC_ENCODER_H_
