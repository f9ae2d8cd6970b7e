#include "src/name/semantic_encoder.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/macros.h"
#include "src/kg/knowledge_graph.h"
#include "src/la/ops.h"

namespace largeea {
namespace {

uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Heuristic: word tokens were requested with include_words and are
// distinguishable from padded n-grams by the absence of the '#' pad.
bool IsWordToken(const std::string& token) {
  return token.find('#') == std::string::npos;
}

}  // namespace

SemanticEncoder::SemanticEncoder(const SemanticEncoderOptions& options)
    : options_(options) {
  LARGEEA_CHECK_GT(options.dim, 0);
  LARGEEA_CHECK_GT(options.active_slots_per_token, 0);
  LARGEEA_CHECK_LE(options.active_slots_per_token, options.dim);
}

StatusOr<SemanticEncoder> SemanticEncoder::WithIdf(
    const SemanticEncoderOptions& options, IdfTable idf) {
  LARGEEA_RETURN_IF_ERROR(KeyTable::Check(idf.hashes.span(), idf.starts.span(),
                                          /*unique=*/true, "idf table"));
  if (idf.weights.size() != idf.hashes.size()) {
    return DataLossError("idf table: weight count does not match hashes");
  }
  if (idf.documents < 0) {
    return DataLossError("idf table: negative document count");
  }
  SemanticEncoder encoder(options);
  encoder.idf_ = std::move(idf);
  encoder.idf_keys_ = KeyTable(encoder.idf_.hashes.span(),
                               encoder.idf_.starts.span());
  return encoder;
}

void SemanticEncoder::FitIdf(const std::vector<const KnowledgeGraph*>& kgs) {
  std::unordered_map<uint64_t, int64_t> document_frequency;
  std::unordered_set<uint64_t> seen_in_name;
  int64_t documents = 0;
  for (const KnowledgeGraph* kg : kgs) {
    LARGEEA_CHECK(kg != nullptr);
    for (EntityId e = 0; e < kg->num_entities(); ++e, ++documents) {
      CountNameFrequencies(kg->EntityName(e), document_frequency,
                           seen_in_name);
    }
  }
  FinishIdf(document_frequency, documents);
}

void SemanticEncoder::FitIdfFromNames(
    const std::vector<const std::vector<std::string>*>& corpora) {
  std::unordered_map<uint64_t, int64_t> document_frequency;
  std::unordered_set<uint64_t> seen_in_name;
  int64_t documents = 0;
  for (const std::vector<std::string>* names : corpora) {
    LARGEEA_CHECK(names != nullptr);
    for (const std::string& name : *names) {
      CountNameFrequencies(name, document_frequency, seen_in_name);
      ++documents;
    }
  }
  FinishIdf(document_frequency, documents);
}

void SemanticEncoder::CountNameFrequencies(
    std::string_view name,
    std::unordered_map<uint64_t, int64_t>& document_frequency,
    std::unordered_set<uint64_t>& seen_in_name) const {
  seen_in_name.clear();
  for (const std::string& token : TokenizeName(name, options_.tokenizer)) {
    const uint64_t h = TokenHash(token);
    if (seen_in_name.insert(h).second) ++document_frequency[h];
  }
}

void SemanticEncoder::FinishIdf(
    const std::unordered_map<uint64_t, int64_t>& document_frequency,
    int64_t documents) {
  std::vector<std::pair<uint64_t, int64_t>> sorted(document_frequency.begin(),
                                                   document_frequency.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint64_t> hashes;
  std::vector<float> weights;
  hashes.reserve(sorted.size());
  weights.reserve(sorted.size());
  for (const auto& [hash, df] : sorted) {
    hashes.push_back(hash);
    weights.push_back(static_cast<float>(
        std::log(1.0 + static_cast<double>(documents) /
                           (1.0 + static_cast<double>(df)))));
  }
  std::vector<uint32_t> starts = KeyTable::Directory(hashes);
  idf_.hashes = FlatArray<uint64_t>(std::move(hashes));
  idf_.weights = FlatArray<float>(std::move(weights));
  idf_.starts = FlatArray<uint32_t>(std::move(starts));
  idf_.documents = documents;
  idf_keys_ = KeyTable(idf_.hashes.span(), idf_.starts.span());
}

void SemanticEncoder::AddTokenFeature(uint64_t token_hash, float weight,
                                      float* out) const {
  // Each token activates `active_slots_per_token` pseudo-random
  // dimensions with ±1 values — signed feature hashing.
  uint64_t state = token_hash ^ options_.seed;
  for (int32_t s = 0; s < options_.active_slots_per_token; ++s) {
    state = Mix(state + 0x9e3779b97f4a7c15ULL);
    const auto slot = static_cast<int32_t>(state % options_.dim);
    const float sign = (state >> 60) & 1 ? 1.0f : -1.0f;
    out[slot] += weight * sign;
  }
}

void SemanticEncoder::EncodeName(std::string_view name, float* out) const {
  std::fill(out, out + options_.dim, 0.0f);
  const std::vector<std::string> tokens =
      TokenizeName(name, options_.tokenizer);
  if (tokens.empty()) return;
  for (const std::string& token : tokens) {
    const uint64_t h = TokenHash(token);
    float weight = IsWordToken(token) ? options_.word_token_weight : 1.0f;
    if (!idf_.hashes.empty()) {
      const auto [first, last] = idf_keys_.Find(h);
      // Unseen tokens get the maximal IDF (they are maximally rare).
      weight *= first != last
                    ? idf_.weights[first]
                    : static_cast<float>(
                          std::log(1.0 + static_cast<double>(
                                             idf_.documents)));
    }
    AddTokenFeature(h, weight, out);
  }
  const float norm = Norm2(out, options_.dim) + options_.epsilon;
  for (int32_t i = 0; i < options_.dim; ++i) out[i] /= norm;
}

Matrix SemanticEncoder::EncodeAllNames(const KnowledgeGraph& kg) const {
  return EncodeNameRange(kg, 0, kg.num_entities());
}

Matrix SemanticEncoder::EncodeNameRange(const KnowledgeGraph& kg,
                                        EntityId begin, EntityId end) const {
  LARGEEA_CHECK_GE(begin, 0);
  LARGEEA_CHECK_LE(begin, end);
  LARGEEA_CHECK_LE(end, kg.num_entities());
  Matrix embeddings(end - begin, options_.dim);
  for (EntityId e = begin; e < end; ++e) {
    EncodeName(kg.EntityName(e), embeddings.Row(e - begin));
  }
  return embeddings;
}

}  // namespace largeea
