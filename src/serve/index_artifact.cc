#include "src/serve/index_artifact.h"

#include <utility>

#include "src/common/macros.h"
#include "src/name/tokenizer.h"
#include "src/obs/trace.h"
#include "src/par/parallel_for.h"
#include "src/rt/artifact.h"
#include "src/rt/binary_io.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea::serve {
namespace {

/// The container kind of an index artifact's payload.
constexpr std::string_view kIndexKind = "serve";
/// Target names per chunk of the build's encode and signature loops.
constexpr int64_t kTargetGrain = 256;

void WriteTokenizer(rt::BinaryWriter& w, const TokenizerOptions& t) {
  w.I32(t.ngram_size);
  w.U32(t.include_words ? 1 : 0);
  w.U32(t.include_ngrams ? 1 : 0);
}

Status ReadTokenizer(rt::BinaryReader& r, TokenizerOptions* t) {
  uint32_t words = 0, ngrams = 0;
  LARGEEA_RETURN_IF_ERROR(r.I32(&t->ngram_size));
  LARGEEA_RETURN_IF_ERROR(r.U32(&words));
  LARGEEA_RETURN_IF_ERROR(r.U32(&ngrams));
  t->include_words = words != 0;
  t->include_ngrams = ngrams != 0;
  if (t->ngram_size <= 0 || t->ngram_size > 16) {
    return DataLossError("index: implausible tokenizer ngram size");
  }
  return OkStatus();
}

/// Drained (score, target row) pairs as {target id, score} entries:
/// target ids are the embedding rows.
void ToEntries(const std::vector<std::pair<float, int32_t>>& drained,
               std::vector<SimEntry>& out) {
  out.clear();
  out.reserve(drained.size());
  for (const auto& [score, j] : drained) out.push_back({j, score});
}

}  // namespace

StatusOr<std::shared_ptr<const ServeIndex>> ServeIndex::Build(
    const SparseSimMatrix& fused, std::vector<std::string> source_names,
    std::vector<std::string> target_names, uint64_t pipeline_fingerprint,
    const ServeIndexOptions& options) {
  if (fused.num_rows() != static_cast<int32_t>(source_names.size())) {
    return InvalidArgumentError(
        "index build: fused matrix has " + std::to_string(fused.num_rows()) +
        " rows but " + std::to_string(source_names.size()) +
        " source names were given");
  }
  if (fused.num_cols() != static_cast<int32_t>(target_names.size())) {
    return InvalidArgumentError(
        "index build: fused matrix has " + std::to_string(fused.num_cols()) +
        " cols but " + std::to_string(target_names.size()) +
        " target names were given");
  }
  obs::Span span("serve/index_build");
  span.AddAttr("targets", static_cast<int64_t>(target_names.size()));

  // shared_ptr (not make_shared) keeps the private constructor usable
  // and the control block separate from the large payload.
  std::shared_ptr<ServeIndex> index(new ServeIndex());
  index->fingerprint_ = pipeline_fingerprint;
  index->options_ = options;
  index->fused_ = fused;
  index->source_names_ = std::move(source_names);
  index->target_names_ = std::move(target_names);

  // Target-side semantic embeddings: the space incoming query names are
  // encoded into. The encoder is refit in Finish(); encode there too so
  // Build and Load share one code path for everything derived.
  LARGEEA_RETURN_IF_ERROR(index->Finish());
  return std::shared_ptr<const ServeIndex>(std::move(index));
}

Status ServeIndex::Finish() {
  const int64_t num_targets = num_target_entities();

  // Exact-name lookup tables. Duplicate names keep the smallest id —
  // deterministic, and matches KnowledgeGraph::FindEntity semantics.
  source_by_name_.clear();
  source_by_name_.reserve(source_names_.size());
  for (size_t e = 0; e < source_names_.size(); ++e) {
    source_by_name_.emplace(source_names_[e], static_cast<EntityId>(e));
  }
  target_by_name_.clear();
  target_by_name_.reserve(target_names_.size());
  for (size_t e = 0; e < target_names_.size(); ++e) {
    target_by_name_.emplace(target_names_[e], static_cast<EntityId>(e));
  }

  // Query-side encoder: IDF is a multiset statistic over both name
  // tables, so refitting here reproduces the pipeline's fit exactly.
  encoder_ = std::make_unique<SemanticEncoder>(options_.encoder);
  encoder_->FitIdfFromNames({&source_names_, &target_names_});

  // Target embeddings: packed structures are rebuilt only when absent
  // (Build); Load keeps the deserialised bytes.
  if (target_embeddings_.rows() != num_targets) {
    Matrix embeddings(num_targets, encoder_->dim());
    par::ParallelFor(0, num_targets, kTargetGrain,
                     [&](const par::ChunkRange& range) {
                       for (int64_t e = range.begin; e < range.end; ++e) {
                         encoder_->EncodeName(target_names_[e],
                                              embeddings.Row(e));
                       }
                     });
    target_embeddings_ = std::move(embeddings);
  }
  if (target_embeddings_.cols() != encoder_->dim()) {
    return DataLossError("index: embedding dim does not match encoder dim");
  }

  // MinHash signatures + LSH banding (string-channel shortlist).
  const int32_t num_perms = options_.num_bands * options_.rows_per_band;
  hasher_ = std::make_unique<MinHasher>(num_perms, options_.minhash_seed);
  if (target_signatures_.empty() && num_targets > 0) {
    target_signatures_.resize(num_targets);
    par::ParallelFor(0, num_targets, kTargetGrain,
                     [&](const par::ChunkRange& range) {
                       for (int64_t e = range.begin; e < range.end; ++e) {
                         target_signatures_[e] = hasher_->Signature(
                             TokenizeName(target_names_[e],
                                          options_.minhash_tokenizer));
                       }
                     });
  }
  if (static_cast<int64_t>(target_signatures_.size()) != num_targets) {
    return DataLossError("index: signature count does not match targets");
  }
  lsh_ = std::make_unique<MinHashLsh>(options_.num_bands,
                                      options_.rows_per_band);
  for (int64_t e = 0; e < num_targets; ++e) {
    if (static_cast<int32_t>(target_signatures_[e].size()) != num_perms) {
      return DataLossError("index: signature length does not match banding");
    }
    lsh_->Insert(static_cast<int32_t>(e), target_signatures_[e]);
  }

  // The graph over the (now address-stable) embedding matrix.
  if (!graph_.has_value()) {
    graph_.emplace(target_embeddings_, options_.metric, options_.hnsw);
  }
  return OkStatus();
}

std::optional<EntityId> ServeIndex::SourceIdByName(
    const std::string& name) const {
  const auto it = source_by_name_.find(name);
  if (it == source_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<EntityId> ServeIndex::TargetIdByName(
    const std::string& name) const {
  const auto it = target_by_name_.find(name);
  if (it == target_by_name_.end()) return std::nullopt;
  return it->second;
}

void ServeIndex::AnnTopK(std::span<const float> query, int32_t k,
                         std::vector<SimEntry>& out) const {
  LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()),
                   target_embeddings_.cols());
  std::vector<std::pair<float, int32_t>> drained;
  graph_->QueryTopK(query.data(), k, drained);
  ToEntries(drained, out);
}

void ServeIndex::ExactTopK(std::span<const float> query, int32_t k,
                           std::vector<SimEntry>& out) const {
  LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()),
                   target_embeddings_.cols());
  const int64_t rows = target_embeddings_.rows();
  TopKHeap heap(k);
  if (rows > 0) {
    OfferRows(simd::Kernels(), query.data(), 0, rows,
              target_embeddings_.Row(0), target_embeddings_.cols(),
              options_.metric, /*streaming=*/true, heap);
  }
  std::vector<std::pair<float, int32_t>> drained;
  heap.Drain(drained);
  ToEntries(drained, out);
}

std::vector<int32_t> ServeIndex::StringShortlist(const std::string& name,
                                                 int32_t limit) const {
  return lsh_->QueryTop(
      hasher_->Signature(TokenizeName(name, options_.minhash_tokenizer)),
      limit);
}

float ServeIndex::ScoreAgainstTarget(const float* query,
                                     EntityId target) const {
  return ScorePair(simd::Kernels(), query, target_embeddings_.Row(target),
                   target_embeddings_.cols(), options_.metric);
}

int64_t ServeIndex::MemoryBytes() const {
  int64_t bytes = fused_.MemoryBytes();
  bytes += target_embeddings_.rows() * target_embeddings_.cols() *
           static_cast<int64_t>(sizeof(float));
  for (const auto& sig : target_signatures_) {
    bytes += static_cast<int64_t>(sig.size() * sizeof(uint64_t));
  }
  for (const auto& name : source_names_) bytes += name.size();
  for (const auto& name : target_names_) bytes += name.size();
  return bytes;
}

std::string ServeIndex::SerializePayload() const {
  rt::BinaryWriter w;
  // Options (HNSW options travel inside the graph section).
  w.I32(options_.encoder.dim);
  w.I32(options_.encoder.active_slots_per_token);
  w.F32(options_.encoder.word_token_weight);
  WriteTokenizer(w, options_.encoder.tokenizer);
  w.U64(options_.encoder.seed);
  w.F32(options_.encoder.epsilon);
  w.I32(static_cast<int32_t>(options_.metric));
  w.I32(options_.num_bands);
  w.I32(options_.rows_per_band);
  w.U64(options_.minhash_seed);
  WriteTokenizer(w, options_.minhash_tokenizer);
  // Entity tables.
  w.StrArray(source_names_);
  w.StrArray(target_names_);
  fused_.Serialize(w);
  // Target embeddings, one row-major block (the shape is the target
  // count by the encoder dim, both written above).
  w.Raw(target_embeddings_.data(),
        static_cast<size_t>(target_embeddings_.size()));
  graph_->Serialize(w);
  // MinHash signatures, one block of num_bands * rows_per_band values per
  // target.
  for (const auto& sig : target_signatures_) w.Raw(sig.data(), sig.size());
  return w.TakeBytes();
}

Status ServeIndex::DeserializePayload(std::string_view payload) {
  rt::BinaryReader r(payload);
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.encoder.dim));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.encoder.active_slots_per_token));
  LARGEEA_RETURN_IF_ERROR(r.F32(&options_.encoder.word_token_weight));
  LARGEEA_RETURN_IF_ERROR(ReadTokenizer(r, &options_.encoder.tokenizer));
  LARGEEA_RETURN_IF_ERROR(r.U64(&options_.encoder.seed));
  LARGEEA_RETURN_IF_ERROR(r.F32(&options_.encoder.epsilon));
  // The encoder CHECKs its shape, so a damaged one must stop here.
  if (options_.encoder.dim <= 0 ||
      options_.encoder.active_slots_per_token <= 0 ||
      options_.encoder.active_slots_per_token > options_.encoder.dim) {
    return DataLossError("index: implausible encoder shape");
  }
  int32_t metric = 0;
  LARGEEA_RETURN_IF_ERROR(r.I32(&metric));
  if (metric != static_cast<int32_t>(SimMetric::kManhattan) &&
      metric != static_cast<int32_t>(SimMetric::kDot)) {
    return DataLossError("index: unknown similarity metric");
  }
  options_.metric = static_cast<SimMetric>(metric);
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.num_bands));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options_.rows_per_band));
  const int64_t num_perms =
      static_cast<int64_t>(options_.num_bands) * options_.rows_per_band;
  // The hasher allocates its permutations before any signature is read,
  // so their count is held to the payload's size here.
  if (options_.num_bands <= 0 || options_.rows_per_band <= 0 ||
      num_perms > static_cast<int64_t>(payload.size() / sizeof(uint64_t))) {
    return DataLossError("index: implausible banding shape");
  }
  LARGEEA_RETURN_IF_ERROR(r.U64(&options_.minhash_seed));
  LARGEEA_RETURN_IF_ERROR(ReadTokenizer(r, &options_.minhash_tokenizer));

  LARGEEA_RETURN_IF_ERROR(r.StrArray(&source_names_));
  LARGEEA_RETURN_IF_ERROR(r.StrArray(&target_names_));
  const int64_t num_targets = num_target_entities();

  LARGEEA_ASSIGN_OR_RETURN(fused_, SparseSimMatrix::Deserialize(r));
  if (fused_.num_rows() != num_source_entities() ||
      fused_.num_cols() != num_targets) {
    return DataLossError("index: fused matrix shape does not match tables");
  }

  const int64_t dim = options_.encoder.dim;
  if (num_targets > 0 &&
      dim > static_cast<int64_t>(r.remaining() / sizeof(float)) / num_targets) {
    return DataLossError("index: embedding block truncated");
  }
  target_embeddings_ = Matrix(num_targets, dim);
  LARGEEA_RETURN_IF_ERROR(r.Raw(target_embeddings_.data(),
                                static_cast<size_t>(num_targets * dim)));

  // The graph borrows target_embeddings_, whose address is final: this
  // object already lives at its heap home when Load calls us.
  LARGEEA_ASSIGN_OR_RETURN(HnswIndex graph,
                           HnswIndex::Deserialize(r, target_embeddings_,
                                                  options_.metric));
  graph_.emplace(std::move(graph));

  if (num_targets > 0 &&
      num_perms > static_cast<int64_t>(r.remaining() / sizeof(uint64_t)) /
                      num_targets) {
    return DataLossError("index: signature block truncated");
  }
  target_signatures_.resize(num_targets);
  for (std::vector<uint64_t>& sig : target_signatures_) {
    sig.resize(num_perms);
    LARGEEA_RETURN_IF_ERROR(r.Raw(sig.data(), sig.size()));
  }
  if (!r.exhausted()) {
    return DataLossError("index: " + std::to_string(r.remaining()) +
                         " trailing bytes after payload");
  }
  return OkStatus();
}

Status ServeIndex::Save(const std::string& path) const {
  obs::Span span("serve/index_save");
  return rt::WriteArtifact(path, rt::kIndexFamily, kIndexKind, fingerprint_,
                           SerializePayload())
      .WithContext("serve index save: " + path);
}

StatusOr<std::shared_ptr<const ServeIndex>> ServeIndex::Load(
    const std::string& path, std::optional<uint64_t> expected_fingerprint) {
  obs::Span span("serve/index_load");
  auto artifact = rt::ReadArtifact(path, rt::kIndexFamily, kIndexKind,
                                   expected_fingerprint);
  if (!artifact.ok()) {
    return artifact.status().WithContext("serve index load");
  }
  std::shared_ptr<ServeIndex> index(new ServeIndex());
  index->fingerprint_ = artifact->fingerprint;
  LARGEEA_RETURN_IF_ERROR(
      index->DeserializePayload(artifact->payload())
          .WithContext("serve index " + path));
  LARGEEA_RETURN_IF_ERROR(index->Finish().WithContext("serve index " + path));
  return std::shared_ptr<const ServeIndex>(std::move(index));
}

}  // namespace largeea::serve
