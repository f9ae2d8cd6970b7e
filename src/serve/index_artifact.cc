#include "src/serve/index_artifact.h"

#include <array>
#include <cstring>
#include <limits>
#include <new>
#include <utility>

#include "src/common/macros.h"
#include "src/name/tokenizer.h"
#include "src/obs/trace.h"
#include "src/par/parallel_for.h"
#include "src/rt/binary_io.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea::serve {
namespace {

/// The container kind of an index artifact's payload.
constexpr std::string_view kIndexKind = "serve";
/// Target names per chunk of the build's encode and signature loops.
constexpr int64_t kTargetGrain = 256;
constexpr size_t kNumSections = static_cast<size_t>(IndexSection::kCount);
/// The section table: a u32 count and a u32 zero, then {offset, bytes}
/// per section.
constexpr size_t kTableBytes = 8 + 16 * kNumSections;
constexpr size_t kSectionAlignment = 64;
constexpr std::align_val_t kImageAlignment{kSectionAlignment};

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlignment - 1) / kSectionAlignment *
         kSectionAlignment;
}

using Sections = std::array<std::string_view, kNumSections>;

/// A section read in place as an array of T. Sections sit at aligned
/// offsets of an aligned image, so the array is aligned; the mapping's
/// bytes are the array, as an allocation's bytes would be.
template <typename T>
StatusOr<std::span<const T>> ArrayOf(const Sections& sections,
                                     IndexSection s) {
  const std::string_view bytes = sections[static_cast<size_t>(s)];
  if (bytes.size() % sizeof(T) != 0) {
    return DataLossError("index: section " +
                         std::to_string(static_cast<uint32_t>(s)) +
                         " is not a whole array");
  }
  return std::span<const T>(reinterpret_cast<const T*>(bytes.data()),
                            bytes.size() / sizeof(T));
}

template <typename T>
std::string_view Bytes(std::span<const T> values) {
  return std::string_view(reinterpret_cast<const char*>(values.data()),
                          values.size_bytes());
}

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

/// Everything the meta section holds besides the options.
struct Meta {
  int64_t num_sources = 0;
  int64_t num_targets = 0;
  int64_t idf_documents = 0;
  int32_t entry_point = -1;
  int32_t max_level = -1;
};

std::string WriteMeta(const Meta& meta, const ServeIndexOptions& options) {
  rt::BinaryWriter w;
  w.I64(meta.num_sources);
  w.I64(meta.num_targets);
  w.I32(options.encoder.dim);
  w.I32(options.encoder.active_slots_per_token);
  w.F32(options.encoder.word_token_weight);
  WriteTokenizer(w, options.encoder.tokenizer);
  w.U64(options.encoder.seed);
  w.F32(options.encoder.epsilon);
  w.I64(meta.idf_documents);
  w.I32(static_cast<int32_t>(options.metric));
  w.I32(options.num_bands);
  w.I32(options.rows_per_band);
  w.U64(options.minhash_seed);
  WriteTokenizer(w, options.minhash_tokenizer);
  w.I32(options.hnsw.max_neighbors);
  w.I32(options.hnsw.ef_construction);
  w.I32(options.hnsw.ef_search);
  w.U64(options.hnsw.seed);
  w.I32(meta.entry_point);
  w.I32(meta.max_level);
  return w.TakeBytes();
}

/// Reads the meta section and checks every value a later step sizes or
/// CHECKs something by; `image_bytes` bounds the sizes.
Status ReadMeta(std::string_view bytes, size_t image_bytes, Meta* meta,
                ServeIndexOptions* options) {
  rt::BinaryReader r(bytes);
  LARGEEA_RETURN_IF_ERROR(r.I64(&meta->num_sources));
  LARGEEA_RETURN_IF_ERROR(r.I64(&meta->num_targets));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->encoder.dim));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->encoder.active_slots_per_token));
  LARGEEA_RETURN_IF_ERROR(r.F32(&options->encoder.word_token_weight));
  LARGEEA_RETURN_IF_ERROR(ReadTokenizer(r, &options->encoder.tokenizer));
  LARGEEA_RETURN_IF_ERROR(r.U64(&options->encoder.seed));
  LARGEEA_RETURN_IF_ERROR(r.F32(&options->encoder.epsilon));
  LARGEEA_RETURN_IF_ERROR(r.I64(&meta->idf_documents));
  int32_t metric = 0;
  LARGEEA_RETURN_IF_ERROR(r.I32(&metric));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->num_bands));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->rows_per_band));
  LARGEEA_RETURN_IF_ERROR(r.U64(&options->minhash_seed));
  LARGEEA_RETURN_IF_ERROR(ReadTokenizer(r, &options->minhash_tokenizer));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->hnsw.max_neighbors));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->hnsw.ef_construction));
  LARGEEA_RETURN_IF_ERROR(r.I32(&options->hnsw.ef_search));
  LARGEEA_RETURN_IF_ERROR(r.U64(&options->hnsw.seed));
  LARGEEA_RETURN_IF_ERROR(r.I32(&meta->entry_point));
  LARGEEA_RETURN_IF_ERROR(r.I32(&meta->max_level));
  if (!r.exhausted()) return DataLossError("index: meta section too long");

  constexpr int64_t kMaxEntities = std::numeric_limits<int32_t>::max();
  if (meta->num_sources < 0 || meta->num_sources > kMaxEntities ||
      meta->num_targets < 0 || meta->num_targets > kMaxEntities) {
    return DataLossError("index: implausible entity counts");
  }
  // The encoder CHECKs its shape, and a query allocates one vector of
  // `dim` floats, so the dim is held to the image's size too.
  const SemanticEncoderOptions& encoder = options->encoder;
  if (encoder.dim <= 0 ||
      static_cast<size_t>(encoder.dim) > image_bytes / sizeof(float) ||
      encoder.active_slots_per_token <= 0 ||
      encoder.active_slots_per_token > encoder.dim) {
    return DataLossError("index: implausible encoder shape");
  }
  if (metric != static_cast<int32_t>(SimMetric::kManhattan) &&
      metric != static_cast<int32_t>(SimMetric::kDot)) {
    return DataLossError("index: unknown similarity metric");
  }
  options->metric = static_cast<SimMetric>(metric);
  // The hasher allocates its permutations at bind time, so their count
  // is held to the image's size.
  const int64_t num_perms =
      static_cast<int64_t>(options->num_bands) * options->rows_per_band;
  if (options->num_bands <= 0 || options->rows_per_band <= 0 ||
      num_perms > std::numeric_limits<int32_t>::max() ||
      num_perms > static_cast<int64_t>(image_bytes / sizeof(uint64_t))) {
    return DataLossError("index: implausible banding shape");
  }
  return OkStatus();
}

/// DATA_LOSS unless `offsets` has `count + 1` entries ascending from 0 to
/// `total`, the CSR rule every offset array of the image follows.
Status CheckOffsets(std::span<const uint64_t> offsets, int64_t count,
                    uint64_t total, std::string_view what) {
  if (offsets.size() != static_cast<size_t>(count) + 1 || offsets[0] != 0 ||
      offsets.back() != total) {
    return DataLossError("index: " + std::string(what) +
                         " offsets do not span their section");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i - 1] > offsets[i]) {
      return DataLossError("index: " + std::string(what) +
                           " offsets out of order");
    }
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

/// A name table as its offsets and its bytes.
void LayOutNames(const std::vector<std::string>& names,
                 std::vector<uint64_t>& offsets, std::string& blob) {
  offsets.assign(1, 0);
  for (const std::string& name : names) {
    blob += name;
    offsets.push_back(blob.size());
  }
}

}  // namespace

void ServeIndex::AlignedDelete::operator()(char* p) const {
  ::operator delete(p, kImageAlignment);
}

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
  const int64_t num_targets = static_cast<int64_t>(target_names.size());
  span.AddAttr("targets", num_targets);

  // Query-side encoder: IDF is a multiset statistic over both name
  // tables, so fitting it here reproduces the pipeline's fit exactly.
  SemanticEncoder encoder(options.encoder);
  encoder.FitIdfFromNames({&source_names, &target_names});

  // Target-side semantic embeddings: the space incoming query names are
  // encoded into. Each name writes only its own row, so the bytes do
  // not depend on the thread count.
  Matrix embeddings(num_targets, encoder.dim());
  par::ParallelFor(0, num_targets, kTargetGrain,
                   [&](const par::ChunkRange& range) {
                     for (int64_t e = range.begin; e < range.end; ++e) {
                       encoder.EncodeName(target_names[e], embeddings.Row(e));
                     }
                   });
  const HnswIndex graph(embeddings, options.metric, options.hnsw);

  // MinHash band tables (the string-channel shortlist). The signatures
  // only feed the tables, so the image keeps the tables alone.
  const MinHasher hasher(options.num_bands * options.rows_per_band,
                         options.minhash_seed);
  std::vector<std::vector<uint64_t>> signatures(num_targets);
  par::ParallelFor(0, num_targets, kTargetGrain,
                   [&](const par::ChunkRange& range) {
                     for (int64_t e = range.begin; e < range.end; ++e) {
                       signatures[e] = hasher.Signature(TokenizeName(
                           target_names[e], options.minhash_tokenizer));
                     }
                   });
  const MinHashLsh lsh(options.num_bands, options.rows_per_band, signatures);
  signatures = {};

  // Lay out the image.
  std::vector<uint64_t> source_offsets, target_offsets;
  std::string source_blob, target_blob;
  LayOutNames(source_names, source_offsets, source_blob);
  LayOutNames(target_names, target_offsets, target_blob);
  std::vector<uint64_t> fused_offsets{0};
  std::vector<SimEntry> fused_entries;
  fused_entries.reserve(static_cast<size_t>(fused.TotalEntries()));
  for (int32_t s = 0; s < fused.num_rows(); ++s) {
    const std::span<const SimEntry> row = fused.Row(s);
    fused_entries.insert(fused_entries.end(), row.begin(), row.end());
    fused_offsets.push_back(fused_entries.size());
  }
  const std::string meta = WriteMeta(
      Meta{static_cast<int64_t>(source_names.size()), num_targets,
           encoder.idf().documents, graph.entry_point(), graph.max_level()},
      options);
  const IdfTable& idf = encoder.idf();
  const MinHashLsh::Tables& bands = lsh.tables();
  const Sections sections = {
      meta,
      Bytes<uint64_t>(source_offsets),
      source_blob,
      Bytes<uint64_t>(target_offsets),
      target_blob,
      Bytes<uint64_t>(fused_offsets),
      Bytes<SimEntry>(fused_entries),
      Bytes(std::span<const float>(embeddings.data(),
                                   static_cast<size_t>(embeddings.size()))),
      Bytes(graph.node_slots()),
      Bytes(graph.list_offsets()),
      Bytes(graph.links()),
      Bytes(bands.keys.span()),
      Bytes(bands.items.span()),
      Bytes(bands.starts.span()),
      Bytes(idf.hashes.span()),
      Bytes(idf.weights.span()),
      Bytes(idf.starts.span()),
  };
  std::array<uint64_t, 2 * kNumSections> table{};
  size_t size = kTableBytes;
  for (size_t i = 0; i < kNumSections; ++i) {
    size = AlignUp(size);
    table[2 * i] = size;
    table[2 * i + 1] = sections[i].size();
    size += sections[i].size();
  }
  std::unique_ptr<char[], AlignedDelete> image(
      static_cast<char*>(::operator new(size, kImageAlignment)));
  std::memset(image.get(), 0, size);
  const uint32_t count = kNumSections;
  std::memcpy(image.get(), &count, sizeof(count));
  std::memcpy(image.get() + 8, table.data(), sizeof(table));
  for (size_t i = 0; i < kNumSections; ++i) {
    if (sections[i].empty()) continue;
    std::memcpy(image.get() + table[2 * i], sections[i].data(),
                sections[i].size());
  }

  // shared_ptr (not make_shared) keeps the private constructor usable
  // and the control block separate from the large image.
  std::shared_ptr<ServeIndex> index(new ServeIndex());
  index->fingerprint_ = pipeline_fingerprint;
  index->built_image_ = std::move(image);
  LARGEEA_RETURN_IF_ERROR(
      index->Bind(std::string_view(index->built_image_.get(), size)));
  return std::shared_ptr<const ServeIndex>(std::move(index));
}

Status ServeIndex::Bind(std::string_view image) {
  // Both storages put the image on a cache line, so every aligned
  // section offset is aligned memory.
  LARGEEA_CHECK_EQ(reinterpret_cast<uintptr_t>(image.data()) %
                       kSectionAlignment,
                   0u);
  if (image.size() < kTableBytes) {
    return DataLossError("index: image smaller than its section table");
  }
  uint32_t count = 0, reserved = 0;
  std::memcpy(&count, image.data(), sizeof(count));
  std::memcpy(&reserved, image.data() + 4, sizeof(reserved));
  if (count != kNumSections || reserved != 0) {
    return DataLossError("index: section table lists " +
                         std::to_string(count) + " sections, expected " +
                         std::to_string(kNumSections));
  }
  Sections sections;
  uint64_t end = kTableBytes;
  for (size_t i = 0; i < kNumSections; ++i) {
    uint64_t offset = 0, bytes = 0;
    std::memcpy(&offset, image.data() + 8 + 16 * i, sizeof(offset));
    std::memcpy(&bytes, image.data() + 16 + 16 * i, sizeof(bytes));
    if (offset % kSectionAlignment != 0 || offset < end ||
        offset > image.size() || bytes > image.size() - offset) {
      return DataLossError("index: section " + std::to_string(i) +
                           " is misaligned, overlaps another or runs past "
                           "the image");
    }
    sections[i] = image.substr(offset, bytes);
    end = offset + bytes;
  }
  if (end != image.size()) {
    return DataLossError("index: " + std::to_string(image.size() - end) +
                         " trailing bytes after the last section");
  }
  const auto section = [&sections](IndexSection s) {
    return sections[static_cast<size_t>(s)];
  };
  const auto u64 = [&sections](IndexSection s) {
    return ArrayOf<uint64_t>(sections, s);
  };

  Meta meta;
  LARGEEA_RETURN_IF_ERROR(
      ReadMeta(section(IndexSection::kMeta), image.size(), &meta, &options_));
  num_sources_ = meta.num_sources;
  num_targets_ = meta.num_targets;

  LARGEEA_ASSIGN_OR_RETURN(source_name_offsets_,
                           u64(IndexSection::kSourceNameOffsets));
  source_names_ = section(IndexSection::kSourceNames);
  LARGEEA_RETURN_IF_ERROR(CheckOffsets(source_name_offsets_, num_sources_,
                                       source_names_.size(), "source name"));
  LARGEEA_ASSIGN_OR_RETURN(target_name_offsets_,
                           u64(IndexSection::kTargetNameOffsets));
  target_names_ = section(IndexSection::kTargetNames);
  LARGEEA_RETURN_IF_ERROR(CheckOffsets(target_name_offsets_, num_targets_,
                                       target_names_.size(), "target name"));

  LARGEEA_ASSIGN_OR_RETURN(fused_offsets_,
                           u64(IndexSection::kFusedRowOffsets));
  LARGEEA_ASSIGN_OR_RETURN(
      fused_entries_, ArrayOf<SimEntry>(sections, IndexSection::kFusedEntries));
  LARGEEA_RETURN_IF_ERROR(CheckOffsets(fused_offsets_, num_sources_,
                                       fused_entries_.size(), "fused row"));
  for (const SimEntry& entry : fused_entries_) {
    if (entry.column < 0 || entry.column >= num_targets_) {
      return DataLossError("index: fused column out of range");
    }
  }

  const int64_t dim = options_.encoder.dim;
  LARGEEA_ASSIGN_OR_RETURN(
      const std::span<const float> embeddings,
      ArrayOf<float>(sections, IndexSection::kTargetEmbeddings));
  if (embeddings.size() / static_cast<size_t>(dim) !=
          static_cast<size_t>(num_targets_) ||
      embeddings.size() % static_cast<size_t>(dim) != 0) {
    return DataLossError("index: embedding section does not hold " +
                         std::to_string(num_targets_) + " rows of " +
                         std::to_string(dim));
  }
  embeddings_ = embeddings.data();

  LARGEEA_ASSIGN_OR_RETURN(const auto node_slots,
                           u64(IndexSection::kGraphNodeSlots));
  LARGEEA_ASSIGN_OR_RETURN(const auto list_offsets,
                           u64(IndexSection::kGraphListOffsets));
  LARGEEA_ASSIGN_OR_RETURN(
      const auto links, ArrayOf<int32_t>(sections, IndexSection::kGraphLinks));
  LARGEEA_ASSIGN_OR_RETURN(
      HnswIndex graph,
      HnswIndex::FromCsr(MatrixRowRange(embeddings_, num_targets_, dim),
                         options_.metric, options_.hnsw, meta.entry_point,
                         meta.max_level,
                         FlatArray<uint64_t>::Borrow(node_slots),
                         FlatArray<uint64_t>::Borrow(list_offsets),
                         FlatArray<int32_t>::Borrow(links)));
  graph_.emplace(std::move(graph));

  LARGEEA_ASSIGN_OR_RETURN(const auto band_keys,
                           u64(IndexSection::kBandKeys));
  LARGEEA_ASSIGN_OR_RETURN(
      const auto band_items,
      ArrayOf<int32_t>(sections, IndexSection::kBandItems));
  LARGEEA_ASSIGN_OR_RETURN(
      const auto band_starts,
      ArrayOf<uint32_t>(sections, IndexSection::kBandStarts));
  LARGEEA_ASSIGN_OR_RETURN(
      MinHashLsh lsh,
      MinHashLsh::FromTables(options_.num_bands, options_.rows_per_band,
                             static_cast<int32_t>(num_targets_),
                             {FlatArray<uint64_t>::Borrow(band_keys),
                              FlatArray<int32_t>::Borrow(band_items),
                              FlatArray<uint32_t>::Borrow(band_starts)}));
  lsh_.emplace(std::move(lsh));
  hasher_.emplace(options_.num_bands * options_.rows_per_band,
                  options_.minhash_seed);

  LARGEEA_ASSIGN_OR_RETURN(const auto idf_hashes,
                           u64(IndexSection::kIdfHashes));
  LARGEEA_ASSIGN_OR_RETURN(const auto idf_weights,
                           ArrayOf<float>(sections, IndexSection::kIdfWeights));
  LARGEEA_ASSIGN_OR_RETURN(
      const auto idf_starts,
      ArrayOf<uint32_t>(sections, IndexSection::kIdfStarts));
  LARGEEA_ASSIGN_OR_RETURN(
      SemanticEncoder encoder,
      SemanticEncoder::WithIdf(
          options_.encoder,
          IdfTable{FlatArray<uint64_t>::Borrow(idf_hashes),
                   FlatArray<float>::Borrow(idf_weights),
                   FlatArray<uint32_t>::Borrow(idf_starts),
                   meta.idf_documents}));
  encoder_.emplace(std::move(encoder));
  image_ = image;
  return OkStatus();
}

std::span<const SimEntry> ServeIndex::FusedRow(EntityId source) const {
  LARGEEA_CHECK_GE(source, 0);
  LARGEEA_CHECK_LT(source, num_sources_);
  const size_t first = fused_offsets_[static_cast<size_t>(source)];
  return fused_entries_.subspan(
      first, fused_offsets_[static_cast<size_t>(source) + 1] - first);
}

std::string_view ServeIndex::SourceName(EntityId e) const {
  LARGEEA_CHECK_GE(e, 0);
  LARGEEA_CHECK_LT(e, num_sources_);
  const size_t first = source_name_offsets_[static_cast<size_t>(e)];
  return source_names_.substr(
      first, source_name_offsets_[static_cast<size_t>(e) + 1] - first);
}

std::string_view ServeIndex::TargetName(EntityId e) const {
  LARGEEA_CHECK_GE(e, 0);
  LARGEEA_CHECK_LT(e, num_targets_);
  const size_t first = target_name_offsets_[static_cast<size_t>(e)];
  return target_names_.substr(
      first, target_name_offsets_[static_cast<size_t>(e) + 1] - first);
}

const float* ServeIndex::TargetEmbedding(EntityId e) const {
  LARGEEA_CHECK_GE(e, 0);
  LARGEEA_CHECK_LT(e, num_targets_);
  return embeddings_ + static_cast<int64_t>(e) * options_.encoder.dim;
}

void ServeIndex::AnnTopK(std::span<const float> query, int32_t k,
                         std::vector<SimEntry>& out) const {
  LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), options_.encoder.dim);
  std::vector<std::pair<float, int32_t>> drained;
  graph_->QueryTopK(query.data(), k, drained);
  ToEntries(drained, out);
}

void ServeIndex::ExactTopK(std::span<const float> query, int32_t k,
                           std::vector<SimEntry>& out) const {
  LARGEEA_CHECK_EQ(static_cast<int64_t>(query.size()), options_.encoder.dim);
  TopKHeap heap(k);
  if (num_targets_ > 0) {
    OfferRows(simd::Kernels(), query.data(), 0, num_targets_, embeddings_,
              options_.encoder.dim, options_.metric, /*streaming=*/true, heap);
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
  return ScorePair(simd::Kernels(), query, TargetEmbedding(target),
                   options_.encoder.dim, options_.metric);
}

Status ServeIndex::Save(const std::string& path) const {
  obs::Span span("serve/index_save");
  return rt::WriteArtifact(path, rt::kIndexFamily, kIndexKind, fingerprint_,
                           image_)
      .WithContext("serve index save: " + path);
}

StatusOr<std::shared_ptr<const ServeIndex>> ServeIndex::Load(
    const std::string& path, std::optional<uint64_t> expected_fingerprint) {
  obs::Span span("serve/index_load");
  auto mapped = rt::MapArtifact(path, rt::kIndexFamily, kIndexKind,
                                expected_fingerprint);
  if (!mapped.ok()) return mapped.status().WithContext("serve index load");
  std::shared_ptr<ServeIndex> index(new ServeIndex());
  index->fingerprint_ = mapped->fingerprint();
  index->mapped_.emplace(std::move(mapped).value());
  LARGEEA_RETURN_IF_ERROR(index->Bind(index->mapped_->payload())
                              .WithContext("serve index " + path));
  return std::shared_ptr<const ServeIndex>(std::move(index));
}

}  // namespace largeea::serve
