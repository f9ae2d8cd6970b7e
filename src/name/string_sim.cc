#include "src/name/string_sim.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/common/macros.h"
#include "src/name/levenshtein.h"
#include "src/name/minhash.h"
#include "src/obs/profiler.h"
#include "src/par/parallel_for.h"

namespace largeea {
namespace {

// Entities per parallel chunk for signature building and candidate
// scoring. Shape-only constants (DESIGN.md §8).
constexpr int64_t kSignatureGrain = 256;
constexpr int64_t kScoreGrain = 64;

// The largest edit distance a candidate pair may have and still clear
// `sim > threshold` with sim = 1 - distance / longest. Solving for
// distance gives d < (1 - threshold) * longest; one extra unit of slack
// absorbs the float division's rounding so the cap can never reject a
// pair the exact `sim > threshold` comparison would keep (the final
// keep/drop decision always re-checks that comparison).
int32_t AdmissibleDistance(double threshold, size_t longest) {
  const auto length = static_cast<int64_t>(longest);
  const auto bound =
      static_cast<int64_t>((1.0 - threshold) * static_cast<double>(length));
  return static_cast<int32_t>(std::min(length - 1, bound + 1));
}

}  // namespace

SparseSimMatrix ComputeStringSimilarity(const KnowledgeGraph& source,
                                        const KnowledgeGraph& target,
                                        const StnsOptions& options) {
  LARGEEA_CHECK_GT(options.jaccard_threshold, 0.0);
  const int32_t signature_length = options.num_bands * options.rows_per_band;
  const MinHasher hasher(signature_length, options.seed);

  // Index the target names. Signatures are independent, so they build in
  // parallel (each task writes its own slot); the band tables are then
  // sorted once over all of them.
  std::vector<std::vector<uint64_t>> target_signatures(
      target.num_entities());
  {
    // Signature build: each entity's name is hashed signature_length
    // times; the output is one u64 per hash slot.
    obs::ProfileScope prof("name.minhash.signatures");
    prof.AddBytes(0, static_cast<int64_t>(target.num_entities()) *
                         signature_length * 8);
    par::ParallelFor(
        0, target.num_entities(), kSignatureGrain,
        [&](const par::ChunkRange& range) {
          for (int64_t t = range.begin; t < range.end; ++t) {
            target_signatures[t] = hasher.Signature(
                TokenizeName(target.EntityName(static_cast<EntityId>(t)),
                             options.tokenizer));
          }
        });
  }
  const MinHashLsh lsh(options.num_bands, options.rows_per_band,
                       target_signatures);

  // Score source entities against their LSH candidates in parallel:
  // every chunk collects its (s, t, sim) hits privately, and chunks
  // merge into the sparse matrix in ascending source order.
  SparseSimMatrix m_st(source.num_entities(), target.num_entities(),
                       options.max_entries_per_row);
  using Hit = std::tuple<EntityId, int32_t, float>;
  // Scoring reads each source signature once; candidate Jaccard checks
  // and Levenshtein work are data-dependent and not declared — the
  // profiler still times the pass, it just has no GB/s for it.
  obs::ProfileScope prof("name.stns.score");
  prof.AddBytes(static_cast<int64_t>(source.num_entities()) *
                    signature_length * 8,
                0);
  par::ParallelReduceOrdered<std::vector<Hit>>(
      0, source.num_entities(), kScoreGrain,
      [&](const par::ChunkRange& range, std::vector<Hit>& hits) {
        for (int64_t i = range.begin; i < range.end; ++i) {
          const EntityId s = static_cast<EntityId>(i);
          const std::string& source_name = source.EntityName(s);
          const std::vector<uint64_t> signature =
              hasher.Signature(TokenizeName(source_name, options.tokenizer));
          for (const int32_t t : lsh.Query(signature)) {
            if (MinHasher::EstimateJaccard(signature, target_signatures[t]) <
                options.jaccard_threshold) {
              continue;
            }
            const std::string& target_name = target.EntityName(t);
            const size_t longest =
                std::max(source_name.size(), target_name.size());
            if (longest == 0) {  // two empty names: similarity 1
              if (1.0 > options.levenshtein_threshold) {
                hits.emplace_back(s, t, 1.0f);
              }
              continue;
            }
            // Bail out of scoring as soon as the distance provably
            // exceeds what the similarity threshold admits.
            const int32_t cap =
                AdmissibleDistance(options.levenshtein_threshold, longest);
            const int32_t distance =
                BoundedLevenshteinDistance(source_name, target_name, cap);
            if (distance > cap) continue;
            const double sim = 1.0 - static_cast<double>(distance) /
                                         static_cast<double>(longest);
            if (sim > options.levenshtein_threshold) {
              hits.emplace_back(s, t, static_cast<float>(sim));
            }
          }
        }
      },
      [&](const par::ChunkRange&, std::vector<Hit>&& hits) {
        for (const auto& [s, t, sim] : hits) {
          m_st.Accumulate(s, t, sim);
        }
      });
  m_st.RefreshMemoryTracking();
  return m_st;
}

}  // namespace largeea
