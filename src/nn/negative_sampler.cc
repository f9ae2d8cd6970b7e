#include "src/nn/negative_sampler.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/obs/profiler.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

constexpr int64_t kF = sizeof(float);

// `count` hardest candidates for `anchor` among `pool_size` random rows of
// `candidates`, excluding `exclude`. The whole pool is drawn first, in
// the order the candidates used to be drawn and scored one by one, and
// then scored four rows per kernel call, which is bit-identical to one
// row per call. `pool` and `scored` are the caller's scratch.
std::vector<int32_t> NearestFromPool(const simd::KernelTable& kt,
                                     const float* anchor,
                                     const Matrix& candidates,
                                     int32_t exclude, int32_t count,
                                     int32_t pool_size, Rng& rng,
                                     std::vector<int32_t>& pool,
                                     std::vector<std::pair<float, int32_t>>&
                                         scored) {
  const int32_t n = static_cast<int32_t>(candidates.rows());
  const int64_t dim = candidates.cols();
  pool.clear();
  for (int32_t i = 0; i < pool_size; ++i) {
    const int32_t cand = static_cast<int32_t>(rng.Uniform(n));
    if (cand != exclude) pool.push_back(cand);
  }
  scored.resize(pool.size());
  size_t j = 0;
  for (; j + 4 <= pool.size(); j += 4) {
    const float* rows[4] = {
        candidates.Row(pool[j]), candidates.Row(pool[j + 1]),
        candidates.Row(pool[j + 2]), candidates.Row(pool[j + 3])};
    float distances[4];
    kt.manhattan4(anchor, rows, dim, distances);
    for (int q = 0; q < 4; ++q) scored[j + q] = {distances[q], pool[j + q]};
  }
  for (; j < pool.size(); ++j) {
    scored[j] = {kt.manhattan(anchor, candidates.Row(pool[j]), dim), pool[j]};
  }
  const size_t take = std::min<size_t>(count, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
  std::vector<int32_t> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace

NegativeSamples SampleRandomNegatives(
    std::span<const std::pair<int32_t, int32_t>> seeds, int32_t num_source,
    int32_t num_target, int32_t negatives_per_seed, Rng& rng) {
  LARGEEA_CHECK_GT(num_source, 1);
  LARGEEA_CHECK_GT(num_target, 1);
  NegativeSamples samples;
  samples.target_negatives.resize(seeds.size());
  samples.source_negatives.resize(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (int32_t j = 0; j < negatives_per_seed; ++j) {
      int32_t t = static_cast<int32_t>(rng.Uniform(num_target));
      if (t == seeds[i].second) t = (t + 1) % num_target;
      samples.target_negatives[i].push_back(t);
      int32_t s = static_cast<int32_t>(rng.Uniform(num_source));
      if (s == seeds[i].first) s = (s + 1) % num_source;
      samples.source_negatives[i].push_back(s);
    }
  }
  return samples;
}

NegativeSamples SampleNearestNegatives(
    std::span<const std::pair<int32_t, int32_t>> seeds,
    const Matrix& source_embeddings, const Matrix& target_embeddings,
    int32_t negatives_per_seed, int32_t pool_size, Rng& rng) {
  obs::ProfileScope prof("nn.negatives");
  // Two pools per seed; each candidate reads a row against the anchor
  // (3 flops per element).
  const int64_t scored_rows =
      2 * static_cast<int64_t>(seeds.size()) * pool_size;
  prof.AddBytes(kF * scored_rows * source_embeddings.cols(), 0);
  prof.AddFlops(3 * scored_rows * source_embeddings.cols());
  const simd::KernelTable& kt = simd::Kernels();
  std::vector<int32_t> pool;
  std::vector<std::pair<float, int32_t>> scored;
  pool.reserve(static_cast<size_t>(std::max(pool_size, 0)));
  scored.reserve(static_cast<size_t>(std::max(pool_size, 0)));
  NegativeSamples samples;
  samples.target_negatives.resize(seeds.size());
  samples.source_negatives.resize(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    const auto [s, t] = seeds[i];
    samples.target_negatives[i] = NearestFromPool(
        kt, source_embeddings.Row(s), target_embeddings, t,
        negatives_per_seed, pool_size, rng, pool, scored);
    samples.source_negatives[i] = NearestFromPool(
        kt, target_embeddings.Row(t), source_embeddings, s,
        negatives_per_seed, pool_size, rng, pool, scored);
  }
  return samples;
}

}  // namespace largeea
