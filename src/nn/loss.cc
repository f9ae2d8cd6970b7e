#include "src/nn/loss.h"

#include <vector>

#include "src/common/macros.h"
#include "src/la/ops.h"
#include "src/obs/profiler.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

constexpr int64_t kF = sizeof(float);

float Sign(float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); }

// out[j] = ManhattanDistance(a, rows.Row(ids[j])) bit for bit, four rows
// per kernel call and the last 1-3 one at a time. |x - y| and |y - x|
// are the same bits, so either side of a pair may be `a`.
void Distances(const simd::KernelTable& kt, const float* a, const Matrix& rows,
               std::span<const int32_t> ids, int64_t dim, float* out) {
  size_t j = 0;
  for (; j + 4 <= ids.size(); j += 4) {
    const float* four[4] = {rows.Row(ids[j]), rows.Row(ids[j + 1]),
                            rows.Row(ids[j + 2]), rows.Row(ids[j + 3])};
    kt.manhattan4(a, four, dim, out + j);
  }
  for (; j < ids.size(); ++j) out[j] = kt.manhattan(a, rows.Row(ids[j]), dim);
}

}  // namespace

MarginLossResult MarginLossAndGrad(
    const Matrix& source_embeddings, const Matrix& target_embeddings,
    std::span<const std::pair<int32_t, int32_t>> seeds,
    const NegativeSamples& negatives, float margin,
    Matrix& source_grad, Matrix& target_grad) {
  LARGEEA_CHECK_EQ(source_embeddings.cols(), target_embeddings.cols());
  LARGEEA_CHECK_EQ(negatives.target_negatives.size(), seeds.size());
  LARGEEA_CHECK_EQ(negatives.source_negatives.size(), seeds.size());
  const int64_t dim = source_embeddings.cols();

  // Triplet count for gradient averaging.
  int64_t total_triplets = 0;
  for (size_t i = 0; i < seeds.size(); ++i) {
    total_triplets +=
        static_cast<int64_t>(negatives.target_negatives[i].size()) +
        static_cast<int64_t>(negatives.source_negatives[i].size());
  }
  MarginLossResult result;
  if (total_triplets == 0) return result;
  const float scale = 1.0f / static_cast<float>(total_triplets);
  obs::ProfileScope prof("nn.loss");

  const simd::KernelTable& kt = simd::Kernels();
  // Sign(z_s - z_t), which every active triplet of the seed needs.
  std::vector<float> pos_sign(static_cast<size_t>(dim));
  // The seed's negative distances, computed before any gradient row is
  // written (the embeddings are read-only here).
  std::vector<float> d_target, d_source;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const auto [s, t] = seeds[i];
    const float* zs = source_embeddings.Row(s);
    const float* zt = target_embeddings.Row(t);
    const float d_pos = ManhattanDistance(zs, zt, dim);
    for (int64_t k = 0; k < dim; ++k) pos_sign[k] = Sign(zs[k] - zt[k]);
    const float* sp = pos_sign.data();
    const std::vector<int32_t>& target_negs = negatives.target_negatives[i];
    const std::vector<int32_t>& source_negs = negatives.source_negatives[i];
    d_target.resize(target_negs.size());
    d_source.resize(source_negs.size());
    Distances(kt, zs, target_embeddings, target_negs, dim, d_target.data());
    Distances(kt, zt, source_embeddings, source_negs, dim, d_source.data());

    // Corrupted target: d(z_s, z_t').
    for (size_t j = 0; j < target_negs.size(); ++j) {
      const int32_t tn = target_negs[j];
      const float* ztn = target_embeddings.Row(tn);
      const float v = d_pos + margin - d_target[j];
      if (v <= 0.0f) continue;
      result.loss += v * scale;
      ++result.active_triplets;
      float* gs = source_grad.Row(s);
      float* gt = target_grad.Row(t);
      float* gtn = target_grad.Row(tn);
      for (int64_t k = 0; k < dim; ++k) {
        const float sn = Sign(zs[k] - ztn[k]);
        gs[k] += scale * (sp[k] - sn);
        gt[k] -= scale * sp[k];
        gtn[k] += scale * sn;
      }
    }

    // Corrupted source: d(z_s', z_t).
    for (size_t j = 0; j < source_negs.size(); ++j) {
      const int32_t sn = source_negs[j];
      const float* zsn = source_embeddings.Row(sn);
      const float v = d_pos + margin - d_source[j];
      if (v <= 0.0f) continue;
      result.loss += v * scale;
      ++result.active_triplets;
      float* gs = source_grad.Row(s);
      float* gt = target_grad.Row(t);
      float* gsn = source_grad.Row(sn);
      for (int64_t k = 0; k < dim; ++k) {
        const float sneg = Sign(zsn[k] - zt[k]);
        gs[k] += scale * sp[k];
        gt[k] += scale * (-sp[k] + sneg);
        gsn[k] -= scale * sneg;
      }
    }
  }
  // Each seed's pair and each triplet read two rows for a distance and
  // signs (3 flops per element); an active triplet then reads a
  // negative row and three gradient rows and writes the three (8).
  const int64_t pairs = static_cast<int64_t>(seeds.size()) + total_triplets;
  prof.AddBytes(kF * dim * (2 * pairs + 4 * result.active_triplets),
                kF * dim * 3 * result.active_triplets);
  prof.AddFlops(dim * (3 * pairs + 8 * result.active_triplets));
  return result;
}

}  // namespace largeea
