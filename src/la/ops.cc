#include "src/la/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

// Logical traffic declarations for the profiler (DESIGN.md §11): each
// operand is counted once per algorithmic pass, not per cache miss —
// the roofline convention. sizeof(float) spelled as 4 to match the
// declared-bytes semantics (these are f32 kernels by construction).
constexpr int64_t kF = 4;

// Grain and block sizes come from src/par/grain.h (DESIGN.md §13):
// functions of the problem shape and the cache sizes only — never of
// the thread count — so chunk boundaries, and therefore every float
// reduction order, are identical at any `--threads N` (DESIGN.md §8).

/// Bounded pool of k×n scratch matrices for GemmTransposeA partials:
/// reusing a partial across jobs replaces an alloc + full zero-fill
/// with first-touch zeroing of only the rows a chunk actually writes.
/// Contents are stale by design — TaPartial's touched bitmap is what
/// makes reuse safe.
class ScratchPool {
 public:
  static ScratchPool& Get() {
    static ScratchPool* const pool = new ScratchPool();
    return *pool;
  }

  Matrix Acquire(int64_t rows, int64_t cols) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < pool_.size(); ++i) {
        if (pool_[i].rows() == rows && pool_[i].cols() == cols) {
          Matrix m = std::move(pool_[i]);
          pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
          obs::MetricsRegistry::Get().GetCounter("par.scratch.reused").Add(1);
          return m;
        }
      }
    }
    obs::MetricsRegistry::Get().GetCounter("par.scratch.allocated").Add(1);
    return Matrix(rows, cols);
  }

  void Release(Matrix&& m) {
    if (m.size() == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.size() < kMaxPooled) pool_.push_back(std::move(m));
  }

 private:
  static constexpr size_t kMaxPooled = 16;
  std::mutex mu_;
  std::vector<Matrix> pool_;
};

/// Chunk-private GemmTransposeA state: a scratch partial plus per-row
/// dirty bits. Rows are zeroed on first touch, so an untouched row may
/// hold stale bytes from a previous job — the merge skips it.
struct TaPartial {
  Matrix m;
  std::vector<uint8_t> touched;
  bool active = false;
};

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  LARGEEA_CHECK_EQ(a.cols(), b.rows());
  LARGEEA_CHECK_EQ(c.rows(), a.rows());
  LARGEEA_CHECK_EQ(c.cols(), b.cols());
  c.Fill(0.0f);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  obs::ProfileScope prof("la.gemm");
  prof.AddBytes(kF * (m * k + k * n), kF * m * n);
  prof.AddFlops(2 * m * k * n);
  const simd::KernelTable& kt = simd::Kernels();
  // p-panel blocking keeps the active rows of B cache-resident while the
  // chunk's C rows accumulate — but when all of B fits in cache anyway,
  // panelling only re-streams A and C, so GemmPanel returns one panel.
  // Either way each c[i][j] receives its contributions in ascending p
  // order, so the blocking (shape + cache, never thread count) never
  // changes the result.
  const int64_t panel = par::GemmPanel(k, n);
  const int64_t grain = par::GemmRowGrain(m);
  par::ParallelFor(0, m, grain, [&](const par::ChunkRange& rows) {
    for (int64_t p0 = 0; p0 < k; p0 += panel) {
      const int64_t p1 = std::min(p0 + panel, k);
      for (int64_t i = rows.begin; i < rows.end; ++i) {
        const float* arow = a.Row(i);
        float* crow = c.Row(i);
        for (int64_t p = p0; p < p1; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;
          kt.axpy(av, b.Row(p), crow, n);
        }
      }
    }
  });
}

void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix& c) {
  LARGEEA_CHECK_EQ(a.cols(), b.cols());
  LARGEEA_CHECK_EQ(c.rows(), a.rows());
  LARGEEA_CHECK_EQ(c.cols(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  obs::ProfileScope prof("la.gemm_tb");
  prof.AddBytes(kF * (m * k + n * k), kF * m * n);
  prof.AddFlops(2 * m * k * n);
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t tile_cols = par::GemmTileCols(k);
  const int64_t grain = par::GemmRowGrain(m);
  par::ParallelFor(0, m, grain, [&](const par::ChunkRange& rows) {
    // Tile over B rows so a tile of B is reused across every A row of
    // the chunk. Each element is one dot kernel call — no cross-tile
    // sums.
    for (int64_t j0 = 0; j0 < n; j0 += tile_cols) {
      const int64_t j1 = std::min(j0 + tile_cols, n);
      for (int64_t i = rows.begin; i < rows.end; ++i) {
        const float* arow = a.Row(i);
        float* crow = c.Row(i);
        for (int64_t j = j0; j < j1; ++j) crow[j] = kt.dot(arow, b.Row(j), k);
      }
    }
  });
}

void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix& c) {
  LARGEEA_CHECK_EQ(a.rows(), b.rows());
  LARGEEA_CHECK_EQ(c.rows(), a.cols());
  LARGEEA_CHECK_EQ(c.cols(), b.cols());
  c.Fill(0.0f);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0) return;
  obs::ProfileScope prof("la.gemm_ta");
  prof.AddBytes(kF * (m * k + m * n), kF * k * n);
  prof.AddFlops(2 * m * k * n);
  const simd::KernelTable& kt = simd::Kernels();
  // Every input row touches all of C, so chunks accumulate into private
  // partial matrices merged in chunk order. The chunk count picks the
  // float merge order, so the grain is a function of shape alone
  // (par::GemmTransposeAGrain).
  const int64_t grain = par::GemmTransposeAGrain(m);
  par::ParallelReduceOrdered<TaPartial>(
      0, m, grain,
      [&](const par::ChunkRange& rows, TaPartial& partial) {
        for (int64_t i = rows.begin; i < rows.end; ++i) {
          const float* arow = a.Row(i);
          const float* brow = b.Row(i);
          for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            if (!partial.active) {
              partial.m = ScratchPool::Get().Acquire(k, n);
              partial.touched.assign(static_cast<size_t>(k), 0);
              partial.active = true;
            }
            if (!partial.touched[static_cast<size_t>(p)]) {
              std::memset(partial.m.Row(p), 0,
                          static_cast<size_t>(n) * sizeof(float));
              partial.touched[static_cast<size_t>(p)] = 1;
            }
            kt.axpy(av, brow, partial.m.Row(p), n);
          }
        }
      },
      [&](const par::ChunkRange&, TaPartial&& partial) {
        if (!partial.active) return;
        // Same ascending-chunk axpy order (and bytes) as accumulating
        // full zero-filled partials; untouched rows would only have
        // added 0.0f and are skipped instead.
        for (int64_t p = 0; p < k; ++p) {
          if (!partial.touched[static_cast<size_t>(p)]) continue;
          kt.axpy(1.0f, partial.m.Row(p), c.Row(p), n);
        }
        ScratchPool::Get().Release(std::move(partial.m));
      });
}

void Axpy(float alpha, const Matrix& x, Matrix& y) {
  LARGEEA_CHECK_EQ(x.rows(), y.rows());
  LARGEEA_CHECK_EQ(x.cols(), y.cols());
  const float* xv = x.data();
  float* yv = y.data();
  obs::ProfileScope prof("la.axpy");
  prof.AddBytes(kF * 2 * x.size(), kF * x.size());
  prof.AddFlops(2 * x.size());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t grain = par::ElemGrain(x.size());
  par::ParallelFor(0, x.size(), grain, [&](const par::ChunkRange& r) {
    kt.axpy(alpha, xv + r.begin, yv + r.begin, r.end - r.begin);
  });
}

void Scale(Matrix& m, float alpha) {
  float* v = m.data();
  obs::ProfileScope prof("la.scale");
  prof.AddBytes(kF * m.size(), kF * m.size());
  prof.AddFlops(m.size());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t grain = par::ElemGrain(m.size());
  par::ParallelFor(0, m.size(), grain, [&](const par::ChunkRange& r) {
    kt.scale(v + r.begin, alpha, r.end - r.begin);
  });
}

void L2NormalizeRows(Matrix& m, float epsilon) {
  const int64_t cols = m.cols();
  obs::ProfileScope prof("la.l2norm_rows");
  prof.AddBytes(kF * m.size(), kF * m.size());
  prof.AddFlops(3 * m.size());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t grain = par::NormRowGrain(m.rows());
  par::ParallelFor(0, m.rows(), grain, [&](const par::ChunkRange& r) {
    for (int64_t row = r.begin; row < r.end; ++row) {
      float* v = m.Row(row);
      const float norm = std::sqrt(kt.dot(v, v, cols)) + epsilon;
      kt.divide(v, norm, cols);
    }
  });
}

void ReluInPlace(Matrix& m) {
  float* v = m.data();
  const int64_t grain = par::ElemGrain(m.size());
  par::ParallelFor(0, m.size(), grain, [&](const par::ChunkRange& r) {
    for (int64_t i = r.begin; i < r.end; ++i) {
      if (v[i] < 0.0f) v[i] = 0.0f;
    }
  });
}

void ReluBackwardInPlace(const Matrix& pre_activation, Matrix& grad) {
  LARGEEA_CHECK_EQ(pre_activation.rows(), grad.rows());
  LARGEEA_CHECK_EQ(pre_activation.cols(), grad.cols());
  const float* pre = pre_activation.data();
  float* g = grad.data();
  const int64_t grain = par::ElemGrain(grad.size());
  par::ParallelFor(0, grad.size(), grain, [&](const par::ChunkRange& r) {
    for (int64_t i = r.begin; i < r.end; ++i) {
      if (pre[i] <= 0.0f) g[i] = 0.0f;
    }
  });
}

float Dot(const float* a, const float* b, int64_t dim) {
  return simd::Kernels().dot(a, b, dim);
}

float ManhattanDistance(const float* a, const float* b, int64_t dim) {
  return simd::Kernels().manhattan(a, b, dim);
}

float Norm2(const float* a, int64_t dim) {
  return std::sqrt(Dot(a, a, dim));
}

float FrobeniusNorm(const Matrix& m) { return Norm2(m.data(), m.size()); }

}  // namespace largeea
