// Backend-generic kernel bodies, templated on an 8-lane vector trait.
//
// Each backend TU (backend_scalar.cc, backend_sse2.cc, backend_avx2.cc)
// instantiates these templates with its own trait — a type V exposing:
//
//   V::Reg                       8 packed floats
//   V::Zero()                    all-zero register
//   V::LoadU(p) / V::StoreU(p)   unaligned load/store of 8 floats
//   V::Store(out8, r)            spill to a float[8] in lane order
//   V::Broadcast(s)              all lanes = s
//   V::Add / Sub / Mul / Div     lane-wise IEEE single ops
//   V::Abs                       lane-wise |x| (sign-bit clear)
//
// and optionally V::TreeSum4(lanes, out), four LaneTreeSums in the same
// addition order (see TreeSum4 below).
//
// The bodies are what make the backends bit-identical (DESIGN.md §9):
// every reduction feeds eight accumulator lanes in stride-8 order, folds
// the tail element i into lane i % 8, and horizontal-sums in the fixed
// tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Per-lane arithmetic is one
// mul and one add — never an FMA — so each lane value is the same
// IEEE-754 result in every backend.
#ifndef LARGEEA_SIMD_KERNELS_IMPL_H_
#define LARGEEA_SIMD_KERNELS_IMPL_H_

#include <cmath>
#include <cstdint>

#include "src/simd/simd.h"

namespace largeea::simd {

/// Fixed-order horizontal sum of the eight accumulator lanes.
inline float LaneTreeSum(const float lanes[8]) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

template <typename V>
float DotImpl(const float* a, const float* b, int64_t dim) {
  typename V::Reg acc = V::Zero();
  int64_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc = V::Add(acc, V::Mul(V::LoadU(a + i), V::LoadU(b + i)));
  }
  alignas(32) float lanes[8];
  V::Store(lanes, acc);
  for (int64_t lane = 0; i < dim; ++i, ++lane) lanes[lane] += a[i] * b[i];
  return LaneTreeSum(lanes);
}

template <typename V>
float ManhattanImpl(const float* a, const float* b, int64_t dim) {
  typename V::Reg acc = V::Zero();
  int64_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc = V::Add(acc, V::Abs(V::Sub(V::LoadU(a + i), V::LoadU(b + i))));
  }
  alignas(32) float lanes[8];
  V::Store(lanes, acc);
  for (int64_t lane = 0; i < dim; ++i, ++lane) {
    lanes[lane] += std::fabs(a[i] - b[i]);
  }
  return LaneTreeSum(lanes);
}

/// out[q] = LaneTreeSum(lanes[q]) for the four spilled accumulators of
/// a four-pair kernel. A trait may reduce all four at once through its
/// own V::TreeSum4, provided each out[q] is summed in LaneTreeSum's
/// order; the AVX2 one does it with two horizontal-add rounds and one
/// 128-bit add.
template <typename V>
void TreeSum4(const float lanes[4][8], float out[4]) {
  if constexpr (requires { V::TreeSum4(lanes, out); }) {
    V::TreeSum4(lanes, out);
  } else {
    for (int q = 0; q < 4; ++q) out[q] = LaneTreeSum(lanes[q]);
  }
}

// The four-pair reductions: DotImpl/ManhattanImpl for a against b[0..3]
// with four independent accumulators, stride-8 order, tail element i
// folded into lane i % 8 of each pair, and one lane tree per pair — so
// out[q] equals the single-pair result bit for bit, on every backend.
template <typename V>
void Dot4Impl(const float* a, const float* const b[4], int64_t dim,
              float out[4]) {
  typename V::Reg acc0 = V::Zero(), acc1 = V::Zero(), acc2 = V::Zero(),
                  acc3 = V::Zero();
  int64_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const typename V::Reg va = V::LoadU(a + i);
    acc0 = V::Add(acc0, V::Mul(va, V::LoadU(b[0] + i)));
    acc1 = V::Add(acc1, V::Mul(va, V::LoadU(b[1] + i)));
    acc2 = V::Add(acc2, V::Mul(va, V::LoadU(b[2] + i)));
    acc3 = V::Add(acc3, V::Mul(va, V::LoadU(b[3] + i)));
  }
  alignas(32) float lanes[4][8];
  V::Store(lanes[0], acc0);
  V::Store(lanes[1], acc1);
  V::Store(lanes[2], acc2);
  V::Store(lanes[3], acc3);
  for (int64_t lane = 0; i < dim; ++i, ++lane) {
    for (int q = 0; q < 4; ++q) lanes[q][lane] += a[i] * b[q][i];
  }
  TreeSum4<V>(lanes, out);
}

template <typename V>
void Manhattan4Impl(const float* a, const float* const b[4], int64_t dim,
                    float out[4]) {
  typename V::Reg acc0 = V::Zero(), acc1 = V::Zero(), acc2 = V::Zero(),
                  acc3 = V::Zero();
  int64_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const typename V::Reg va = V::LoadU(a + i);
    acc0 = V::Add(acc0, V::Abs(V::Sub(va, V::LoadU(b[0] + i))));
    acc1 = V::Add(acc1, V::Abs(V::Sub(va, V::LoadU(b[1] + i))));
    acc2 = V::Add(acc2, V::Abs(V::Sub(va, V::LoadU(b[2] + i))));
    acc3 = V::Add(acc3, V::Abs(V::Sub(va, V::LoadU(b[3] + i))));
  }
  alignas(32) float lanes[4][8];
  V::Store(lanes[0], acc0);
  V::Store(lanes[1], acc1);
  V::Store(lanes[2], acc2);
  V::Store(lanes[3], acc3);
  for (int64_t lane = 0; i < dim; ++i, ++lane) {
    for (int q = 0; q < 4; ++q) lanes[q][lane] += std::fabs(a[i] - b[q][i]);
  }
  TreeSum4<V>(lanes, out);
}

template <typename V>
void AxpyImpl(float alpha, const float* x, float* y, int64_t n) {
  const typename V::Reg va = V::Broadcast(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V::StoreU(y + i, V::Add(V::LoadU(y + i), V::Mul(va, V::LoadU(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

template <typename V>
void ScaleImpl(float* x, float alpha, int64_t n) {
  const typename V::Reg va = V::Broadcast(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V::StoreU(x + i, V::Mul(V::LoadU(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

template <typename V>
void DivideImpl(float* x, float denom, int64_t n) {
  const typename V::Reg vd = V::Broadcast(denom);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V::StoreU(x + i, V::Div(V::LoadU(x + i), vd));
  }
  for (; i < n; ++i) x[i] /= denom;
}

/// Assembles a KernelTable from one trait.
template <typename V>
constexpr KernelTable MakeKernelTable() {
  return KernelTable{&DotImpl<V>,   &ManhattanImpl<V>, &Dot4Impl<V>,
                     &Manhattan4Impl<V>, &AxpyImpl<V>, &ScaleImpl<V>,
                     &DivideImpl<V>};
}

}  // namespace largeea::simd

#endif  // LARGEEA_SIMD_KERNELS_IMPL_H_
