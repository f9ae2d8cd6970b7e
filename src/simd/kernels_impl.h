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
  return KernelTable{&DotImpl<V>,  &ManhattanImpl<V>, &AxpyImpl<V>,
                     &ScaleImpl<V>, &DivideImpl<V>};
}

}  // namespace largeea::simd

#endif  // LARGEEA_SIMD_KERNELS_IMPL_H_
