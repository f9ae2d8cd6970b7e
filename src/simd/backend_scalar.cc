// Scalar backend: eight plain-float accumulator lanes. This is the
// portable reference the other backends must match bit for bit; it is
// also what non-x86 builds run. The compiler is free to auto-vectorise
// these loops — lane-wise IEEE mul/add semantics are preserved either
// way (the build disables fp contraction, so no FMA can sneak in).
#include <cmath>

#include "src/simd/backends.h"
#include "src/simd/kernels_impl.h"

namespace largeea::simd {
namespace {

struct ScalarVec {
  struct Reg {
    float lane[8];
  };

  static Reg Zero() { return Reg{{0, 0, 0, 0, 0, 0, 0, 0}}; }

  static Reg LoadU(const float* p) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = p[l];
    return r;
  }

  static void StoreU(float* p, Reg r) {
    for (int l = 0; l < 8; ++l) p[l] = r.lane[l];
  }

  static void Store(float out[8], Reg r) { StoreU(out, r); }

  static Reg Broadcast(float s) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = s;
    return r;
  }

  static Reg Add(Reg a, Reg b) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = a.lane[l] + b.lane[l];
    return r;
  }

  static Reg Sub(Reg a, Reg b) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = a.lane[l] - b.lane[l];
    return r;
  }

  static Reg Mul(Reg a, Reg b) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = a.lane[l] * b.lane[l];
    return r;
  }

  static Reg Div(Reg a, Reg b) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = a.lane[l] / b.lane[l];
    return r;
  }

  static Reg Sqrt(Reg a) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = std::sqrt(a.lane[l]);
    return r;
  }

  static Reg Abs(Reg a) {
    Reg r;
    for (int l = 0; l < 8; ++l) r.lane[l] = std::fabs(a.lane[l]);
    return r;
  }
};

}  // namespace

const KernelTable* ScalarKernelTable() {
  static constexpr KernelTable kTable = MakeKernelTable<ScalarVec>();
  return &kTable;
}

}  // namespace largeea::simd
