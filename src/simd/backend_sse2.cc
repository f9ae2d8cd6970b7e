// SSE2 backend: the 8 logical lanes live in two __m128 registers
// (lanes 0-3 low, 4-7 high). SSE2 is part of the x86-64 baseline, so
// this TU needs no special compile flags; on non-x86 targets it compiles
// to a stub returning null.
#include "src/simd/backends.h"

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)

#include <emmintrin.h>

#include "src/simd/kernels_impl.h"

namespace largeea::simd {
namespace {

struct Sse2Vec {
  struct Reg {
    __m128 lo;  // lanes 0-3
    __m128 hi;  // lanes 4-7
  };

  static Reg Zero() { return Reg{_mm_setzero_ps(), _mm_setzero_ps()}; }

  static Reg LoadU(const float* p) {
    return Reg{_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }

  static void StoreU(float* p, Reg r) {
    _mm_storeu_ps(p, r.lo);
    _mm_storeu_ps(p + 4, r.hi);
  }

  static void Store(float out[8], Reg r) { StoreU(out, r); }

  static Reg Broadcast(float s) { return Reg{_mm_set1_ps(s), _mm_set1_ps(s)}; }

  static Reg Add(Reg a, Reg b) {
    return Reg{_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
  }

  static Reg Sub(Reg a, Reg b) {
    return Reg{_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
  }

  static Reg Mul(Reg a, Reg b) {
    return Reg{_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
  }

  static Reg Div(Reg a, Reg b) {
    return Reg{_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)};
  }

  static Reg Sqrt(Reg a) { return Reg{_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)}; }

  static Reg Abs(Reg a) {
    // Clear the sign bit — the same result std::fabs produces, for every
    // input including -0.0 and NaNs.
    const __m128 mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    return Reg{_mm_and_ps(a.lo, mask), _mm_and_ps(a.hi, mask)};
  }
};

}  // namespace

const KernelTable* Sse2KernelTable() {
  static constexpr KernelTable kTable = MakeKernelTable<Sse2Vec>();
  return &kTable;
}

}  // namespace largeea::simd

#else  // non-x86

namespace largeea::simd {

const KernelTable* Sse2KernelTable() { return nullptr; }

}  // namespace largeea::simd

#endif
