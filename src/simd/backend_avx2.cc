// AVX2 backend: the 8 logical lanes are one __m256. This TU (and only
// this TU) is compiled with -mavx2 — see src/CMakeLists.txt — so the
// rest of the library never emits AVX instructions and the runtime
// CPUID dispatch in simd.cc stays sound on SSE-only machines. Note the
// deliberate absence of _mm256_fmadd_ps: a fused multiply-add rounds
// once where the other backends round twice, which would break the
// cross-backend bit-identity contract.
#include "src/simd/backends.h"

#if (defined(__x86_64__) || defined(__i386__) || defined(_M_X64)) && \
    defined(__AVX2__)

#include <immintrin.h>

#include "src/simd/kernels_impl.h"

namespace largeea::simd {
namespace {

struct Avx2Vec {
  using Reg = __m256;

  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg LoadU(const float* p) { return _mm256_loadu_ps(p); }
  static void StoreU(float* p, Reg r) { _mm256_storeu_ps(p, r); }
  static void Store(float out[8], Reg r) { _mm256_store_ps(out, r); }
  static Reg Broadcast(float s) { return _mm256_set1_ps(s); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg Sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg Div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
  static Reg Sqrt(Reg a) { return _mm256_sqrt_ps(a); }

  static Reg Abs(Reg a) {
    const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    return _mm256_and_ps(a, mask);
  }

  // Four lane trees at once, in LaneTreeSum's order. hadd(x, y) is
  // [x0+x1, x2+x3, y0+y1, y2+y3, x4+x5, x6+x7, y4+y5, y6+y7], so round
  // one gives every pair's (l0+l1), (l2+l3), (l4+l5), (l6+l7), round
  // two gives (l0+l1)+(l2+l3) for q = 0..3 in the low half and
  // (l4+l5)+(l6+l7) in the high half, and the 128-bit add joins them.
  static void TreeSum4(const float lanes[4][8], float out[4]) {
    const __m256 h01 =
        _mm256_hadd_ps(_mm256_loadu_ps(lanes[0]), _mm256_loadu_ps(lanes[1]));
    const __m256 h23 =
        _mm256_hadd_ps(_mm256_loadu_ps(lanes[2]), _mm256_loadu_ps(lanes[3]));
    const __m256 h = _mm256_hadd_ps(h01, h23);
    _mm_storeu_ps(out, _mm_add_ps(_mm256_castps256_ps128(h),
                                  _mm256_extractf128_ps(h, 1)));
  }
};

}  // namespace

const KernelTable* Avx2KernelTable() {
  static constexpr KernelTable kTable = MakeKernelTable<Avx2Vec>();
  return &kTable;
}

}  // namespace largeea::simd

#else  // non-x86 build, or the toolchain did not get -mavx2

namespace largeea::simd {

const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace largeea::simd

#endif
