// Portable fixed-width SIMD kernel layer with runtime dispatch.
//
// Every dense float kernel in the library (dot products, GEMM
// microkernels, element-wise ops) routes through the KernelTable
// returned by Kernels(). Three backends implement the
// table — scalar, SSE2 (2x4 lanes), and AVX2 (8 lanes) — and the active
// one is chosen at runtime: CLI `--simd {auto,avx2,sse2,scalar}`, then
// the LARGEEA_SIMD environment variable, then a CPUID probe for the best
// ISA the machine supports.
//
// Determinism contract (DESIGN.md §9). Every backend computes every
// reduction over the *same lane-structured accumulation tree*: eight
// independent accumulator lanes fed in fixed stride-8 order, a scalar
// tail folded into lanes [0, dim % 8), and a horizontal sum in fixed
// lane order ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Element-wise kernels
// perform the identical per-element operations in every backend. Because
// each lane operation is one IEEE-754 single-precision mul/add (never an
// FMA — the build sets -ffp-contract=off so the scalar backend cannot be
// contracted either), results are bit-identical across backends and
// machines. This extends §8's guarantee ("same result at any thread
// count") to "same result on any ISA".
#ifndef LARGEEA_SIMD_SIMD_H_
#define LARGEEA_SIMD_SIMD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace largeea::simd {

/// The selectable kernel backends, ordered worst to best.
enum class Backend : int32_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Stable lowercase name ("scalar", "sse2", "avx2") — the same tokens
/// `--simd` and LARGEEA_SIMD accept.
const char* BackendName(Backend backend);

/// Parses "auto"/"scalar"/"sse2"/"avx2" (case-sensitive). For "auto",
/// stores the CPUID-probed best backend. Returns false on any other
/// token.
bool ParseBackend(std::string_view text, Backend* backend);

/// The best backend the running CPU supports (CPUID probe; kScalar on
/// non-x86 builds).
Backend BestBackend();

/// True if the running CPU can execute `backend`.
bool BackendAvailable(Backend backend);

/// Every backend the running CPU supports, worst (scalar) to best.
std::vector<Backend> AvailableBackends();

/// The dispatched float kernels. All functions accept unaligned
/// pointers; `dim`/`n` may be any length >= 0 (tails are handled inside,
/// uniformly across backends — see the determinism contract above).
struct KernelTable {
  /// Sum of a[i] * b[i] over the lane tree.
  float (*dot)(const float* a, const float* b, int64_t dim);
  /// Sum of |a[i] - b[i]| over the lane tree.
  float (*manhattan)(const float* a, const float* b, int64_t dim);
  /// out[q] = dot(a, b[q], dim) for q in 0..3: one source row against
  /// four target rows per call, so the four accumulator chains overlap
  /// and `a` is loaded once per step. Each pair keeps its own eight
  /// lanes, tail fold and lane tree, so every out[q] is bit-identical
  /// to the single-pair call. Rows may repeat or alias `a`.
  void (*dot4)(const float* a, const float* const b[4], int64_t dim,
               float out[4]);
  /// out[q] = manhattan(a, b[q], dim), under the same rules as dot4.
  void (*manhattan4)(const float* a, const float* const b[4], int64_t dim,
                     float out[4]);
  /// y[i] += alpha * x[i] (element-wise; one mul, one add per element).
  void (*axpy)(float alpha, const float* x, float* y, int64_t n);
  /// x[i] *= alpha.
  void (*scale)(float* x, float alpha, int64_t n);
  /// x[i] /= denom (true division — not multiplication by 1/denom).
  void (*divide)(float* x, float denom, int64_t n);
};

/// The active backend. Resolved lazily on first use: LARGEEA_SIMD if set
/// to a valid token (invalid values warn and fall through), else
/// BestBackend().
Backend ActiveBackend();

/// Forces the active backend (CLI `--simd`). Aborts if the CPU cannot
/// execute it — callers should gate on BackendAvailable() to fail
/// gracefully. Swaps the table returned by Kernels(); must not race
/// in-flight kernel calls (set it at startup or between pipeline
/// phases). Updates the `simd.backend` gauge.
void SetBackend(Backend backend);

/// The kernel table of the active backend. The reference is to a static
/// table and stays valid forever; re-call after SetBackend() to observe
/// a switch.
const KernelTable& Kernels();

/// The kernel table of a specific backend, regardless of the active one
/// (the equivalence tests compare backends side by side). Aborts if
/// unavailable on this CPU.
const KernelTable& KernelsFor(Backend backend);

}  // namespace largeea::simd

#endif  // LARGEEA_SIMD_SIMD_H_
