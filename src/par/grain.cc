#include "src/par/grain.h"

#include <unistd.h>

namespace largeea::par {
namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

int64_t Clamp(int64_t v, int64_t lo, int64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Per-core data cache sizes (sysconf on Linux; conservative 32KB/1MB
/// fallbacks elsewhere).
struct CacheSizes {
  int64_t l1_bytes = 32 * 1024;
  int64_t l2_bytes = 1024 * 1024;
};

CacheSizes DetectCacheSizes() {
  CacheSizes sizes;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) sizes.l1_bytes = l1;
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) sizes.l2_bytes = l2;
#endif
  // Some kernels report L2=0 on VMs; keep the fallback rather than a
  // degenerate panel size.
  if (sizes.l1_bytes <= 0) sizes.l1_bytes = 32 * 1024;
  if (sizes.l2_bytes <= 0) sizes.l2_bytes = 1024 * 1024;
  return sizes;
}

const CacheSizes& Cache() {
  static const CacheSizes sizes = DetectCacheSizes();
  return sizes;
}

}  // namespace

int64_t GemmRowGrain(int64_t m) {
  if (m <= 0) return 16;
  // Target ~kTargetChunks chunks, rounded up to a 16-row multiple so
  // chunk starts stay line-aligned for the row-major panels.
  const int64_t grain = CeilDiv(m, kTargetChunks);
  return Clamp(CeilDiv(grain, 16) * 16, 16, m < 16 ? 16 : m);
}

int64_t GemmPanel(int64_t k, int64_t n) {
  const int64_t cache = Cache().l2_bytes;
  // Whole-B fits: no panelling needed.
  if (k * n * 4 <= cache) return k > 0 ? k : 1;
  // Keep a half-cache worth of B rows resident per panel pass.
  if (n <= 0) return 64;
  return Clamp((cache / 2) / (4 * n), 16, 256);
}

int64_t GemmTileCols(int64_t k) {
  if (k <= 0) return 32;
  // A tile of B rows should fit in half of L1 next to the A row.
  return Clamp((Cache().l1_bytes / 2) / (4 * k), 8, 128);
}

int64_t ElemGrain(int64_t size) {
  const int64_t floor_grain = int64_t{1} << 14;
  if (size <= floor_grain) return floor_grain;
  const int64_t grain = CeilDiv(size, kTargetChunks);
  return grain < floor_grain ? floor_grain : grain;
}

int64_t NormRowGrain(int64_t rows) {
  if (rows <= 16) return 16;
  const int64_t grain = CeilDiv(rows, kTargetChunks);
  return grain < 16 ? 16 : grain;
}

int64_t TopKBlockRows(int64_t rows, int64_t dim) {
  // Each tile is read from beyond L2 once per block, so bigger blocks
  // share it more; the cap keeps the block's source rows within the
  // half of L2 the tile leaves free.
  const int64_t cap = (Cache().l2_bytes / 2) / (4 * (dim > 0 ? dim : 1));
  return Clamp(CeilDiv(rows, kTargetChunks), 8, cap < 8 ? 8 : cap);
}

int64_t TopKTileRows(int64_t dim) {
  const int64_t words = (Cache().l2_bytes / 2) / (4 * (dim > 0 ? dim : 1) * 64);
  return (words < 1 ? 1 : words) * 64;
}

int64_t GemmTransposeAGrain(int64_t m) {
  // Bounded partial count (each partial is a k×n matrix); identical to
  // the historical formula so existing checkpoints keep their bytes.
  constexpr int64_t kMaxChunks = 16;
  constexpr int64_t kMinGrain = 64;
  if (m <= 0) return kMinGrain;
  const int64_t grain = CeilDiv(m, kMaxChunks);
  return grain < kMinGrain ? kMinGrain : grain;
}

}  // namespace largeea::par
