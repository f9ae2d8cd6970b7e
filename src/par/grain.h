// Analytic chunk grains and block sizes for the hot kernels (DESIGN.md
// §13): pure functions of the problem shape and the detected cache
// hierarchy, never of the thread count.
//
// Two kinds, and the difference is the determinism contract:
//
// * Order-neutral grains (GemmRowGrain ... TopKTileRows) only split
//   loops whose bodies write chunk- or element-private state (§8), so
//   any value gives the same bytes. They target ~kTargetChunks chunks
//   per job.
// * The reduction-topology function (GemmTransposeAGrain) picks a float
//   merge order, so it depends on the shape alone — changing it changes
//   result bits and checkpoint bytes.
#ifndef LARGEEA_PAR_GRAIN_H_
#define LARGEEA_PAR_GRAIN_H_

#include <cstdint>

namespace largeea::par {

/// Target chunk count per job for the order-neutral grains.
inline constexpr int64_t kTargetChunks = 64;

// --- Order-neutral grains.

/// Gemm/GemmTransposeB row grain, a 16-row multiple.
int64_t GemmRowGrain(int64_t m);
/// Gemm k-panel depth: whole B when it fits in L2, else half an L2 of
/// B rows.
int64_t GemmPanel(int64_t k, int64_t n);
/// GemmTransposeB B-row tile width: half an L1 of B rows.
int64_t GemmTileCols(int64_t k);
/// Axpy/Scale/Relu element grain.
int64_t ElemGrain(int64_t size);
/// L2NormalizeRows row grain.
int64_t NormRowGrain(int64_t rows);
/// Top-k source rows per block (exact and LSH): the rows that share
/// each target tile while it is L2-resident (and, for LSH, plan their
/// candidate bitsets together). ~kTargetChunks blocks, at least 8 rows,
/// at most the `dim`-float rows of half an L2.
int64_t TopKBlockRows(int64_t rows, int64_t dim);
/// Top-k target rows per tile: `dim`-float rows filling half an L2,
/// rounded down to whole 64-row bitset words.
int64_t TopKTileRows(int64_t dim);

// --- Reduction-topology function: shape only.

/// Row grain of GemmTransposeA, whose chunks own k×n partials.
int64_t GemmTransposeAGrain(int64_t m);

}  // namespace largeea::par

#endif  // LARGEEA_PAR_GRAIN_H_
