#include "src/sim/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/par/grain.h"
#include "src/par/parallel_for.h"
#include "src/simd/simd.h"

namespace largeea {

// Rows per chunk for the row-local phases come from
// par::SinkhornRowGrain: row sums never cross a row boundary, so any
// grain gives bit-identical results. The column-sum chunk count is
// par::SinkhornColChunks(shape): it bounds the extra memory
// (col_chunks * num_cols floats) and — because it is a pure shape
// function, never of the thread count — fixes both the scatter
// partitioning and the pairwise tree topology of the float merge.

SparseSimMatrix SinkhornNormalize(const SparseSimMatrix& m,
                                  const SinkhornOptions& options) {
  LARGEEA_CHECK_GT(options.temperature, 0.0f);
  LARGEEA_CHECK_GT(options.iterations, 0);
  LARGEEA_TRACE_SPAN("sim/sinkhorn");
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("sinkhorn.iterations").Add(options.iterations);
  registry.GetCounter("sinkhorn.entries").Add(m.TotalEntries());
  // Each iteration makes three passes over the entry values (row sum +
  // divide, column scatter, column divide); the row pass also reads the
  // 8-byte index pair per entry in the scatter. Declared per the roofline
  // convention: logical entry traffic, not cache traffic.
  obs::ProfileScope prof("sim.sinkhorn");
  {
    const int64_t entries = m.TotalEntries();
    const int64_t it = options.iterations;
    prof.AddBytes(it * entries * (3 * 4 + 8), it * entries * 2 * 4);
    prof.AddFlops(it * entries * 3);
  }

  // Work on a dense-by-row copy of the entries, with CSR-style row
  // offsets so the row phases can chunk over rows. Structure-of-arrays:
  // the values are one contiguous float array, which is what lets the
  // row phases run through the SIMD kernels (src/simd/) — the row/column
  // indices are only touched by the scatter/gather column phase.
  const int64_t num_rows = m.num_rows();
  std::vector<int32_t> entry_row;
  std::vector<EntityId> entry_col;
  std::vector<float> entry_val;
  entry_row.reserve(static_cast<size_t>(m.TotalEntries()));
  entry_col.reserve(static_cast<size_t>(m.TotalEntries()));
  entry_val.reserve(static_cast<size_t>(m.TotalEntries()));
  std::vector<int64_t> row_offset(static_cast<size_t>(num_rows) + 1, 0);
  for (int32_t r = 0; r < num_rows; ++r) {
    row_offset[r] = static_cast<int64_t>(entry_val.size());
    for (const SimEntry& e : m.Row(r)) {
      entry_row.push_back(r);
      entry_col.push_back(e.column);
      entry_val.push_back(e.score);
    }
  }
  row_offset[num_rows] = static_cast<int64_t>(entry_val.size());
  const int64_t num_entries = static_cast<int64_t>(entry_val.size());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t row_grain = par::SinkhornRowGrain(num_rows);

  // Stabilised exponentiation: subtract each row's max score. The max is
  // computed explicitly — rows arrive sorted descending today, but the
  // stability of the exp must not hinge on that invariant.
  par::ParallelFor(0, num_rows, row_grain, [&](const par::ChunkRange& rows) {
    for (int64_t r = rows.begin; r < rows.end; ++r) {
      if (row_offset[r] == row_offset[r + 1]) continue;
      float row_max = entry_val[row_offset[r]];
      for (int64_t e = row_offset[r]; e < row_offset[r + 1]; ++e) {
        row_max = std::max(row_max, entry_val[e]);
      }
      LARGEEA_DCHECK_EQ(row_max, m.Row(static_cast<int32_t>(r)).front().score);
      for (int64_t e = row_offset[r]; e < row_offset[r + 1]; ++e) {
        entry_val[e] =
            std::exp((entry_val[e] - row_max) / options.temperature);
      }
    }
  });

  std::vector<float> col_sum(m.num_cols());
  const int64_t num_cols = static_cast<int64_t>(col_sum.size());
  const int64_t col_chunks = par::SinkhornColChunks(num_entries);
  const int64_t col_grain =
      num_entries > 0 ? (num_entries + col_chunks - 1) / col_chunks : 1;
  for (int32_t it = 0; it < options.iterations; ++it) {
    // Row normalisation: sums are row-local, so chunking over rows
    // cannot change any reduction order; the sum itself uses the
    // kernel layer's fixed eight-lane tree, identical in every backend.
    par::ParallelFor(0, num_rows, row_grain, [&](const par::ChunkRange& rows) {
      for (int64_t r = rows.begin; r < rows.end; ++r) {
        const int64_t len = row_offset[r + 1] - row_offset[r];
        if (len == 0) continue;
        float* values = entry_val.data() + row_offset[r];
        const float sum = kt.sum(values, len);
        if (sum <= 0.0f) continue;
        kt.divide(values, sum, len);
      }
    });
    // Column normalisation: every chunk scatters into a private dense
    // vector (index-dependent, so scalar); partials fold along the
    // fixed pairwise tree (topology = f(chunk count) only, so the float
    // order is thread-invariant) and the folded root *becomes* col_sum
    // — no serial tail beyond the O(log chunks) tree levels.
    std::vector<float> summed = par::ParallelReduceTree<std::vector<float>>(
        0, num_entries, col_grain,
        [&](const par::ChunkRange& range, std::vector<float>& partial) {
          partial.assign(static_cast<size_t>(num_cols), 0.0f);
          for (int64_t e = range.begin; e < range.end; ++e) {
            partial[entry_col[e]] += entry_val[e];
          }
        },
        [&](std::vector<float>& into, std::vector<float>& from) {
          kt.axpy(1.0f, from.data(), into.data(), num_cols);
        });
    if (summed.empty()) summed.assign(static_cast<size_t>(num_cols), 0.0f);
    col_sum.swap(summed);
    par::ParallelFor(0, num_entries, col_grain,
                     [&](const par::ChunkRange& range) {
                       for (int64_t e = range.begin; e < range.end; ++e) {
                         if (col_sum[entry_col[e]] > 0.0f) {
                           entry_val[e] /= col_sum[entry_col[e]];
                         }
                       }
                     });
  }

  SparseSimMatrix out(m.num_rows(), m.num_cols(), m.max_entries_per_row());
  for (int64_t e = 0; e < num_entries; ++e) {
    out.Accumulate(entry_row[e], entry_col[e], entry_val[e]);
  }
  out.RefreshMemoryTracking();
  return out;
}

}  // namespace largeea
