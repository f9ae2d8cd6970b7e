#include "src/sim/csls.h"

#include <vector>

#include "src/par/grain.h"
#include "src/par/parallel_for.h"

namespace largeea {

SparseSimMatrix CslsRescale(const SparseSimMatrix& m) {
  std::vector<float> row_mean(m.num_rows(), 0.0f);
  std::vector<float> col_sum(m.num_cols(), 0.0f);
  std::vector<int32_t> col_count(m.num_cols(), 0);
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    float sum = 0.0f;
    for (const SimEntry& e : row) {
      sum += e.score;
      col_sum[e.column] += e.score;
      ++col_count[e.column];
    }
    if (!row.empty()) row_mean[r] = sum / static_cast<float>(row.size());
  }

  // The column sums above are one serial pass (their float order is
  // part of the result); the rescale writes each row from its own chunk.
  SparseSimMatrix out(m.num_rows(), m.num_cols(), m.max_entries_per_row());
  par::ParallelFor(
      0, m.num_rows(), par::NormRowGrain(m.num_rows()),
      [&](const par::ChunkRange& chunk) {
        std::vector<SimEntry> rescaled;
        for (int64_t i = chunk.begin; i < chunk.end; ++i) {
          const int32_t r = static_cast<int32_t>(i);
          const auto row = m.Row(r);
          rescaled.clear();
          rescaled.reserve(row.size());
          for (const SimEntry& e : row) {
            const float col_mean =
                col_count[e.column] > 0
                    ? col_sum[e.column] /
                          static_cast<float>(col_count[e.column])
                    : 0.0f;
            rescaled.push_back(SimEntry{
                e.column, 2.0f * e.score - row_mean[r] - col_mean});
          }
          out.AccumulateRow(r, rescaled);
        }
      });
  out.RefreshMemoryTracking();
  return out;
}

}  // namespace largeea
