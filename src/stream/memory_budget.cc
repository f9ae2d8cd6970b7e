#include "src/stream/memory_budget.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace largeea::stream {

namespace {
constexpr int64_t kBytesPerMb = int64_t{1} << 20;
}  // namespace

MemoryBudget::MemoryBudget(const StreamOptions& options)
    : budget_bytes_(options.memory_budget_mb > 0
                        ? options.memory_budget_mb * kBytesPerMb
                        : 0),
      requested_tile_rows_(options.tile_rows) {}

int64_t MemoryBudget::TileRowsFor(int64_t total_rows, int64_t row_bytes) const {
  if (total_rows <= 0) return 1;
  if (requested_tile_rows_ > 0) {
    return std::min<int64_t>(requested_tile_rows_, total_rows);
  }
  if (!enabled() || row_bytes <= 0) return total_rows;
  int64_t rows = budget_bytes_ / kAutoTilesPerBudget / row_bytes;
  rows = std::max(rows, kMinTileRows);
  return std::min(rows, total_rows);
}

void MemoryBudget::ReportCompliance(int64_t peak_bytes) const {
  auto& metrics = obs::MetricsRegistry::Get();
  metrics.GetGauge("stream.budget.bytes")
      .Set(static_cast<double>(budget_bytes_));
  metrics.GetGauge("stream.budget.peak_bytes")
      .Set(static_cast<double>(peak_bytes));
  metrics.GetGauge("stream.budget.compliant")
      .Set(!enabled() || peak_bytes <= budget_bytes_ ? 1.0 : 0.0);
}

}  // namespace largeea::stream
