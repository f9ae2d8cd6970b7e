// Memory budget arithmetic for the streaming layer.
//
// A MemoryBudget translates the user-facing `--memory-budget-mb` into
// the rows a dense chunk may hold (SENS spills its target and searches
// its source in chunks of that many rows) and, after a run, into the
// stream.budget.* compliance gauges.
#ifndef LARGEEA_STREAM_MEMORY_BUDGET_H_
#define LARGEEA_STREAM_MEMORY_BUDGET_H_

#include <cstdint>

#include "src/stream/stream_options.h"

namespace largeea::stream {

/// Byte-level view of a resolved StreamOptions budget. Copyable; all
/// methods are cheap and thread-safe.
class MemoryBudget {
 public:
  explicit MemoryBudget(const StreamOptions& options);

  /// Total budget in bytes (0 when streaming is disabled).
  int64_t budget_bytes() const { return budget_bytes_; }

  /// True when a positive budget is set.
  bool enabled() const { return budget_bytes_ > 0; }

  /// Rows per tile for a dense matrix of `total_rows` x `row_bytes`.
  /// Honours the explicit `tile_rows` option when positive; otherwise
  /// sizes tiles so ~kAutoTilesPerBudget of them fit in the budget,
  /// clamped to [kMinTileRows, total_rows]. Always >= 1.
  int64_t TileRowsFor(int64_t total_rows, int64_t row_bytes) const;

  /// Records `peak_bytes` (the pipeline's observed tracked peak)
  /// against the budget in the stream.budget.* gauges (peak, budget,
  /// compliant). Call once per pipeline run, after the streamed phases.
  void ReportCompliance(int64_t peak_bytes) const;

  /// Auto tile sizing targets this many tiles per budget.
  static constexpr int64_t kAutoTilesPerBudget = 16;
  /// Never shrink auto tiles below this many rows.
  static constexpr int64_t kMinTileRows = 64;

 private:
  int64_t budget_bytes_ = 0;
  int32_t requested_tile_rows_ = 0;
};

}  // namespace largeea::stream

#endif  // LARGEEA_STREAM_MEMORY_BUDGET_H_
