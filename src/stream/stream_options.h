// Configuration of the memory-budgeted streaming execution layer.
//
// A pipeline run with a positive memory budget streams its whole-graph
// dense buffers (semantic embeddings) through a disk-backed TileStore
// and fuses its sparse matrices block-by-block, releasing inputs as they
// are consumed, so the MemoryTracker peak stays under the budget at any
// dataset scale. Results are bit-identical to the in-memory path — the
// budget only moves bytes between RAM and disk (DESIGN.md §10).
#ifndef LARGEEA_STREAM_STREAM_OPTIONS_H_
#define LARGEEA_STREAM_STREAM_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <string>

namespace largeea::stream {

/// Largest budget, in MiB, whose byte count fits in an int64_t. Config
/// rejects a larger --memory-budget-mb; ResolveStreamOptions ignores a
/// larger LARGEEA_MEMORY_BUDGET_MB like any other malformed value.
inline constexpr int64_t kMaxMemoryBudgetMb =
    std::numeric_limits<int64_t>::max() >> 20;

/// Knobs of the streaming layer. Part of LargeEaOptions (and of the
/// unified Config); in no checkpoint fingerprint, because every
/// artifact is saved in full under any budget (pipeline_fingerprint.h).
struct StreamOptions {
  /// Tracked-memory budget in MiB. 0 disables streaming (the in-memory
  /// path); -1 means "unset" — consult LARGEEA_MEMORY_BUDGET_MB, then
  /// fall back to disabled. CLI: --memory-budget-mb.
  int64_t memory_budget_mb = -1;
  /// Rows per dense tile; 0 derives a size from the budget so that
  /// several tiles fit comfortably (see MemoryBudget::TileRowsFor).
  int32_t tile_rows = 0;
  /// Directory for spilled tiles; empty creates (and removes) a unique
  /// directory under the system temp path.
  std::string spill_dir;
  /// Release whole-graph intermediates (M_se, M_st, the per-channel
  /// matrices) as soon as they are fused; the corresponding result
  /// fields come back empty. Off keeps them, trading budget headroom
  /// for inspectability.
  bool release_inputs = true;
};

/// Applies the environment default: an unset budget (-1) resolves to
/// LARGEEA_MEMORY_BUDGET_MB when that holds an integer in
/// [0, kMaxMemoryBudgetMb], else to 0 (disabled). Idempotent; every
/// consumer of StreamOptions resolves before use so they can never
/// disagree about whether a run streams.
StreamOptions ResolveStreamOptions(StreamOptions options);

/// True when `options` (already resolved) enables streaming.
inline bool StreamingEnabled(const StreamOptions& options) {
  return options.memory_budget_mb > 0;
}

}  // namespace largeea::stream

#endif  // LARGEEA_STREAM_STREAM_OPTIONS_H_
