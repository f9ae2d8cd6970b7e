// Configuration of the memory-budgeted streaming execution layer.
//
// A pipeline run with a positive memory budget spills its whole-graph
// dense buffer (the target's semantic embeddings) to one mapped file and
// encodes and searches the source in blocks, so the MemoryTracker peak
// stays under the budget at any dataset scale. Every run, budgeted or
// not, fuses its sparse matrices row by row and releases each input as
// it is consumed. Results are bit-identical to the in-memory path — the
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
  /// Rows per dense chunk: the spill writes the target and the search
  /// encodes the source this many rows at a time; 0 derives a size from
  /// the budget (see MemoryBudget::TileRowsFor).
  int32_t tile_rows = 0;
  /// Directory for the spill file, created if missing; empty uses the
  /// system temp directory. A spill removes its file once it is mapped.
  std::string spill_dir;
  /// Every run, budgeted or not, releases its whole-graph intermediates
  /// (M_se, M_st, the per-channel matrices) as soon as they are fused;
  /// those result fields come back empty. Not a knob: the budget decides
  /// only whether SENS spills its target.
  static constexpr bool release_inputs = true;
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
