// Working-set accounting, the stand-in for the paper's GPU-memory probe.
//
// The paper reports the maximum GPU memory each method needs (Table 2/3/6,
// measured with NVIDIA Nsight). This repo runs on CPU, so instead every
// large buffer — entity embeddings, optimizer state, similarity matrices —
// registers its byte count with the process-wide MemoryTracker. Benches
// reset the peak before a phase and read it afterwards; the *relative*
// numbers (mini-batch vs. whole-graph, name channel vs. structure channel)
// are what the paper's tables demonstrate, and those ratios are preserved.
#ifndef LARGEEA_COMMON_MEMORY_TRACKER_H_
#define LARGEEA_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace largeea {

/// A closed named phase: the peak tracked working set while it was open,
/// plus its wall-clock duration. Phases nest and overlap freely — each
/// one tracks its own peak independently of ResetPeak() and of other
/// phases, so a "dag/<node>" span and the enclosing "pipeline" both
/// report correct peaks.
struct MemoryPhase {
  std::string name;
  int64_t start_bytes = 0;  ///< live tracked bytes when the phase opened
  int64_t peak_bytes = 0;   ///< max live tracked bytes while open
  double seconds = 0.0;     ///< wall-clock duration of the phase
};

/// Process-wide tracker of bytes in registered large buffers.
/// All methods are thread-safe.
class MemoryTracker {
 public:
  /// Returns the singleton tracker.
  static MemoryTracker& Get();

  /// Records that `bytes` of tracked memory were allocated.
  void Add(int64_t bytes);

  /// Records that `bytes` of tracked memory were released.
  void Remove(int64_t bytes);

  /// Currently-live tracked bytes.
  int64_t CurrentBytes() const { return current_.load(); }

  /// Highest value CurrentBytes() has reached since the last ResetPeak().
  int64_t PeakBytes() const { return peak_.load(); }

  /// Sets the peak to the current live amount (start of a measured phase).
  void ResetPeak();

  /// Opens a named phase and returns its handle. Prefer obs::Span with
  /// kTrackMemory over calling this directly.
  int32_t BeginPhase(std::string name);

  /// Closes the phase and returns its record; the tracker keeps no
  /// history. Each handle may be ended once.
  MemoryPhase EndPhase(int32_t handle);

 private:
  MemoryTracker() = default;

  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};

  struct ActivePhase {
    std::string name;
    int64_t start_bytes = 0;
    int64_t peak_bytes = 0;
    std::chrono::steady_clock::time_point start;
    bool open = false;
  };
  /// Open-phase count mirrored outside the mutex so Add() can skip the
  /// lock entirely when no phase is active.
  std::atomic<int32_t> open_phases_{0};
  std::mutex phase_mu_;
  std::vector<ActivePhase> active_;  // indexed by handle
};

/// RAII registration of an externally-owned buffer with the tracker.
/// Move-only; the moved-from object stops tracking.
class TrackedAllocation {
 public:
  TrackedAllocation() = default;
  explicit TrackedAllocation(int64_t bytes);
  ~TrackedAllocation();

  TrackedAllocation(TrackedAllocation&& other) noexcept;
  TrackedAllocation& operator=(TrackedAllocation&& other) noexcept;
  TrackedAllocation(const TrackedAllocation&) = delete;
  TrackedAllocation& operator=(const TrackedAllocation&) = delete;

  /// Changes the registered size to `bytes` (e.g. after a resize).
  void Resize(int64_t bytes);

  int64_t bytes() const { return bytes_; }

 private:
  int64_t bytes_ = 0;
};

}  // namespace largeea

#endif  // LARGEEA_COMMON_MEMORY_TRACKER_H_
