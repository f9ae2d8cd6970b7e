#include "src/common/memory_tracker.h"

#include <algorithm>
#include <utility>

#include "src/common/macros.h"

namespace largeea {

MemoryTracker& MemoryTracker::Get() {
  // Function-local static pointer: trivially-destructible global per the
  // style guide's static-storage rules.
  static MemoryTracker* const tracker = new MemoryTracker();
  return *tracker;
}

void MemoryTracker::Add(int64_t bytes) {
  const int64_t now = current_.fetch_add(bytes) + bytes;
  // Lock-free peak update.
  int64_t prev_peak = peak_.load();
  while (now > prev_peak && !peak_.compare_exchange_weak(prev_peak, now)) {
  }
  // Per-phase peaks. Registration events are rare (one per large buffer,
  // not per element), so a mutex here is cheap; the atomic pre-check
  // keeps the common no-phase case lock-free.
  if (open_phases_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(phase_mu_);
    for (ActivePhase& phase : active_) {
      if (phase.open) phase.peak_bytes = std::max(phase.peak_bytes, now);
    }
  }
}

void MemoryTracker::Remove(int64_t bytes) { current_.fetch_sub(bytes); }

void MemoryTracker::ResetPeak() { peak_.store(current_.load()); }

int32_t MemoryTracker::BeginPhase(std::string name) {
  const int64_t now = current_.load();
  std::lock_guard<std::mutex> lock(phase_mu_);
  ActivePhase phase;
  phase.name = std::move(name);
  phase.start_bytes = now;
  phase.peak_bytes = now;
  phase.start = std::chrono::steady_clock::now();
  phase.open = true;
  active_.push_back(std::move(phase));
  open_phases_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int32_t>(active_.size() - 1);
}

MemoryPhase MemoryTracker::EndPhase(int32_t handle) {
  std::lock_guard<std::mutex> lock(phase_mu_);
  LARGEEA_CHECK_GE(handle, 0);
  LARGEEA_CHECK_LT(static_cast<size_t>(handle), active_.size());
  ActivePhase& phase = active_[handle];
  LARGEEA_CHECK(phase.open);
  phase.open = false;
  open_phases_.fetch_sub(1, std::memory_order_relaxed);
  MemoryPhase record;
  record.name = phase.name;
  record.start_bytes = phase.start_bytes;
  // The peak may have moved since the last Add() if buffers were only
  // released; current never exceeds the tracked peak, so no max needed.
  record.peak_bytes = phase.peak_bytes;
  record.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - phase.start)
                       .count();
  // Compact fully-drained tail so handles stay small across many runs.
  while (!active_.empty() && !active_.back().open) active_.pop_back();
  return record;
}

TrackedAllocation::TrackedAllocation(int64_t bytes) : bytes_(bytes) {
  MemoryTracker::Get().Add(bytes_);
}

TrackedAllocation::~TrackedAllocation() {
  if (bytes_ != 0) MemoryTracker::Get().Remove(bytes_);
}

TrackedAllocation::TrackedAllocation(TrackedAllocation&& other) noexcept
    : bytes_(other.bytes_) {
  other.bytes_ = 0;
}

TrackedAllocation& TrackedAllocation::operator=(
    TrackedAllocation&& other) noexcept {
  if (this != &other) {
    if (bytes_ != 0) MemoryTracker::Get().Remove(bytes_);
    bytes_ = other.bytes_;
    other.bytes_ = 0;
  }
  return *this;
}

void TrackedAllocation::Resize(int64_t bytes) {
  MemoryTracker::Get().Add(bytes - bytes_);
  bytes_ = bytes;
}

}  // namespace largeea
