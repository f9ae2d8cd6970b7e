// Atomic versioned handle to the current serve index.
//
// The serving loop answers queries from many threads while new pipeline
// runs land replacement indexes. The contract:
//   * readers call Current() — a snapshot copy of the shared_ptr — and
//     keep the snapshot for the whole query, so a query is answered
//     entirely by one index version, never a torn mix;
//   * Swap() publishes the next version in one critical section; the
//     previous index stays alive (shared_ptr refcount) until its last
//     in-flight reader drains, then is unmapped on that reader's thread,
//     so a server holds two versions only while a swap is in flight.
//
// The snapshot is guarded by a plain mutex rather than
// std::atomic<std::shared_ptr>: libstdc++ 12's lock-free _Sp_atomic is
// not ThreadSanitizer-annotated (GCC PR 101516), and a TSan-provable
// swap is part of this class's contract (the swap-under-load hammer in
// serve_test.cc runs under TSan). The lock covers only the refcount
// bump — nanoseconds against a query's microseconds — and the query
// itself runs entirely on the immutable snapshot, outside any lock.
#ifndef LARGEEA_SERVE_INDEX_MANAGER_H_
#define LARGEEA_SERVE_INDEX_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/rt/status.h"
#include "src/serve/index_artifact.h"

namespace largeea::serve {

class IndexManager {
 public:
  IndexManager() = default;
  explicit IndexManager(std::shared_ptr<const ServeIndex> initial) {
    if (initial != nullptr) Swap(std::move(initial));
  }

  /// Snapshot of the current index (nullptr before the first Swap).
  /// The caller's shared_ptr keeps the version alive for as long as the
  /// query needs it, across any number of later swaps.
  std::shared_ptr<const ServeIndex> Current() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Publishes `next` as the current index. Returns the replaced index
  /// (nullptr on first install) so the caller can log its fingerprint;
  /// dropping the return value retires it as readers drain.
  std::shared_ptr<const ServeIndex> Swap(
      std::shared_ptr<const ServeIndex> next);

  /// Loads an artifact and publishes it; the current index stays in
  /// place on any load failure. With `expected_fingerprint`, a valid
  /// artifact from the wrong pipeline run is refused (kFailedPrecondition).
  Status LoadAndSwap(const std::string& path,
                     std::optional<uint64_t> expected_fingerprint =
                         std::nullopt);

  /// Number of successful Swap() calls (the serve report's
  /// version_swaps row).
  int64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ServeIndex> current_;
  std::atomic<int64_t> version_{0};
};

}  // namespace largeea::serve

#endif  // LARGEEA_SERVE_INDEX_MANAGER_H_
