// Single-threaded FIFO task executor for background I/O.
//
// The fork-join ThreadPool (thread_pool.h) is the wrong shape for work
// that should overlap with the caller — Run() blocks until every task
// finishes. BackgroundWorker is the complementary primitive: Submit()
// enqueues a closure and returns immediately; one dedicated worker
// thread drains the queue in submission order. The streaming layer uses
// it to prefetch spilled tiles while the compute thread is busy with
// the current block (src/stream/tile_store.h).
//
// Determinism: background tasks must only affect *where* data lives
// (cache warmth), never *what* is computed — the same contract the rest
// of src/par/ keeps (DESIGN.md §8). Nothing here hands results back to
// the caller; tasks communicate only through their own synchronised
// sinks.
#ifndef LARGEEA_PAR_BACKGROUND_WORKER_H_
#define LARGEEA_PAR_BACKGROUND_WORKER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "src/rt/status.h"

namespace largeea::par {

/// One background thread draining a FIFO closure queue. All methods are
/// thread-safe. The destructor drains the queue, then joins.
///
/// Error contract: a task that throws does NOT terminate the process
/// (the historical behaviour — an escaped exception on a std::thread is
/// std::terminate). The first exception is captured on the worker thread
/// and surfaced as an INTERNAL Status from the next Submit()/Drain()
/// call; later tasks keep running, because background work is
/// best-effort cache warming whose loss must degrade, not kill,
/// the run (DESIGN.md §8).
class BackgroundWorker {
 public:
  /// `thread_name` labels the worker in Chrome trace exports.
  explicit BackgroundWorker(std::string thread_name);

  /// Drains outstanding tasks, then joins the worker. A still-unreported
  /// task failure is logged here, never thrown.
  ~BackgroundWorker();

  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  /// Enqueues `task` and returns immediately. The worker thread is
  /// started lazily on the first submission, so an idle worker (e.g.
  /// the prefetcher of a store nothing reloads from) costs nothing. Returns (and clears) the first
  /// captured failure of a *previous* task; the new task is enqueued
  /// either way.
  Status Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. Returns
  /// (and clears) the first captured task failure, if any.
  Status Drain();

  /// Tasks submitted over the worker's lifetime (test/metrics hook).
  int64_t submitted() const;

 private:
  void Loop();

  /// Must hold mu_. Returns and clears the pending task failure.
  Status TakeErrorLocked();

  std::string thread_name_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< wakes the worker for new tasks
  std::condition_variable idle_cv_;  ///< wakes Drain() when queue empties
  std::deque<std::function<void()>> queue_;
  std::thread worker_;
  bool started_ = false;
  bool stopping_ = false;
  bool busy_ = false;  ///< a task is executing (queue may be empty)
  int64_t submitted_ = 0;
  std::string task_error_;  ///< first captured failure; empty = none
  bool has_task_error_ = false;
};

}  // namespace largeea::par

#endif  // LARGEEA_PAR_BACKGROUND_WORKER_H_
