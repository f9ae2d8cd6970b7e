// Disk-backed tile storage with an LRU cache and async prefetch.
//
// The TileStore is the mechanism behind `--memory-budget-mb`: a dense
// matrix too large for the budget is cut into fixed-size row tiles,
// each spilled to disk once (checksummed, atomically written through the
// artifact container of src/rt/) and re-loaded on demand through an
// LRU cache whose capacity follows the live MemoryBudget headroom.
// Sequential consumers overlap I/O with compute by prefetching the next
// tile on a background worker (src/par/background_worker.h).
//
// Determinism: a tile's bytes are written once at Put() and never
// change, so where a tile currently lives (RAM vs disk) cannot affect
// any computed value — the streamed path is bit-identical to the
// in-memory path by construction (DESIGN.md §10).
//
// A tile file is a `largeea-tile` artifact of kind "dense"
// (src/rt/artifact.h) whose payload is the shape (rows, cols as i64)
// and then rows * cols little-endian IEEE-754 floats. Any damage found
// at reload (checksum, truncation, another shape or version) is
// DATA_LOSS and aborts: a silently corrupt tile would poison a
// deterministic run.
#ifndef LARGEEA_STREAM_TILE_STORE_H_
#define LARGEEA_STREAM_TILE_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/la/matrix.h"
#include "src/par/background_worker.h"
#include "src/rt/status.h"
#include "src/stream/memory_budget.h"

namespace largeea::stream {

/// Index of a tile within its TileStore, assigned by Put() in order.
using TileId = int64_t;

/// Reads one spilled tile file and checks it holds a `rows` x `cols`
/// tile. DATA_LOSS on any damage, NOT_FOUND if it is gone. TileStore
/// aborts on any error; the reader returns it so that it can be tested
/// against damaged files.
StatusOr<Matrix> ReadTileFile(const std::string& path, int64_t rows,
                              int64_t cols);

/// Spill/reload store for dense matrix tiles. All methods are
/// thread-safe; Get() may be called concurrently with Put() and with
/// the background prefetcher.
class TileStore {
 public:
  /// `spill_dir` empty creates a unique "largeea-tiles-*" directory
  /// under the system temp path, removed (with all tiles) at
  /// destruction. A caller-provided directory is created if missing but
  /// only the tile files themselves are removed.
  explicit TileStore(const MemoryBudget& budget, std::string spill_dir = "");

  /// Drains the prefetcher and deletes the spilled tile files.
  ~TileStore();

  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  /// Spills `tile` to disk and registers it, returning its id. The tile
  /// stays resident in the cache (subject to eviction). If the spill
  /// write fails the tile is pinned in RAM instead — the pipeline
  /// degrades to the in-memory footprint rather than losing data
  /// (counted as stream.spill_failures).
  TileId Put(Matrix tile);

  /// Returns the tile, loading it from disk if evicted. The returned
  /// pointer pins the tile: the cache never evicts a tile a caller
  /// still holds.
  std::shared_ptr<const Matrix> Get(TileId id);

  /// Starts loading the tile on the background worker if it is on disk
  /// and not already resident, loading or queued. Never blocks. A queued
  /// load is dropped if a Get() of the tile comes first, so a worker
  /// that lags behind its consumer never reloads a tile already used.
  void Prefetch(TileId id);

  /// Blocks until outstanding prefetches finish (test hook).
  void DrainPrefetches();

  int64_t num_tiles() const;
  /// Bytes of tile payload currently resident in the cache.
  int64_t ResidentBytes() const;
  const std::string& spill_dir() const { return spill_dir_; }
  const MemoryBudget& budget() const { return budget_; }

 private:
  struct Tile {
    std::string path;
    int64_t rows = 0;
    int64_t cols = 0;
    std::shared_ptr<const Matrix> resident;
    bool on_disk = false;  ///< spill succeeded; tile may be evicted
    bool loading = false;  ///< a thread is reading it from disk
    bool queued = false;   ///< a Prefetch() load waits on the worker
    int64_t lru = 0;       ///< last-touch stamp from lru_clock_
  };

  /// Get(), or with `prefetch` the worker's queued load, which returns
  /// null without loading if a Get() has claimed the tile since.
  std::shared_ptr<const Matrix> Load(TileId id, bool prefetch);

  /// Evicts least-recently-used unpinned on-disk tiles until resident
  /// bytes fit CacheCapacityBytes(). Requires mu_ held.
  void EvictLocked();

  /// Reads and verifies one tile file. Aborts on corruption.
  Matrix LoadTileFile(const Tile& tile) const;

  const MemoryBudget budget_;
  std::string spill_dir_;
  bool owns_dir_ = false;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;  ///< signalled when a load finishes
  // deque: Put() must not invalidate Tile references that Get() holds
  // across the load (done outside the lock).
  std::deque<Tile> tiles_;
  int64_t lru_clock_ = 0;
  int64_t resident_bytes_ = 0;
  int64_t max_tile_bytes_ = 0;

  par::BackgroundWorker prefetcher_{"stream/prefetch"};
};

/// A logical `rows` x `cols` matrix stored as consecutive row tiles in
/// a TileStore. Tiles are appended in row order; all tiles span
/// `tile_rows` rows except possibly the last. Not thread-safe during
/// Append; read access (Tile/Prefetch) is as thread-safe as the store.
class TileMatrix {
 public:
  TileMatrix() = default;
  TileMatrix(TileStore* store, int64_t rows, int64_t cols, int64_t tile_rows);

  /// Spills the next tile. Must cover rows [TileBegin(n), TileEnd(n))
  /// for the current tile count n — enforced by shape checks.
  void Append(Matrix tile);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t tile_rows() const { return tile_rows_; }
  int64_t num_tiles() const {
    return rows_ == 0 ? 0 : (rows_ + tile_rows_ - 1) / tile_rows_;
  }
  /// True once every tile has been appended.
  bool complete() const {
    return static_cast<int64_t>(ids_.size()) == num_tiles();
  }

  int64_t TileBegin(int64_t t) const { return t * tile_rows_; }
  int64_t TileEnd(int64_t t) const {
    const int64_t end = (t + 1) * tile_rows_;
    return end < rows_ ? end : rows_;
  }

  /// Pins and returns tile `t`.
  std::shared_ptr<const Matrix> Tile(int64_t t) const;
  /// Hints that tile `t` is needed soon (no-op out of range).
  void Prefetch(int64_t t) const;

 private:
  TileStore* store_ = nullptr;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t tile_rows_ = 1;
  std::vector<TileId> ids_;
};

}  // namespace largeea::stream

#endif  // LARGEEA_STREAM_TILE_STORE_H_
