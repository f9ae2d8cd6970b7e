#include "src/stream/tile_store.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <unistd.h>

#include <filesystem>
#include <string_view>
#include <utility>

#include "src/common/macros.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/rt/artifact.h"
#include "src/rt/binary_io.h"
#include "src/rt/fault_injection.h"

namespace largeea::stream {

namespace {

/// The container kind of a tile's payload: its shape (rows, cols as
/// i64), then rows * cols floats, row-major.
constexpr std::string_view kTileKind = "dense";

std::string UniqueSpillDir() {
  static std::atomic<int64_t> counter{0};
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = ".";
  char name[64];
  std::snprintf(name, sizeof(name), "largeea-tiles-%d-%" PRId64,
                static_cast<int>(::getpid()),
                counter.fetch_add(1));
  return (base / name).string();
}

}  // namespace

TileStore::TileStore(const MemoryBudget& budget, std::string spill_dir)
    : budget_(budget), spill_dir_(std::move(spill_dir)) {
  if (spill_dir_.empty()) {
    spill_dir_ = UniqueSpillDir();
    owns_dir_ = true;
  }
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  // A failing mkdir surfaces as per-tile spill failures (tiles then stay
  // pinned in RAM), so it is not fatal here.
}

TileStore::~TileStore() {
  (void)prefetcher_.Drain();
  std::error_code ec;
  for (const Tile& tile : tiles_) {
    if (tile.on_disk) std::filesystem::remove(tile.path, ec);
  }
  if (owns_dir_) std::filesystem::remove(spill_dir_, ec);
}

TileId TileStore::Put(Matrix tile) {
  TileId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<TileId>(tiles_.size());
    tiles_.emplace_back();
  }
  char file[32];
  std::snprintf(file, sizeof(file), "tile-%06" PRId64 ".bin", id);
  const std::string path =
      (std::filesystem::path(spill_dir_) / file).string();

  obs::Span span("stream/spill");
  span.AddAttr("tile", id);
  // Tile IO bytes are the actual file size (header + payload), so a
  // profile's stream.tile_write GB/s is real disk write throughput.
  obs::ProfileScope prof("stream.tile_write");
  rt::BinaryWriter w;
  w.I64(tile.rows());
  w.I64(tile.cols());
  w.Raw(tile.data(), static_cast<size_t>(tile.size()));
  int64_t file_bytes = 0;
  // The named fault point simulates a full scratch disk: a failed spill
  // write leaves the tile pinned in RAM (on_disk=false below), which
  // breaks the budget but never the results.
  const Status write_status = [&]() -> Status {
    LARGEEA_INJECT_FAULT("stream.spill.write");
    return rt::WriteArtifact(path, rt::kTileFamily, kTileKind,
                             /*fingerprint=*/0, w.bytes(), &file_bytes);
  }();
  prof.AddBytes(tile.size() * static_cast<int64_t>(sizeof(float)),
                file_bytes);
  span.End();

  auto& metrics = obs::MetricsRegistry::Get();
  const int64_t bytes = tile.size() * static_cast<int64_t>(sizeof(float));

  std::lock_guard<std::mutex> lock(mu_);
  Tile& t = tiles_[id];
  t.path = path;
  t.rows = tile.rows();
  t.cols = tile.cols();
  t.resident = std::make_shared<const Matrix>(std::move(tile));
  t.on_disk = write_status.ok();
  t.lru = ++lru_clock_;
  resident_bytes_ += bytes;
  if (bytes > max_tile_bytes_) max_tile_bytes_ = bytes;
  if (t.on_disk) {
    metrics.GetCounter("stream.spill.tiles").Increment();
    metrics.GetCounter("stream.spill.bytes").Add(file_bytes);
  } else {
    metrics.GetCounter("stream.spill_failures").Increment();
  }
  EvictLocked();
  return id;
}

std::shared_ptr<const Matrix> TileStore::Get(TileId id) {
  return Load(id, /*prefetch=*/false);
}

std::shared_ptr<const Matrix> TileStore::Load(TileId id, bool prefetch) {
  std::unique_lock<std::mutex> lock(mu_);
  LARGEEA_CHECK_GE(id, 0);
  LARGEEA_CHECK_LT(id, static_cast<TileId>(tiles_.size()));
  Tile& t = tiles_[id];
  // A consumer that asks first makes a queued prefetch stale.
  if (prefetch && !t.queued) return nullptr;
  t.queued = false;
  auto& metrics = obs::MetricsRegistry::Get();
  while (true) {
    if (t.resident) {
      metrics.GetCounter("stream.cache.hits").Increment();
      t.lru = ++lru_clock_;
      return t.resident;
    }
    if (!t.loading) break;
    // Another thread (usually the prefetcher) is reading this tile;
    // piggy-back on its load instead of issuing a second read.
    load_cv_.wait(lock);
  }
  metrics.GetCounter("stream.cache.misses").Increment();
  t.loading = true;
  lock.unlock();

  obs::Span span("stream/load");
  span.AddAttr("tile", id);
  auto loaded = std::make_shared<const Matrix>(LoadTileFile(t));
  metrics.GetHistogram("stream.load_ms").Observe(span.End() * 1e3);

  const int64_t bytes = loaded->size() * static_cast<int64_t>(sizeof(float));
  lock.lock();
  t.loading = false;
  t.resident = loaded;
  t.lru = ++lru_clock_;
  resident_bytes_ += bytes;
  EvictLocked();
  load_cv_.notify_all();
  return loaded;
}

void TileStore::Prefetch(TileId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    LARGEEA_CHECK_GE(id, 0);
    LARGEEA_CHECK_LT(id, static_cast<TileId>(tiles_.size()));
    Tile& t = tiles_[id];
    if (t.resident || t.loading || t.queued || !t.on_disk) return;
    t.queued = true;
  }
  obs::MetricsRegistry::Get().GetCounter("stream.prefetch.issued").Increment();
  // The loaded tile lands in the cache; the value is dropped here and
  // picked up by the consumer's Get(), which counts as a hit.
  const Status submitted =
      prefetcher_.Submit([this, id] { (void)Load(id, /*prefetch=*/true); });
  if (!submitted.ok()) {
    // A failed earlier prefetch costs its cache miss; nothing to do but
    // make the loss visible.
    LARGEEA_LOG_WARN("stream: %s", submitted.ToString().c_str());
  }
}

void TileStore::DrainPrefetches() {
  const Status drained = prefetcher_.Drain();
  if (!drained.ok()) {
    LARGEEA_LOG_WARN("stream: %s", drained.ToString().c_str());
  }
}

int64_t TileStore::num_tiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(tiles_.size());
}

int64_t TileStore::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void TileStore::EvictLocked() {
  const int64_t capacity = budget_.CacheCapacityBytes(max_tile_bytes_);
  auto& evictions = obs::MetricsRegistry::Get().GetCounter("stream.cache.evictions");
  while (resident_bytes_ > capacity) {
    Tile* victim = nullptr;
    for (Tile& t : tiles_) {
      // Only unpinned on-disk tiles are evictable; a use_count above 1
      // means a caller still holds the pin from Get().
      if (!t.resident || !t.on_disk || t.resident.use_count() > 1) continue;
      if (victim == nullptr || t.lru < victim->lru) victim = &t;
    }
    if (victim == nullptr) return;  // everything resident is pinned
    resident_bytes_ -=
        victim->resident->size() * static_cast<int64_t>(sizeof(float));
    victim->resident.reset();
    evictions.Increment();
  }
}

StatusOr<Matrix> ReadTileFile(const std::string& path, int64_t rows,
                              int64_t cols) {
  LARGEEA_ASSIGN_OR_RETURN(
      const rt::Artifact file,
      rt::ReadArtifact(path, rt::kTileFamily, kTileKind, /*fingerprint=*/0));
  rt::BinaryReader r(file.payload());
  int64_t stored_rows = 0, stored_cols = 0;
  LARGEEA_RETURN_IF_ERROR(r.I64(&stored_rows));
  LARGEEA_RETURN_IF_ERROR(r.I64(&stored_cols));
  if (stored_rows != rows || stored_cols != cols ||
      r.remaining() != static_cast<size_t>(rows * cols) * sizeof(float)) {
    return DataLossError("'" + path + "': tile of " +
                         std::to_string(stored_rows) + " x " +
                         std::to_string(stored_cols) + " in " +
                         std::to_string(r.remaining()) +
                         " payload bytes, expected " + std::to_string(rows) +
                         " x " + std::to_string(cols));
  }
  Matrix m(rows, cols);
  LARGEEA_RETURN_IF_ERROR(r.Raw(m.data(), static_cast<size_t>(m.size())));
  return m;
}

Matrix TileStore::LoadTileFile(const Tile& tile) const {
  obs::ProfileScope prof("stream.tile_read");
  StatusOr<Matrix> m = ReadTileFile(tile.path, tile.rows, tile.cols);
  if (!m.ok()) {
    std::fprintf(stderr, "stream: cannot reload tile %s: %s\n",
                 tile.path.c_str(), m.status().ToString().c_str());
    LARGEEA_CHECK(m.ok());
  }
  const int64_t bytes = m->size() * static_cast<int64_t>(sizeof(float));
  prof.AddBytes(bytes, bytes);
  return std::move(m).value();
}

TileMatrix::TileMatrix(TileStore* store, int64_t rows, int64_t cols,
                       int64_t tile_rows)
    : store_(store), rows_(rows), cols_(cols), tile_rows_(tile_rows) {
  LARGEEA_CHECK(store != nullptr);
  LARGEEA_CHECK_GE(rows, 0);
  LARGEEA_CHECK_GE(cols, 0);
  LARGEEA_CHECK_GT(tile_rows, 0);
  ids_.reserve(static_cast<size_t>(num_tiles()));
}

void TileMatrix::Append(Matrix tile) {
  const int64_t t = static_cast<int64_t>(ids_.size());
  LARGEEA_CHECK_LT(t, num_tiles());
  LARGEEA_CHECK_EQ(tile.rows(), TileEnd(t) - TileBegin(t));
  LARGEEA_CHECK_EQ(tile.cols(), cols_);
  ids_.push_back(store_->Put(std::move(tile)));
}

std::shared_ptr<const Matrix> TileMatrix::Tile(int64_t t) const {
  LARGEEA_CHECK_GE(t, 0);
  LARGEEA_CHECK_LT(t, static_cast<int64_t>(ids_.size()));
  return store_->Get(ids_[t]);
}

void TileMatrix::Prefetch(int64_t t) const {
  if (t < 0 || t >= static_cast<int64_t>(ids_.size())) return;
  store_->Prefetch(ids_[t]);
}

}  // namespace largeea::stream
