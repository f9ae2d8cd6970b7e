#include "src/stream/spill.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/rt/binary_io.h"
#include "src/rt/fault_injection.h"

namespace largeea::stream {

namespace {

/// The container kind of a spill's payload.
constexpr std::string_view kSpillKind = "dense";
/// The shape ahead of the floats: rows and cols as i64.
constexpr size_t kShapeBytes = 2 * sizeof(int64_t);

/// A file name no other spill of this process, or of another one sharing
/// the directory, uses.
std::string UniqueSpillName() {
  static std::atomic<int64_t> counter{0};
  char name[64];
  std::snprintf(name, sizeof(name), "largeea-spill-%d-%" PRId64 ".bin",
                static_cast<int>(::getpid()), counter.fetch_add(1));
  return name;
}

}  // namespace

Status WriteSpill(const std::string& path, int64_t rows, int64_t cols,
                  int64_t chunk_rows, const RowChunkFn& chunk,
                  int64_t* bytes_written) {
  LARGEEA_CHECK_GE(rows, 0);
  LARGEEA_CHECK_GE(cols, 0);
  LARGEEA_CHECK_GT(chunk_rows, 0);
  LARGEEA_ASSIGN_OR_RETURN(
      rt::ArtifactWriter file,
      rt::ArtifactWriter::Create(
          path, rt::kTileFamily, kSpillKind, /*fingerprint=*/0,
          kShapeBytes + static_cast<uint64_t>(rows * cols) * sizeof(float)));
  rt::BinaryWriter shape;
  shape.I64(rows);
  shape.I64(cols);
  LARGEEA_RETURN_IF_ERROR(file.Append(shape.bytes()));
  for (int64_t begin = 0; begin < rows; begin += chunk_rows) {
    // The named fault point simulates a full scratch disk.
    LARGEEA_INJECT_FAULT("stream.spill.write");
    const int64_t end = std::min(begin + chunk_rows, rows);
    const Matrix block = chunk(begin, end);
    LARGEEA_CHECK_EQ(block.rows(), end - begin);
    LARGEEA_CHECK_EQ(block.cols(), cols);
    const std::string_view bytes(reinterpret_cast<const char*>(block.data()),
                                 static_cast<size_t>(block.size()) *
                                     sizeof(float));
    obs::ProfileScope prof("stream.spill_write");
    prof.AddBytes(static_cast<int64_t>(bytes.size()),
                  static_cast<int64_t>(bytes.size()));
    LARGEEA_RETURN_IF_ERROR(file.Append(bytes));
  }
  LARGEEA_ASSIGN_OR_RETURN(const int64_t file_bytes, file.Finish());
  if (bytes_written != nullptr) *bytes_written = file_bytes;
  return OkStatus();
}

MatrixRowRange SpilledMatrix::rows() const {
  return MatrixRowRange(
      reinterpret_cast<const float*>(file_.payload().data() + kShapeBytes),
      rows_, cols_);
}

StatusOr<SpilledMatrix> MapSpill(const std::string& path, int64_t rows,
                                 int64_t cols) {
  obs::ProfileScope prof("stream.spill_verify");
  LARGEEA_ASSIGN_OR_RETURN(
      rt::MappedArtifact file,
      rt::MapArtifact(path, rt::kTileFamily, kSpillKind, /*fingerprint=*/0));
  prof.AddBytes(static_cast<int64_t>(file.payload().size()), 0);
  rt::BinaryReader r(file.payload());
  int64_t stored_rows = 0, stored_cols = 0;
  LARGEEA_RETURN_IF_ERROR(r.I64(&stored_rows));
  LARGEEA_RETURN_IF_ERROR(r.I64(&stored_cols));
  if (stored_rows != rows || stored_cols != cols ||
      r.remaining() != static_cast<size_t>(rows * cols) * sizeof(float)) {
    return DataLossError("'" + path + "': spill of " +
                         std::to_string(stored_rows) + " x " +
                         std::to_string(stored_cols) + " in " +
                         std::to_string(r.remaining()) +
                         " payload bytes, expected " + std::to_string(rows) +
                         " x " + std::to_string(cols));
  }
  return SpilledMatrix(std::move(file), rows, cols);
}

StatusOr<SpilledMatrix> SpillMatrix(const std::string& dir, int64_t rows,
                                    int64_t cols, int64_t chunk_rows,
                                    const RowChunkFn& chunk) {
  namespace fs = std::filesystem;
  obs::Span span("stream/spill");
  span.AddAttr("rows", rows);
  // A directory that cannot be made, or found, fails the write below.
  std::error_code ec;
  const fs::path base =
      dir.empty() ? fs::temp_directory_path(ec) : fs::path(dir);
  fs::create_directories(base, ec);
  const std::string path = (base / UniqueSpillName()).string();
  auto& metrics = obs::MetricsRegistry::Get();
  int64_t file_bytes = 0;
  const Status written =
      WriteSpill(path, rows, cols, chunk_rows, chunk, &file_bytes);
  if (!written.ok()) {
    metrics.GetCounter("stream.spill_failures").Increment();
    return written;
  }
  metrics.GetCounter("stream.spill.tiles")
      .Add((rows + chunk_rows - 1) / chunk_rows);
  metrics.GetCounter("stream.spill.bytes").Add(file_bytes);
  span.AddAttr("bytes", file_bytes);

  StatusOr<SpilledMatrix> mapped = MapSpill(path, rows, cols);
  if (!mapped.ok()) {
    std::fprintf(stderr, "stream: cannot map spill %s: %s\n", path.c_str(),
                 mapped.status().ToString().c_str());
    LARGEEA_CHECK(mapped.ok());
  }
  fs::remove(path, ec);
  return mapped;
}

}  // namespace largeea::stream
