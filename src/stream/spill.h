// One dense matrix spilled to disk once and mapped back read-only: the
// mechanism behind `--memory-budget-mb` (DESIGN.md §10).
//
// A spill file is a `largeea-tile` artifact of kind "dense"
// (src/rt/artifact.h) whose payload is the shape (rows, cols as i64) and
// then rows * cols little-endian IEEE-754 floats, row-major. Its rows are
// written in chunks as they are produced, so the whole matrix never sits
// in tracked memory, and hashed as they are written. The checksum is
// verified by a streaming read before the file is mapped, so no row is
// read unverified; from then on the operating system's page cache holds
// the rows. Mapped pages count towards the process's RSS but not towards
// the MemoryTracker's bytes, which is what the budget bounds.
//
// Determinism: the mapping holds exactly the bytes that were written, so
// a search over it equals the same search over the rows in memory.
#ifndef LARGEEA_STREAM_SPILL_H_
#define LARGEEA_STREAM_SPILL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/la/matrix.h"
#include "src/rt/artifact.h"
#include "src/rt/status.h"

namespace largeea::stream {

/// Produces rows [begin, end) of the matrix being spilled.
using RowChunkFn = std::function<Matrix(int64_t begin, int64_t end)>;

/// Writes a `rows` x `cols` matrix to a spill file at `path`, asking
/// `chunk` for `chunk_rows` rows at a time (the last chunk may be
/// shorter), and the file's size to `bytes_written` when given. A failed
/// write, the `stream.spill.write` fault point (hit once per chunk)
/// included, is returned and leaves no file behind.
Status WriteSpill(const std::string& path, int64_t rows, int64_t cols,
                  int64_t chunk_rows, const RowChunkFn& chunk,
                  int64_t* bytes_written = nullptr);

/// A verified spill file, mapped read-only; unmapped when the object dies.
class SpilledMatrix {
 public:
  /// The spilled rows, in the mapping.
  MatrixRowRange rows() const;

 private:
  friend StatusOr<SpilledMatrix> MapSpill(const std::string& path,
                                          int64_t rows, int64_t cols);
  SpilledMatrix(rt::MappedArtifact file, int64_t rows, int64_t cols)
      : file_(std::move(file)), rows_(rows), cols_(cols) {}

  rt::MappedArtifact file_;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
};

/// Verifies `path` as the spill of a `rows` x `cols` matrix (the checksum
/// first, then the shape and the payload's length) and maps it. DATA_LOSS
/// on any damage, NOT_FOUND if the file is gone.
StatusOr<SpilledMatrix> MapSpill(const std::string& path, int64_t rows,
                                 int64_t cols);

/// Writes the matrix as WriteSpill does, to a file of its own in `dir`
/// (created if missing; empty means the system temp directory), maps it
/// and removes the file: the mapping keeps
/// its pages, and nothing is left in `dir`. Counts the chunks and the
/// file's bytes in stream.spill.tiles and stream.spill.bytes. A failed
/// write is counted in stream.spill_failures and returned; the caller
/// keeps the matrix in memory instead. A written file that then fails
/// verification aborts the process: its rows can no longer be trusted,
/// and a deterministic run must not answer from them.
StatusOr<SpilledMatrix> SpillMatrix(const std::string& dir, int64_t rows,
                                    int64_t cols, int64_t chunk_rows,
                                    const RowChunkFn& chunk);

}  // namespace largeea::stream

#endif  // LARGEEA_STREAM_SPILL_H_
