// The stdin/stdout serving loop behind `largeea_cli serve` (DESIGN.md
// §15).
//
// Protocol: line-delimited flat JSON objects, one request per line, one
// response line per request, responses in input order.
//
//   {"op":"query","entity":12,"k":5}
//   {"op":"query","name":"alan turing","k":5}
//   {"op":"query","name":"alan turing","exact":true}
//   {"op":"swap","index":"path/to/index.lea"}
//   {"op":"stats"}
//   {"op":"quit"}
//
// Query responses:
//   {"ok":true,"version":1,"fingerprint":"<hex16>",
//    "candidates":[{"target":7,"name":"...","score":0.91},...]}
// Failures carry the status: {"ok":false,"code":"...","error":"..."}.
// A request line longer than kMaxRequestBytes is answered with
// INVALID_ARGUMENT; the loop skips to the next newline and keeps serving.
//
// Execution model: the loop reads greedily while input is already
// buffered (up to `batch_size` lines), then executes the batch on the
// worker pool (par::ParallelFor) — queries against one IndexManager
// snapshot each — and emits responses in input order. Control ops
// (swap/stats/quit) act as barriers: the pending batch drains first, so
// "all queries before the swap line see the old version, all after see
// the new one" holds exactly.
//
// Shutdown: on EOF, `quit`, or `*stop` becoming non-zero (the CLI's
// SIGTERM/SIGINT handler sets it; the handler is installed without
// SA_RESTART so a blocking read wakes with EINTR), the loop drains the
// pending batch, emits its responses, and returns its stats — no
// accepted query is dropped.
#ifndef LARGEEA_SERVE_SERVE_LOOP_H_
#define LARGEEA_SERVE_SERVE_LOOP_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "src/rt/status.h"
#include "src/serve/query_engine.h"

namespace largeea::serve {

/// The longest request line the loop reads; the rest of a longer one is
/// skipped unread into memory.
inline constexpr size_t kMaxRequestBytes = size_t{64} << 10;

/// Parses one flat (non-nested) JSON object into key -> decoded value.
/// String values are unescaped; numbers/booleans keep their literal
/// spelling. Nested objects/arrays and malformed input are
/// kInvalidArgument. Exposed for the protocol tests.
StatusOr<std::map<std::string, std::string>> ParseFlatObject(
    std::string_view line);

struct ServeLoopOptions {
  /// Max requests executed per ParallelFor batch. The loop only batches
  /// input that is already buffered; a lone request never waits.
  int32_t batch_size = 64;
  /// k used when a query line omits "k".
  int32_t default_k = 10;
};

/// What the loop did, for the run report's serve section.
struct ServeLoopStats {
  int64_t queries = 0;         ///< query ops executed (ok or failed)
  int64_t failed = 0;          ///< responses with ok:false (any op)
  int64_t swaps = 0;           ///< successful swap ops
  int64_t batches = 0;         ///< ParallelFor batches executed
  bool saw_quit = false;       ///< loop ended via the quit op
  bool saw_stop = false;       ///< loop ended via the stop flag (signal)
};

class ServeLoop {
 public:
  /// Both borrowed; must outlive the loop. The manager is mutated by
  /// swap ops.
  ServeLoop(IndexManager* manager, const ServeLoopOptions& options);

  /// Runs until EOF on `in`, a quit op, or `*stop` becomes non-zero.
  /// Pending requests are drained before returning. `stop` may be null.
  ServeLoopStats Run(std::istream& in, std::ostream& out,
                     const std::atomic<int>* stop = nullptr);

 private:
  IndexManager* manager_;
  QueryEngine engine_;
  ServeLoopOptions options_;
};

}  // namespace largeea::serve

#endif  // LARGEEA_SERVE_SERVE_LOOP_H_
