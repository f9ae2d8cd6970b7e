// Per-run handle bundling the streaming layer's pieces.
//
// RunLargeEa creates one StreamContext when the resolved memory budget
// is positive and threads it (as a nullable pointer) through the phases
// that know how to stream — semantic top-k, NFF fusion, final fusion. A
// null context means "run in memory", so call sites stay byte-for-byte
// on the historical path when streaming is off.
#ifndef LARGEEA_STREAM_STREAM_CONTEXT_H_
#define LARGEEA_STREAM_STREAM_CONTEXT_H_

#include "src/stream/memory_budget.h"
#include "src/stream/stream_options.h"

namespace largeea::stream {

/// Owns the options and the budget of one pipeline run. The options must
/// already be resolved (ResolveStreamOptions) and enabled.
class StreamContext {
 public:
  explicit StreamContext(const StreamOptions& resolved)
      : options_(resolved), budget_(resolved) {}

  const StreamOptions& options() const { return options_; }
  const MemoryBudget& budget() const { return budget_; }

 private:
  StreamOptions options_;
  MemoryBudget budget_;
};

}  // namespace largeea::stream

#endif  // LARGEEA_STREAM_STREAM_CONTEXT_H_
