// Deterministic data-parallel loops over the process-wide ThreadPool.
//
// ComputeChunks splits an index range into chunks from (begin, end,
// grain) ALONE — the thread count never enters the computation — and
// ParallelReduceOrdered merges per-chunk private state in ascending
// chunk-index order on the calling thread. Together these give the
// library's determinism contract (DESIGN.md §8): identical results, bit
// for bit, at any `--threads N`, because neither chunk boundaries nor
// any floating-point reduction order depend on scheduling.
//
// When the profiler (src/obs/profiler.h) is enabled, every loop records
// one PoolJobProfile — chunk count, grain, worker utilization, chunk
// imbalance, and (for reductions) ordered-merge time — attributed to
// the innermost open ProfileScope. Profiling only observes: chunking
// and merge order are computed identically either way.
#ifndef LARGEEA_PAR_PARALLEL_FOR_H_
#define LARGEEA_PAR_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/obs/profiler.h"
#include "src/par/thread_pool.h"

namespace largeea::par {

/// One contiguous sub-range [begin, end) of a parallel loop.
struct ChunkRange {
  int64_t index = 0;  ///< position in the chunk sequence (merge order)
  int64_t begin = 0;
  int64_t end = 0;
};

/// Splits [begin, end) into consecutive chunks of at most `grain`
/// elements (the last chunk may be shorter). grain <= 0 means one chunk.
/// Depends only on the arguments — never on the thread count.
std::vector<ChunkRange> ComputeChunks(int64_t begin, int64_t end,
                                      int64_t grain);

/// ComputeChunks, but if the requested grain would produce more than
/// `max_chunks` chunks the grain is raised to ceil(range / max_chunks)
/// first. Still a pure function of its arguments; callers that pass a
/// pool-derived cap (ParallelFor does) may only do so for loops whose
/// results are chunking-independent. max_chunks <= 0 means no cap.
std::vector<ChunkRange> ComputeChunksCapped(int64_t begin, int64_t end,
                                            int64_t grain,
                                            int64_t max_chunks);

namespace internal {
/// Folds one profiled loop execution into the Profiler's pool stream,
/// attributed to the innermost open ProfileScope.
void RecordLoopProfile(const ThreadPool::JobStats& stats, int64_t chunks,
                       int64_t grain, double merge_seconds);
}  // namespace internal

/// Runs body(chunk) for every chunk of [begin, end), in parallel on the
/// ThreadPool. The body must only write chunk-private or element-private
/// state (distinct elements of a shared array are fine; shared
/// accumulators are not — use ParallelReduceOrdered for those).
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(const ChunkRange&)>& body);

/// Runs body(chunk, state) with a default-constructed State per chunk in
/// parallel, then merge(chunk, std::move(state)) serially on the calling
/// thread in ascending chunk order. Reduction order is a pure function
/// of the chunking, so results are identical at any thread count.
template <typename State, typename Body, typename Merge>
void ParallelReduceOrdered(int64_t begin, int64_t end, int64_t grain,
                           Body&& body, Merge&& merge) {
  const std::vector<ChunkRange> chunks = ComputeChunks(begin, end, grain);
  if (chunks.empty()) return;
  std::vector<State> states(chunks.size());
  const bool profiled = obs::ProfilingEnabled();
  ThreadPool::JobStats stats;
  ThreadPool::Get().Run(
      static_cast<int64_t>(chunks.size()),
      [&](int64_t task) {
        body(chunks[static_cast<size_t>(task)],
             states[static_cast<size_t>(task)]);
      },
      profiled ? &stats : nullptr);
  // The ordered merge is the serial tail of every reduction; the
  // profiler times it because it bounds the loop's parallel speedup
  // (Amdahl) no matter how well the chunks balance.
  const uint64_t merge_start = profiled ? obs::TscClock::Now() : 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    merge(chunks[i], std::move(states[i]));
  }
  if (profiled) {
    internal::RecordLoopProfile(
        stats, static_cast<int64_t>(chunks.size()),
        grain > 0 ? grain : end - begin,
        obs::TscClock::ToSeconds(obs::TscClock::Now() - merge_start));
  }
}

}  // namespace largeea::par

#endif  // LARGEEA_PAR_PARALLEL_FOR_H_
