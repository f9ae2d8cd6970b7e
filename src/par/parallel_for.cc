#include "src/par/parallel_for.h"

#include <algorithm>

namespace largeea::par {

std::vector<ChunkRange> ComputeChunks(int64_t begin, int64_t end,
                                      int64_t grain) {
  std::vector<ChunkRange> chunks;
  if (begin >= end) return chunks;
  if (grain <= 0) grain = end - begin;
  // (end - begin - 1) / grain + 1 == ceil(range / grain) without the
  // `range + grain - 1` intermediate, which overflows for ranges near
  // INT64_MAX.
  chunks.reserve(static_cast<size_t>((end - begin - 1) / grain + 1));
  int64_t index = 0;
  int64_t b = begin;
  while (b < end) {
    // `end - b > grain` instead of `b + grain < end`: the sum overflows
    // when b is within `grain` of INT64_MAX.
    const int64_t e = end - b > grain ? b + grain : end;
    chunks.push_back(ChunkRange{index++, b, e});
    b = e;
  }
  return chunks;
}

std::vector<ChunkRange> ComputeChunksCapped(int64_t begin, int64_t end,
                                            int64_t grain,
                                            int64_t max_chunks) {
  if (begin >= end) return {};
  const int64_t range = end - begin;
  if (grain <= 0) grain = range;
  if (max_chunks > 0) {
    const int64_t chunks = (range - 1) / grain + 1;
    if (chunks > max_chunks) grain = (range - 1) / max_chunks + 1;
  }
  return ComputeChunks(begin, end, grain);
}

namespace internal {

void RecordLoopProfile(const ThreadPool::JobStats& stats, int64_t chunks,
                       int64_t grain, double merge_seconds) {
  obs::PoolJobProfile job;
  job.kernel = obs::CurrentProfileKernel();
  job.chunks = chunks;
  job.grain = grain;
  job.threads = stats.threads;
  job.wall_seconds = stats.wall_seconds;
  job.busy_seconds = stats.busy_seconds;
  job.max_chunk_seconds = stats.max_task_seconds;
  job.sum_chunk_seconds = stats.sum_task_seconds;
  job.sum_chunk_seconds_sq = stats.task_seconds_sq_sum;
  job.max_worker_seconds = stats.max_worker_seconds;
  job.merge_seconds = merge_seconds;
  obs::Profiler::Get().RecordPoolJob(std::move(job));
}

}  // namespace internal

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(const ChunkRange&)>& body) {
  // Plain loops write only chunk-/element-private state (header
  // contract), so results cannot depend on the chunking — which makes
  // it safe to cap the chunk count relative to the pool size here and
  // cut per-chunk scheduling overhead. Reductions are NEVER capped this
  // way: their merge order is part of the §8 determinism contract.
  constexpr int64_t kChunksPerThread = 16;
  const int64_t max_chunks =
      kChunksPerThread *
      static_cast<int64_t>(std::max(1, ThreadPool::Get().num_threads()));
  const std::vector<ChunkRange> chunks =
      ComputeChunksCapped(begin, end, grain, max_chunks);
  if (chunks.empty()) return;
  const bool profiled = obs::ProfilingEnabled();
  ThreadPool::JobStats stats;
  ThreadPool::Get().Run(
      static_cast<int64_t>(chunks.size()),
      [&](int64_t task) { body(chunks[static_cast<size_t>(task)]); },
      profiled ? &stats : nullptr);
  if (profiled) {
    internal::RecordLoopProfile(stats, static_cast<int64_t>(chunks.size()),
                                chunks[0].end - chunks[0].begin,
                                /*merge_seconds=*/0.0);
  }
}

}  // namespace largeea::par
