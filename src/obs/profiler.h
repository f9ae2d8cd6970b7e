// Low-overhead scoped kernel profiler (DESIGN.md §11).
//
// Spans (src/obs/trace.h) answer "where does wall-clock go"; the
// profiler answers "why": per-thread, per-kernel timing on an
// rdtsc-class clock plus caller-declared byte/flop counts, from which
// the report derives GB/s and arithmetic intensity — so a kernel that
// stops scaling because it is memory-bandwidth-bound is identifiable
// from the run report alone. The par/ layer feeds a second stream of
// records: one PoolJobProfile per ParallelFor/ParallelReduceOrdered
// with chunk count, grain, per-chunk time spread (imbalance), worker
// utilization, and ordered-merge serialisation time.
//
// Everything is off by default. A disabled ProfileScope costs one
// relaxed atomic load and a branch (checked by profiler_test.cc), and
// profiling never changes chunking, merge order, or any arithmetic —
// the determinism contract (DESIGN.md §8) is unaffected, which
// profiler_test.cc proves by hashing kernel outputs with profiling
// on and off.
#ifndef LARGEEA_OBS_PROFILER_H_
#define LARGEEA_OBS_PROFILER_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace largeea::obs {

class JsonWriter;

/// Serialising clock for kernel timing: raw rdtsc ticks on x86_64
/// (invariant-TSC on every CPU this library targets), steady_clock
/// nanoseconds elsewhere. Ticks are converted to seconds through a
/// one-time calibration against steady_clock.
class TscClock {
 public:
  /// Current tick count. Monotonic; frequency is constant but
  /// machine-dependent — compare only through ToSeconds().
  static uint64_t Now();

  /// Calibrated tick frequency (ticks per second).
  static double TicksPerSecond();

  /// Seconds spanned by `ticks`.
  static double ToSeconds(uint64_t ticks) {
    return static_cast<double>(ticks) / TicksPerSecond();
  }
};

/// Aggregate of every ProfileScope sharing a kernel name (optionally per
/// thread). Byte and flop counts are the caller's declarations, not
/// hardware counters: they describe the logical traffic of the kernel's
/// algorithm, which is exactly what roofline reasoning needs.
struct KernelProfile {
  std::string kernel;
  int32_t thread_id = -1;  ///< -1 in cross-thread totals
  int64_t calls = 0;
  double seconds = 0.0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t flops = 0;

  double TotalBytes() const {
    return static_cast<double>(bytes_read + bytes_written);
  }
  /// Declared traffic over measured time, in GB/s (1e9 bytes).
  double GBPerSec() const {
    return seconds > 0.0 ? TotalBytes() / seconds * 1e-9 : 0.0;
  }
  /// Flops per byte of declared traffic (roofline x-axis).
  double ArithmeticIntensity() const {
    const double bytes = TotalBytes();
    return bytes > 0.0 ? static_cast<double>(flops) / bytes : 0.0;
  }
};

/// One profiled pool job (a ParallelFor / ParallelReduceOrdered
/// execution), attributed to the innermost open ProfileScope.
struct PoolJobProfile {
  std::string kernel;        ///< "" when no scope was open
  int64_t chunks = 0;        ///< tasks handed to the pool
  int64_t grain = 0;         ///< elements per chunk (loop's grain)
  int32_t threads = 0;       ///< configured pool width for the job
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;       ///< task execution, summed over workers
  double max_chunk_seconds = 0.0;  ///< slowest single chunk
  double sum_chunk_seconds = 0.0;
  double sum_chunk_seconds_sq = 0.0;  ///< sum of squared chunk times
  double max_worker_seconds = 0.0;    ///< busiest worker's task total
  double merge_seconds = 0.0;  ///< ordered-merge time (reduce loops only)

  /// busy / (wall * threads): 1.0 = every worker busy the whole job.
  double Utilization() const {
    const double capacity = wall_seconds * threads;
    return capacity > 0.0 ? busy_seconds / capacity : 0.0;
  }
  /// Scheduling imbalance: busiest worker / (total work / threads).
  /// 1.0 = the work spread evenly over the pool — including at
  /// threads=1, where one worker doing everything is the only option,
  /// not imbalance. Chunk-size variance is ChunkCov(), a property of
  /// the chunking rather than the schedule.
  double ImbalanceRatio() const {
    if (threads <= 0 || sum_chunk_seconds <= 0.0) return 1.0;
    const double fair_share =
        sum_chunk_seconds / static_cast<double>(threads);
    return fair_share > 0.0 ? max_worker_seconds / fair_share : 1.0;
  }
  /// Coefficient of variation (stddev / mean) of per-chunk times:
  /// 0 = equal-cost chunks. High values mean the grain carved the range
  /// into uneven work, whoever ran it.
  double ChunkCov() const {
    if (chunks <= 0 || sum_chunk_seconds <= 0.0) return 0.0;
    const double n = static_cast<double>(chunks);
    const double mean = sum_chunk_seconds / n;
    const double var = sum_chunk_seconds_sq / n - mean * mean;
    return (var > 0.0 && mean > 0.0) ? std::sqrt(var) / mean : 0.0;
  }
};

/// Cross-job aggregate of the pool stream, per kernel attribution.
/// Imbalance and chunk CoV are weighted by job time, so a kernel that
/// also runs many tiny jobs (one chunk on one worker reads imbalance =
/// threads) reads what its costly jobs do.
struct PoolKernelTotal {
  std::string kernel;
  int64_t jobs = 0;
  int64_t chunks = 0;
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
  double capacity_seconds = 0.0;  ///< sum of wall * threads
  double merge_seconds = 0.0;
  double max_worker_seconds = 0.0;  ///< sum of each job's busiest worker
  double fair_share_seconds = 0.0;  ///< sum of chunk time / threads
  double chunk_seconds = 0.0;       ///< sum of chunk time
  double chunk_cov_seconds = 0.0;   ///< sum of ChunkCov() * chunk time
  int64_t last_grain = 0;           ///< grain of the most recent job

  double Utilization() const {
    return capacity_seconds > 0.0 ? busy_seconds / capacity_seconds : 0.0;
  }
  /// Σ busiest-worker seconds / Σ fair-share seconds over the jobs.
  double Imbalance() const {
    return fair_share_seconds > 0.0 ? max_worker_seconds / fair_share_seconds
                                    : 1.0;
  }
  /// Per-job chunk CoV, weighted by each job's chunk time.
  double ChunkCov() const {
    return chunk_seconds > 0.0 ? chunk_cov_seconds / chunk_seconds : 0.0;
  }
};

namespace internal {
/// The global profiling switch, exposed for the inline fast path; use
/// Profiler::Enable()/Disable() to flip it.
extern std::atomic<bool> profiling_enabled;
}  // namespace internal

/// True while the profiler retains records. The single relaxed load
/// every disabled ProfileScope pays.
inline bool ProfilingEnabled() {
  return internal::profiling_enabled.load(std::memory_order_relaxed);
}

/// Name of the innermost open ProfileScope on this thread ("" when
/// none). The par/ layer attributes pool jobs to it.
const char* CurrentProfileKernel();

/// Process-wide profile sink. All methods are thread-safe.
class Profiler {
 public:
  static Profiler& Get();

  void Enable() {
    internal::profiling_enabled.store(true, std::memory_order_relaxed);
  }
  void Disable() {
    internal::profiling_enabled.store(false, std::memory_order_relaxed);
  }
  bool enabled() const { return ProfilingEnabled(); }

  /// Drops all retained records.
  void Clear();

  /// Retains one closed kernel scope (called by ProfileScope).
  void RecordKernel(const char* kernel, uint64_t ticks, int64_t bytes_read,
                    int64_t bytes_written, int64_t flops);

  /// Retains one pool job record (called by the par/ layer). Also emits
  /// par.utilization / par.imbalance counter samples into the
  /// TraceRecorder when tracing is enabled.
  void RecordPoolJob(PoolJobProfile job);

  /// Per-kernel totals across threads, sorted by descending time.
  std::vector<KernelProfile> KernelTotals() const;

  /// Per-(kernel, thread) rows, sorted by kernel then thread id.
  std::vector<KernelProfile> KernelsByThread() const;

  /// Copies out the retained pool job records (completion order).
  std::vector<PoolJobProfile> PoolJobs() const;

  /// Pool stream aggregated per kernel attribution, sorted by
  /// descending busy time.
  std::vector<PoolKernelTotal> PoolTotals() const;

  /// Writes the "profile" report section: {"kernels": [...],
  /// "pool": [...], "threads": [...]} (see DESIGN.md §11).
  void WriteJson(JsonWriter& w) const;

 private:
  Profiler() = default;

  mutable std::mutex mu_;
  /// Keyed by (kernel pointer-identity is NOT assumed: merged by string).
  std::vector<KernelProfile> kernels_;  // per (kernel, thread)
  std::vector<PoolJobProfile> pool_jobs_;
};

/// RAII kernel scope. Costs one atomic load when profiling is off;
/// when on, reads the TSC twice and folds the declared counts into the
/// per-(kernel, thread) accumulator at destruction.
class ProfileScope {
 public:
  explicit ProfileScope(const char* kernel);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// Declares logical bytes moved by this call (accumulative).
  void AddBytes(int64_t read, int64_t written) {
    if (!active_) return;
    bytes_read_ += read;
    bytes_written_ += written;
  }

  /// Declares floating-point operations performed by this call.
  void AddFlops(int64_t flops) {
    if (active_) flops_ += flops;
  }

  bool active() const { return active_; }

 private:
  bool active_ = false;
  const char* kernel_ = nullptr;
  const char* parent_ = nullptr;  ///< restored at destruction
  uint64_t start_ticks_ = 0;
  int64_t bytes_read_ = 0;
  int64_t bytes_written_ = 0;
  int64_t flops_ = 0;
};

}  // namespace largeea::obs

#endif  // LARGEEA_OBS_PROFILER_H_
