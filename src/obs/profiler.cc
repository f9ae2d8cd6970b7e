#include "src/obs/profiler.h"

#include <algorithm>
#include <chrono>

#include "src/obs/json_writer.h"
#include "src/obs/trace.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <x86intrin.h>
#define LARGEEA_HAVE_RDTSC 1
#endif

namespace largeea::obs {
namespace {

// Innermost open ProfileScope per thread; pool jobs attribute to it.
thread_local const char* current_kernel = "";

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One-shot calibration: measure the tick rate against steady_clock over
// a short spin. ~2ms keeps the relative error well under 1% while
// staying invisible at process startup (it runs on first use only, and
// only when profiling actually converts ticks).
double CalibrateTicksPerSecond() {
#ifdef LARGEEA_HAVE_RDTSC
  constexpr int64_t kWindowNanos = 2'000'000;
  const int64_t t0_ns = SteadyNanos();
  const uint64_t t0 = __rdtsc();
  int64_t t1_ns = t0_ns;
  while (t1_ns - t0_ns < kWindowNanos) t1_ns = SteadyNanos();
  const uint64_t t1 = __rdtsc();
  const double seconds = static_cast<double>(t1_ns - t0_ns) * 1e-9;
  const double rate = static_cast<double>(t1 - t0) / seconds;
  return rate > 0.0 ? rate : 1e9;
#else
  return 1e9;  // Now() already returns nanoseconds
#endif
}

}  // namespace

namespace internal {
std::atomic<bool> profiling_enabled{false};
}  // namespace internal

uint64_t TscClock::Now() {
#ifdef LARGEEA_HAVE_RDTSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(SteadyNanos());
#endif
}

double TscClock::TicksPerSecond() {
  static const double rate = CalibrateTicksPerSecond();
  return rate;
}

const char* CurrentProfileKernel() { return current_kernel; }

Profiler& Profiler::Get() {
  // Leaked like TraceRecorder: scopes may close during static teardown.
  static Profiler* const profiler = new Profiler();
  return *profiler;
}

void Profiler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  kernels_.clear();
  pool_jobs_.clear();
}

void Profiler::RecordKernel(const char* kernel, uint64_t ticks,
                            int64_t bytes_read, int64_t bytes_written,
                            int64_t flops) {
  const double seconds = TscClock::ToSeconds(ticks);
  const int32_t tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(kernels_.begin(), kernels_.end(),
                         [&](const KernelProfile& k) {
                           return k.thread_id == tid && k.kernel == kernel;
                         });
  if (it == kernels_.end()) {
    kernels_.push_back(KernelProfile{kernel, tid, 0, 0.0, 0, 0, 0});
    it = kernels_.end() - 1;
  }
  ++it->calls;
  it->seconds += seconds;
  it->bytes_read += bytes_read;
  it->bytes_written += bytes_written;
  it->flops += flops;
}

void Profiler::RecordPoolJob(PoolJobProfile job) {
  // Counter tracks ride the Chrome trace when one is being recorded:
  // one utilization/imbalance sample per pool job, on the track named
  // after the attributed kernel.
  TraceRecorder& tracer = TraceRecorder::Get();
  if (tracer.enabled()) {
    const std::string track =
        job.kernel.empty() ? std::string("par") : job.kernel;
    tracer.RecordCounter("util:" + track, job.Utilization());
    tracer.RecordCounter("imbalance:" + track, job.ImbalanceRatio());
  }
  std::lock_guard<std::mutex> lock(mu_);
  pool_jobs_.push_back(std::move(job));
}

std::vector<KernelProfile> Profiler::KernelTotals() const {
  std::vector<KernelProfile> per_thread = KernelsByThread();
  std::vector<KernelProfile> totals;
  for (const KernelProfile& k : per_thread) {
    auto it = std::find_if(
        totals.begin(), totals.end(),
        [&](const KernelProfile& t) { return t.kernel == k.kernel; });
    if (it == totals.end()) {
      totals.push_back(KernelProfile{k.kernel, -1, 0, 0.0, 0, 0, 0});
      it = totals.end() - 1;
    }
    it->calls += k.calls;
    it->seconds += k.seconds;
    it->bytes_read += k.bytes_read;
    it->bytes_written += k.bytes_written;
    it->flops += k.flops;
  }
  std::sort(totals.begin(), totals.end(),
            [](const KernelProfile& a, const KernelProfile& b) {
              return a.seconds > b.seconds;
            });
  return totals;
}

std::vector<KernelProfile> Profiler::KernelsByThread() const {
  std::vector<KernelProfile> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = kernels_;
  }
  std::sort(out.begin(), out.end(),
            [](const KernelProfile& a, const KernelProfile& b) {
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              return a.thread_id < b.thread_id;
            });
  return out;
}

std::vector<PoolJobProfile> Profiler::PoolJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_jobs_;
}

std::vector<PoolKernelTotal> Profiler::PoolTotals() const {
  const std::vector<PoolJobProfile> jobs = PoolJobs();
  std::vector<PoolKernelTotal> totals;
  for (const PoolJobProfile& j : jobs) {
    auto it = std::find_if(
        totals.begin(), totals.end(),
        [&](const PoolKernelTotal& t) { return t.kernel == j.kernel; });
    if (it == totals.end()) {
      totals.push_back(PoolKernelTotal{j.kernel});
      it = totals.end() - 1;
    }
    ++it->jobs;
    it->chunks += j.chunks;
    it->wall_seconds += j.wall_seconds;
    it->busy_seconds += j.busy_seconds;
    it->capacity_seconds += j.wall_seconds * j.threads;
    it->merge_seconds += j.merge_seconds;
    // A job with no timed chunks reads imbalance 1 and CoV 0 and weighs
    // nothing here.
    if (j.threads > 0 && j.sum_chunk_seconds > 0.0) {
      it->max_worker_seconds += j.max_worker_seconds;
      it->fair_share_seconds += j.sum_chunk_seconds / j.threads;
      it->chunk_seconds += j.sum_chunk_seconds;
      it->chunk_cov_seconds += j.ChunkCov() * j.sum_chunk_seconds;
    }
    it->last_grain = j.grain;
  }
  std::sort(totals.begin(), totals.end(),
            [](const PoolKernelTotal& a, const PoolKernelTotal& b) {
              return a.busy_seconds > b.busy_seconds;
            });
  return totals;
}

void Profiler::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("enabled").Bool(enabled());
  w.Key("ticks_per_second").Double(TscClock::TicksPerSecond());

  w.Key("kernels").BeginArray();
  for (const KernelProfile& k : KernelTotals()) {
    w.BeginObject();
    w.Key("name").String(k.kernel);
    w.Key("calls").Int(k.calls);
    w.Key("seconds").Double(k.seconds);
    w.Key("bytes_read").Int(k.bytes_read);
    w.Key("bytes_written").Int(k.bytes_written);
    w.Key("flops").Int(k.flops);
    w.Key("gb_per_sec").Double(k.GBPerSec());
    w.Key("arithmetic_intensity").Double(k.ArithmeticIntensity());
    w.EndObject();
  }
  w.EndArray();

  w.Key("pool").BeginArray();
  for (const PoolKernelTotal& t : PoolTotals()) {
    w.BeginObject();
    w.Key("kernel").String(t.kernel);
    w.Key("jobs").Int(t.jobs);
    w.Key("chunks").Int(t.chunks);
    w.Key("wall_seconds").Double(t.wall_seconds);
    w.Key("busy_seconds").Double(t.busy_seconds);
    w.Key("merge_seconds").Double(t.merge_seconds);
    w.Key("utilization").Double(t.Utilization());
    w.Key("imbalance").Double(t.Imbalance());
    w.Key("chunk_cov").Double(t.ChunkCov());
    w.Key("grain").Int(t.last_grain);
    w.EndObject();
  }
  w.EndArray();

  w.Key("threads").BeginArray();
  for (const KernelProfile& k : KernelsByThread()) {
    w.BeginObject();
    w.Key("kernel").String(k.kernel);
    w.Key("thread_id").Int(k.thread_id);
    w.Key("calls").Int(k.calls);
    w.Key("seconds").Double(k.seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

ProfileScope::ProfileScope(const char* kernel) {
  if (!ProfilingEnabled()) return;  // the entire disabled cost
  active_ = true;
  kernel_ = kernel;
  parent_ = current_kernel;
  current_kernel = kernel;
  start_ticks_ = TscClock::Now();
}

ProfileScope::~ProfileScope() {
  if (!active_) return;
  const uint64_t ticks = TscClock::Now() - start_ticks_;
  current_kernel = parent_;
  Profiler::Get().RecordKernel(kernel_, ticks, bytes_read_, bytes_written_,
                               flops_);
}

}  // namespace largeea::obs
