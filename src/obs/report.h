// Structured JSON run reports (--report-out=).
//
// A RunReport is the machine-readable twin of the tables a run prints:
// dataset shape, configuration notes, per-phase wall time and tracked
// memory peaks, span aggregates from the tracer, the full metrics
// snapshot, and the evaluation result. Successive reports diff cleanly,
// which is what makes a perf trajectory trustworthy.
//
// Schema (all keys always present, see DESIGN.md "Observability"):
//   {
//     "tool":    "largeea_cli align",
//     "dataset": {"name", "source_entities", "target_entities",
//                 "source_triples", "target_triples",
//                 "train_pairs", "test_pairs"},
//     "config":  {<free-form string notes>},
//     "eval":    {"hits_at_1", "hits_at_5", "mrr", "test_pairs"},
//     "total":   {"seconds", "peak_bytes", "peak_rss_bytes"},
//     "phases":  [{"name", "seconds", "peak_bytes"}],     // -1 = untracked
//     "spans":   [{"name", "count", "total_seconds"}],
//     "metrics": {"counters", "gauges", "histograms"}
//   }
//
// A pipeline run's "phases" are its DAG node table: one "dag/<node>" row
// per node of LargeEaResult::schedule, then "dag/critical_path".
//
// "total.peak_bytes" is the MemoryTracker's peak; "peak_rss_bytes" is
// the process's resident high-water mark (PeakResidentBytes), present
// when the tool reported one (`run` and `index-build` on Linux), so the
// two side by side show how much of the resident peak the tracker
// explains.
//
// Three sections are conditional: "eval" appears once SetEval() ran,
// "serve" (queries answered, version swaps, latency percentiles)
// appears once SetServe() ran, and "profile" (per-kernel
// seconds/bytes/GB-per-sec plus pool utilization, see
// src/obs/profiler.h) appears only when the run was profiled
// (`--profile`), so unprofiled batch reports stay byte-for-byte
// comparable with pre-profiler ones.
#ifndef LARGEEA_OBS_REPORT_H_
#define LARGEEA_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/evaluator.h"

namespace largeea::obs {

/// Builder for the run-report JSON document.
class RunReport {
 public:
  /// Names the producing tool ("largeea_cli align", "bench_table2_ids").
  void SetTool(std::string tool) { tool_ = std::move(tool); }

  /// Dataset shape, as reported by the loaded/generated EaDataset.
  void SetDataset(std::string name, int64_t source_entities,
                  int64_t target_entities, int64_t source_triples,
                  int64_t target_triples, int64_t train_pairs,
                  int64_t test_pairs);

  /// Adds a free-form configuration note ("model" -> "rrea", ...).
  void AddConfig(std::string key, std::string value);

  /// Adds one pipeline phase row. `peak_bytes` < 0 means "not tracked".
  void AddPhase(std::string name, double seconds, int64_t peak_bytes = -1);

  void SetEval(const EvalMetrics& metrics);

  /// Serving-session totals (`largeea_cli serve`). Like eval, the
  /// section is conditional: it appears only once SetServe() ran, so
  /// batch-run reports are unchanged.
  struct ServeStats {
    int64_t queries = 0;        ///< query ops answered (ok or failed)
    int64_t failed = 0;         ///< responses with ok:false
    int64_t version_swaps = 0;  ///< successful index swaps
    int64_t batches = 0;        ///< execution batches
    double p50_us = 0.0;        ///< serve.query_us percentiles
    double p99_us = 0.0;
    double p999_us = 0.0;
  };
  void SetServe(const ServeStats& serve);

  /// End-to-end totals (the printed table's bottom line).
  /// `peak_rss_bytes` < 0 leaves total.peak_rss_bytes out.
  void SetTotal(double seconds, int64_t peak_bytes,
                int64_t peak_rss_bytes = -1);

  /// Pulls TraceRecorder::Totals() into the report.
  void IngestTraceTotals();

  /// True once SetEval has been called (eval is omitted otherwise).
  bool has_eval() const { return has_eval_; }

  /// Serialises the report. The "metrics" section snapshots the
  /// MetricsRegistry at call time.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct Phase {
    std::string name;
    double seconds = 0.0;
    int64_t peak_bytes = -1;
  };
  struct SpanRow {
    std::string name;
    int64_t count = 0;
    double total_seconds = 0.0;
  };

  std::string tool_;
  std::string dataset_name_;
  int64_t source_entities_ = 0, target_entities_ = 0;
  int64_t source_triples_ = 0, target_triples_ = 0;
  int64_t train_pairs_ = 0, test_pairs_ = 0;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Phase> phases_;
  std::vector<SpanRow> spans_;
  EvalMetrics eval_;
  bool has_eval_ = false;
  ServeStats serve_;
  bool has_serve_ = false;
  double total_seconds_ = 0.0;
  int64_t total_peak_bytes_ = -1;
  int64_t total_peak_rss_bytes_ = -1;
};

/// The process's resident high-water mark so far (VmHWM in
/// /proc/self/status) in bytes; -1 where that file or field is missing
/// (off Linux).
int64_t PeakResidentBytes();

}  // namespace largeea::obs

#endif  // LARGEEA_OBS_REPORT_H_
