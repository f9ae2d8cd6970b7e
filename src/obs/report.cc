#include "src/obs/report.h"

#include <cstdlib>
#include <fstream>
#include <string>

#include "src/common/memory_tracker.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace largeea::obs {

void RunReport::SetDataset(std::string name, int64_t source_entities,
                           int64_t target_entities, int64_t source_triples,
                           int64_t target_triples, int64_t train_pairs,
                           int64_t test_pairs) {
  dataset_name_ = std::move(name);
  source_entities_ = source_entities;
  target_entities_ = target_entities;
  source_triples_ = source_triples;
  target_triples_ = target_triples;
  train_pairs_ = train_pairs;
  test_pairs_ = test_pairs;
}

void RunReport::AddConfig(std::string key, std::string value) {
  config_.emplace_back(std::move(key), std::move(value));
}

void RunReport::AddPhase(std::string name, double seconds,
                         int64_t peak_bytes) {
  phases_.push_back(Phase{std::move(name), seconds, peak_bytes});
}

void RunReport::SetEval(const EvalMetrics& metrics) {
  eval_ = metrics;
  has_eval_ = true;
}

void RunReport::SetServe(const ServeStats& serve) {
  serve_ = serve;
  has_serve_ = true;
}

void RunReport::SetTotal(double seconds, int64_t peak_bytes,
                         int64_t peak_rss_bytes) {
  total_seconds_ = seconds;
  total_peak_bytes_ = peak_bytes;
  total_peak_rss_bytes_ = peak_rss_bytes;
}

int64_t PeakResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    // "VmHWM:     101588 kB"
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return -1;
}

void RunReport::IngestMemoryPhases() {
  for (const MemoryPhase& p : MemoryTracker::Get().FinishedPhases()) {
    memory_phases_.push_back(
        MemoryRow{p.name, p.start_bytes, p.peak_bytes, p.seconds});
  }
}

void RunReport::IngestTraceTotals() {
  for (const SpanTotal& t : TraceRecorder::Get().Totals()) {
    spans_.push_back(SpanRow{t.name, t.count, t.total_seconds});
  }
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("tool").String(tool_);

  w.Key("dataset").BeginObject();
  w.Key("name").String(dataset_name_);
  w.Key("source_entities").Int(source_entities_);
  w.Key("target_entities").Int(target_entities_);
  w.Key("source_triples").Int(source_triples_);
  w.Key("target_triples").Int(target_triples_);
  w.Key("train_pairs").Int(train_pairs_);
  w.Key("test_pairs").Int(test_pairs_);
  w.EndObject();

  w.Key("config").BeginObject();
  for (const auto& [key, value] : config_) {
    w.Key(key).String(value);
  }
  w.EndObject();

  if (has_eval_) {
    w.Key("eval").BeginObject();
    w.Key("hits_at_1").Double(eval_.hits_at_1);
    w.Key("hits_at_5").Double(eval_.hits_at_5);
    w.Key("mrr").Double(eval_.mrr);
    w.Key("test_pairs").Int(eval_.num_test_pairs);
    w.EndObject();
  }

  if (has_serve_) {
    w.Key("serve").BeginObject();
    w.Key("queries").Int(serve_.queries);
    w.Key("failed").Int(serve_.failed);
    w.Key("version_swaps").Int(serve_.version_swaps);
    w.Key("batches").Int(serve_.batches);
    w.Key("p50_us").Double(serve_.p50_us);
    w.Key("p99_us").Double(serve_.p99_us);
    w.Key("p999_us").Double(serve_.p999_us);
    w.EndObject();
  }

  w.Key("total").BeginObject();
  w.Key("seconds").Double(total_seconds_);
  w.Key("peak_bytes").Int(total_peak_bytes_);
  if (total_peak_rss_bytes_ >= 0) {
    w.Key("peak_rss_bytes").Int(total_peak_rss_bytes_);
  }
  w.EndObject();

  w.Key("phases").BeginArray();
  for (const Phase& p : phases_) {
    w.BeginObject();
    w.Key("name").String(p.name);
    w.Key("seconds").Double(p.seconds);
    w.Key("peak_bytes").Int(p.peak_bytes);
    w.EndObject();
  }
  w.EndArray();

  w.Key("memory_phases").BeginArray();
  for (const MemoryRow& p : memory_phases_) {
    w.BeginObject();
    w.Key("name").String(p.name);
    w.Key("start_bytes").Int(p.start_bytes);
    w.Key("peak_bytes").Int(p.peak_bytes);
    w.Key("seconds").Double(p.seconds);
    w.EndObject();
  }
  w.EndArray();

  w.Key("spans").BeginArray();
  for (const SpanRow& s : spans_) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("count").Int(s.count);
    w.Key("total_seconds").Double(s.total_seconds);
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics").Raw(MetricsRegistry::Get().ToJson());

  if (Profiler::Get().enabled()) {
    w.Key("profile");
    Profiler::Get().WriteJson(w);
  }

  w.EndObject();
  return w.str();
}

bool RunReport::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

}  // namespace largeea::obs
