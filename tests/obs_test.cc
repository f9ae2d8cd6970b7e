// Tests for src/obs: spans and trace export, metrics, run reports, the
// JSON writer, and the MemoryTracker phase scopes they build on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/obs/json_writer.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"

namespace largeea {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser, just enough to round-trip the
// documents src/obs emits. Living in the test keeps the library honest:
// the exported JSON must be parseable by an implementation that was not
// written alongside the writer.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue missing;
    const auto it = object.find(key);
    return it == object.end() ? missing : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // The writer only emits \u00XX control escapes.
            *out += static_cast<char>(code);
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->string);
    }
    if (ParseLiteral("true")) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return true;
    }
    if (ParseLiteral("false")) {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return true;
    }
    if (ParseLiteral("null")) {
      out->kind = JsonValue::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

JsonValue ParseOrDie(const std::string& json) {
  JsonValue value;
  JsonParser parser(json);
  EXPECT_TRUE(parser.Parse(&value)) << "unparseable JSON: " << json;
  return value;
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, NestedDocumentRoundTrips) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a \"quoted\"\nvalue\twith\\escapes");
  w.Key("count").Int(-42);
  w.Key("ratio").Double(0.25);
  w.Key("flag").Bool(true);
  w.Key("nothing").Null();
  w.Key("list").BeginArray();
  w.Int(1).Int(2).Int(3);
  w.BeginObject().Key("inner").String("x").EndObject();
  w.EndArray();
  w.EndObject();
  ASSERT_TRUE(w.complete());

  const JsonValue v = ParseOrDie(w.str());
  EXPECT_EQ(v.at("name").string, "a \"quoted\"\nvalue\twith\\escapes");
  EXPECT_EQ(v.at("count").number, -42.0);
  EXPECT_EQ(v.at("ratio").number, 0.25);
  EXPECT_TRUE(v.at("flag").boolean);
  EXPECT_EQ(v.at("nothing").kind, JsonValue::kNull);
  ASSERT_EQ(v.at("list").array.size(), 4u);
  EXPECT_EQ(v.at("list").array[2].number, 3.0);
  EXPECT_EQ(v.at("list").array[3].at("inner").string, "x");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(HUGE_VAL);
  w.Double(1.5);
  w.EndArray();
  const JsonValue v = ParseOrDie(w.str());
  ASSERT_EQ(v.array.size(), 3u);
  EXPECT_EQ(v.array[0].kind, JsonValue::kNull);
  EXPECT_EQ(v.array[1].kind, JsonValue::kNull);
  EXPECT_EQ(v.array[2].number, 1.5);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNullInObjects) {
  // The degradation must hold for keyed values too (the report writes
  // derived ratios like utilization as object members), and for both
  // infinity signs — a 0/0 imbalance ratio must corrupt one value, not
  // the whole document.
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("neg_inf").Double(-HUGE_VAL);
  w.Key("nan").Double(std::nan("1"));
  w.Key("fine").Double(-2.5);
  w.EndObject();
  ASSERT_TRUE(w.complete());
  const JsonValue v = ParseOrDie(w.str());
  EXPECT_EQ(v.at("neg_inf").kind, JsonValue::kNull);
  EXPECT_EQ(v.at("nan").kind, JsonValue::kNull);
  EXPECT_EQ(v.at("fine").number, -2.5);
}

TEST(JsonWriterTest, ControlCharactersAreEscaped) {
  const std::string escaped = obs::JsonEscape(std::string("a\x01z", 3));
  EXPECT_EQ(escaped, "a\\u0001z");
}

// ---------------------------------------------------------------------------
// Spans and the trace recorder

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Get().Clear();
    obs::TraceRecorder::Get().Enable();
  }
  void TearDown() override {
    obs::TraceRecorder::Get().Disable();
    obs::TraceRecorder::Get().Clear();
  }
};

TEST_F(TraceTest, DisabledRecorderRetainsNothingButStillTimes) {
  obs::TraceRecorder::Get().Disable();
  obs::Span span("test/untraced");
  const double seconds = span.End();
  EXPECT_GE(seconds, 0.0);
  EXPECT_TRUE(obs::TraceRecorder::Get().Records().empty());
}

TEST_F(TraceTest, SpansRecordNestingDepth) {
  {
    obs::Span outer("test/outer");
    {
      obs::Span inner("test/inner");
      LARGEEA_TRACE_SPAN("test/innermost");
    }
  }
  const auto records = obs::TraceRecorder::Get().Records();
  ASSERT_EQ(records.size(), 3u);
  std::map<std::string, obs::SpanRecord> by_name;
  for (const auto& r : records) by_name[r.name] = r;
  EXPECT_EQ(by_name.at("test/outer").depth, 0);
  EXPECT_EQ(by_name.at("test/inner").depth, 1);
  EXPECT_EQ(by_name.at("test/innermost").depth, 2);
  // The inner spans close before (and within) the outer one.
  const auto& outer = by_name.at("test/outer");
  const auto& inner = by_name.at("test/inner");
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);
}

TEST_F(TraceTest, EndIsIdempotentAndAttrsFreezeAfterEnd) {
  obs::Span span("test/frozen");
  span.AddAttr("kept", static_cast<int64_t>(7));
  const double first = span.End();
  span.AddAttr("dropped", static_cast<int64_t>(9));
  const double second = span.End();
  EXPECT_EQ(first, second);
  const auto records = obs::TraceRecorder::Get().Records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].attrs.size(), 1u);
  EXPECT_EQ(records[0].attrs[0].key, "kept");
  EXPECT_EQ(records[0].attrs[0].value, "7");
}

TEST_F(TraceTest, ConcurrentThreadsNestIndependently) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      obs::Span outer("test/thread_outer");
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span inner("test/thread_inner");
        inner.End();
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto records = obs::TraceRecorder::Get().Records();
  ASSERT_EQ(records.size(),
            static_cast<size_t>(kThreads * (kSpansPerThread + 1)));
  std::map<int32_t, int> outers_per_thread;
  std::map<int32_t, int> inners_per_thread;
  for (const auto& r : records) {
    if (r.name == "test/thread_outer") {
      EXPECT_EQ(r.depth, 0);
      ++outers_per_thread[r.thread_id];
    } else {
      ASSERT_EQ(r.name, "test/thread_inner");
      // Each thread has a private depth counter: no cross-thread bleed.
      EXPECT_EQ(r.depth, 1);
      ++inners_per_thread[r.thread_id];
    }
  }
  EXPECT_EQ(outers_per_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : outers_per_thread) {
    EXPECT_EQ(count, 1);
    EXPECT_EQ(inners_per_thread[tid], kSpansPerThread);
  }
}

TEST_F(TraceTest, TotalsAggregateByName) {
  for (int i = 0; i < 3; ++i) {
    obs::Span span("test/repeat");
    span.End();
  }
  {
    obs::Span span("test/once");
  }
  const auto totals = obs::TraceRecorder::Get().Totals();
  ASSERT_EQ(totals.size(), 2u);
  int64_t repeat_count = 0, once_count = 0;
  for (const auto& t : totals) {
    EXPECT_GE(t.total_seconds, 0.0);
    if (t.name == "test/repeat") repeat_count = t.count;
    if (t.name == "test/once") once_count = t.count;
  }
  EXPECT_EQ(repeat_count, 3);
  EXPECT_EQ(once_count, 1);
}

TEST_F(TraceTest, ChromeTraceJsonRoundTrips) {
  {
    obs::Span outer("test/chrome_outer");
    outer.AddAttr("note", "hello");
    obs::Span inner("test/chrome_inner");
    inner.End();
  }
  const JsonValue v =
      ParseOrDie(obs::TraceRecorder::Get().ToChromeTraceJson());
  ASSERT_TRUE(v.has("traceEvents"));
  const auto& events = v.at("traceEvents").array;
  // Thread-name metadata (ph:"M") persists across Clear() — earlier
  // tests may have started pool workers — so count span events only.
  size_t span_events = 0;
  bool saw_outer = false;
  for (const auto& e : events) {
    if (e.at("ph").string == "M") {
      EXPECT_EQ(e.at("name").string, "thread_name");
      EXPECT_TRUE(e.at("args").has("name"));
      EXPECT_TRUE(e.has("tid"));
      continue;
    }
    ++span_events;
    EXPECT_EQ(e.at("ph").string, "X");  // complete events
    EXPECT_EQ(e.at("cat").string, "largeea");
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("dur"));
    EXPECT_TRUE(e.has("tid"));
    EXPECT_TRUE(e.at("args").has("depth"));
    if (e.at("name").string == "test/chrome_outer") {
      saw_outer = true;
      EXPECT_EQ(e.at("args").at("note").string, "hello");
    }
  }
  EXPECT_EQ(span_events, 2u);
  EXPECT_TRUE(saw_outer);
}

TEST_F(TraceTest, ThreadNameMetadataAppearsInChromeTrace) {
  obs::SetCurrentThreadName("test/self");
  {
    obs::Span span("test/named_thread");
  }
  const JsonValue v =
      ParseOrDie(obs::TraceRecorder::Get().ToChromeTraceJson());
  bool saw_name = false;
  for (const auto& e : v.at("traceEvents").array) {
    if (e.at("ph").string == "M" &&
        e.at("args").at("name").string == "test/self") {
      saw_name = true;
      EXPECT_EQ(e.at("tid").number, obs::CurrentThreadId());
    }
  }
  EXPECT_TRUE(saw_name);
}

TEST_F(TraceTest, TrackMemorySpanReportsPhasePeak) {
  constexpr int64_t kBytes = 8 << 20;
  obs::Span span("test/mem", obs::Span::kTrackMemory);
  {
    TrackedAllocation alloc(kBytes);
    (void)alloc;
  }
  span.End();
  EXPECT_GE(span.peak_bytes(), kBytes);
}

// ---------------------------------------------------------------------------
// MemoryTracker phases

TEST(MemoryPhaseTest, OverlappingPhasesTrackIndependentPeaks) {
  auto& tracker = MemoryTracker::Get();
  const int64_t base = tracker.CurrentBytes();

  const int32_t outer = tracker.BeginPhase("outer");
  tracker.Add(1000);
  const int32_t inner = tracker.BeginPhase("inner");
  tracker.Add(2000);
  tracker.Remove(2000);
  const MemoryPhase inner_record = tracker.EndPhase(inner);
  tracker.Add(500);
  tracker.Remove(1500);
  const MemoryPhase outer_record = tracker.EndPhase(outer);

  EXPECT_EQ(inner_record.name, "inner");
  EXPECT_EQ(inner_record.start_bytes, base + 1000);
  EXPECT_EQ(inner_record.peak_bytes, base + 3000);
  EXPECT_EQ(outer_record.start_bytes, base);
  EXPECT_EQ(outer_record.name, "outer");
  EXPECT_EQ(outer_record.peak_bytes, base + 3000);
  EXPECT_GE(outer_record.seconds, 0.0);
}

// A second End() neither ends the phase again (EndPhase checks that a
// handle is ended once) nor moves the recorded peak.
TEST(MemoryPhaseTest, TrackMemorySpanEndsItsPhaseOnce) {
  obs::Span span("scoped", obs::Span::kTrackMemory);
  MemoryTracker::Get().Add(100);
  MemoryTracker::Get().Remove(100);
  span.End();
  const int64_t first = span.peak_bytes();
  span.End();
  EXPECT_EQ(span.peak_bytes(), first);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterConcurrentAddsSum) {
  obs::Counter counter;
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kAdds);
}

TEST(MetricsTest, HistogramBucketAssignment) {
  obs::Histogram hist({10.0, 20.0, 30.0});
  for (int v = 1; v <= 30; ++v) hist.Observe(v);
  hist.Observe(100.0);  // overflow bucket
  const auto counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 10);  // 1..10 (bounds are inclusive upper edges)
  EXPECT_EQ(counts[1], 10);  // 11..20
  EXPECT_EQ(counts[2], 10);  // 21..30
  EXPECT_EQ(counts[3], 1);   // 100
  EXPECT_EQ(hist.TotalCount(), 31);
  EXPECT_EQ(hist.Min(), 1.0);
  EXPECT_EQ(hist.Max(), 100.0);
  EXPECT_NEAR(hist.Mean(), (465.0 + 100.0) / 31.0, 1e-9);
}

TEST(MetricsTest, HistogramPercentileInterpolates) {
  obs::Histogram hist({10.0, 20.0, 30.0});
  for (int v = 1; v <= 30; ++v) hist.Observe(v);
  // Rank 15 of 30 falls halfway through the (10, 20] bucket.
  EXPECT_NEAR(hist.Percentile(0.50), 15.0, 1e-9);
  EXPECT_NEAR(hist.Percentile(0.90), 27.0, 1e-9);
  EXPECT_EQ(hist.Percentile(0.0), 1.0);   // clamped to observed min
  EXPECT_EQ(hist.Percentile(1.0), 30.0);  // top of the last real bucket
}

TEST(MetricsTest, HistogramPercentileClampsToObservedRange) {
  obs::Histogram hist({10.0, 20.0});
  hist.Observe(5.0);
  // One value: every percentile is that value, not an interpolation
  // artifact beyond the observed range.
  EXPECT_EQ(hist.Percentile(0.5), 5.0);
  EXPECT_EQ(hist.Percentile(0.99), 5.0);
}

TEST(MetricsTest, HistogramOverflowPercentileIsMax) {
  obs::Histogram hist({1.0});
  hist.Observe(50.0);
  hist.Observe(70.0);
  EXPECT_EQ(hist.Percentile(0.99), 70.0);
}

TEST(MetricsTest, EmptyHistogramIsZeroed) {
  obs::Histogram hist({1.0, 2.0});
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.Mean(), 0.0);
  EXPECT_EQ(hist.Min(), 0.0);
  EXPECT_EQ(hist.Max(), 0.0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
}

TEST(MetricsTest, EmptyHistogramPercentileIsZeroAtEveryQuantile) {
  obs::Histogram hist({10.0, 20.0});
  EXPECT_EQ(hist.Percentile(0.0), 0.0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Percentile(1.0), 0.0);
}

TEST(MetricsTest, HistogramPercentileExtremeQuantilesBracketObservations) {
  obs::Histogram hist({10.0, 20.0, 30.0});
  hist.Observe(12.0);
  hist.Observe(18.0);
  hist.Observe(25.0);
  // q=0 can never undershoot the smallest observation and q=1 can never
  // overshoot the largest — the clamp to [Min, Max] is the contract that
  // keeps report percentiles inside real data.
  EXPECT_EQ(hist.Percentile(0.0), 12.0);
  EXPECT_EQ(hist.Percentile(1.0), 25.0);
  // Out-of-range quantiles clamp to the same endpoints rather than
  // extrapolating or crashing.
  EXPECT_EQ(hist.Percentile(-0.5), hist.Percentile(0.0));
  EXPECT_EQ(hist.Percentile(1.5), hist.Percentile(1.0));
}

TEST(MetricsTest, HistogramSingleSampleIsEveryPercentile) {
  obs::Histogram hist({10.0, 20.0});
  hist.Observe(17.0);
  EXPECT_EQ(hist.Percentile(0.0), 17.0);
  EXPECT_EQ(hist.Percentile(0.5), 17.0);
  EXPECT_EQ(hist.Percentile(1.0), 17.0);
}

TEST(MetricsTest, HistogramResetClearsState) {
  obs::Histogram hist({10.0});
  hist.Observe(3.0);
  hist.Reset();
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.Min(), 0.0);
  hist.Observe(7.0);
  EXPECT_EQ(hist.Min(), 7.0);
  EXPECT_EQ(hist.Max(), 7.0);
}

TEST(MetricsTest, RegistryJsonRoundTrips) {
  auto& registry = obs::MetricsRegistry::Get();
  registry.Reset();
  registry.GetCounter("test.counter").Add(5);
  registry.GetGauge("test.gauge").Set(0.75);
  auto& hist = registry.GetHistogram("test.hist", {1.0, 2.0});
  hist.Observe(0.5);
  hist.Observe(1.5);

  const JsonValue v = ParseOrDie(registry.ToJson());
  EXPECT_EQ(v.at("counters").at("test.counter").number, 5.0);
  EXPECT_EQ(v.at("gauges").at("test.gauge").number, 0.75);
  const JsonValue& h = v.at("histograms").at("test.hist");
  EXPECT_EQ(h.at("count").number, 2.0);
  EXPECT_EQ(h.at("sum").number, 2.0);
  EXPECT_EQ(h.at("min").number, 0.5);
  EXPECT_EQ(h.at("max").number, 1.5);
  ASSERT_EQ(h.at("buckets").array.size(), 3u);
  EXPECT_EQ(h.at("buckets").array[0].number, 1.0);
  EXPECT_EQ(h.at("buckets").array[1].number, 1.0);
  EXPECT_EQ(h.at("buckets").array[2].number, 0.0);
  registry.Reset();
}

TEST(MetricsTest, RegistryReturnsSameInstrument) {
  auto& registry = obs::MetricsRegistry::Get();
  obs::Counter& a = registry.GetCounter("test.same");
  obs::Counter& b = registry.GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  // Later bounds are ignored once a histogram exists.
  obs::Histogram& h1 = registry.GetHistogram("test.same_hist", {1.0});
  obs::Histogram& h2 = registry.GetHistogram("test.same_hist", {5.0, 6.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 1u);
  registry.Reset();
}

// ---------------------------------------------------------------------------
// Run reports

TEST(RunReportTest, JsonRoundTripsThroughParser) {
  obs::RunReport report;
  report.SetTool("obs_test");
  report.SetDataset("unit", 100, 110, 500, 520, 30, 70);
  report.AddConfig("model", "rrea");
  report.AddPhase("phase_a", 1.25, 2048);
  report.AddPhase("phase_b", 0.5);  // untracked memory
  EvalMetrics metrics;
  metrics.hits_at_1 = 0.8;
  metrics.hits_at_5 = 0.9;
  metrics.mrr = 0.85;
  metrics.num_test_pairs = 70;
  report.SetEval(metrics);
  report.SetTotal(2.0, 4096);

  const JsonValue v = ParseOrDie(report.ToJson());
  EXPECT_EQ(v.at("tool").string, "obs_test");
  EXPECT_EQ(v.at("dataset").at("name").string, "unit");
  EXPECT_EQ(v.at("dataset").at("source_entities").number, 100.0);
  EXPECT_EQ(v.at("dataset").at("test_pairs").number, 70.0);
  EXPECT_EQ(v.at("config").at("model").string, "rrea");
  ASSERT_EQ(v.at("phases").array.size(), 2u);
  EXPECT_EQ(v.at("phases").array[0].at("name").string, "phase_a");
  EXPECT_EQ(v.at("phases").array[0].at("seconds").number, 1.25);
  EXPECT_EQ(v.at("phases").array[0].at("peak_bytes").number, 2048.0);
  EXPECT_EQ(v.at("phases").array[1].at("peak_bytes").number, -1.0);
  EXPECT_EQ(v.at("eval").at("hits_at_1").number, 0.8);
  EXPECT_EQ(v.at("total").at("seconds").number, 2.0);
  EXPECT_TRUE(v.has("metrics"));
  EXPECT_TRUE(v.at("metrics").has("counters"));
}

TEST(RunReportTest, EvalOmittedUntilSet) {
  obs::RunReport report;
  report.SetTool("obs_test");
  EXPECT_FALSE(report.has_eval());
  const JsonValue v = ParseOrDie(report.ToJson());
  EXPECT_FALSE(v.has("eval"));
}

TEST(RunReportTest, IngestsTraceTotals) {
  obs::TraceRecorder::Get().Clear();
  obs::TraceRecorder::Get().Enable();
  {
    obs::Span span("test/ingested", obs::Span::kTrackMemory);
  }
  obs::TraceRecorder::Get().Disable();

  obs::RunReport report;
  report.IngestTraceTotals();
  const JsonValue v = ParseOrDie(report.ToJson());
  ASSERT_EQ(v.at("spans").array.size(), 1u);
  EXPECT_EQ(v.at("spans").array[0].at("name").string, "test/ingested");
  EXPECT_EQ(v.at("spans").array[0].at("count").number, 1.0);
  // Phases are the caller's rows; a memory-tracked span adds none.
  EXPECT_TRUE(v.at("phases").array.empty());
  EXPECT_FALSE(v.has("memory_phases"));
  obs::TraceRecorder::Get().Clear();
}

// ---------------------------------------------------------------------------
// Logging

TEST(LogTest, ParseLogLevelAcceptsKnownNames) {
  obs::LogLevel level;
  EXPECT_TRUE(obs::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("off", &level));
  EXPECT_EQ(level, obs::LogLevel::kOff);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
}

TEST(LogTest, LevelGatesOutput) {
  const obs::LogLevel saved = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kError);
  EXPECT_EQ(obs::GetLogLevel(), obs::LogLevel::kError);
  // Below-threshold macros must be cheap no-ops; this is a smoke test
  // that they compile and do not crash with formatting arguments.
  LARGEEA_LOG_DEBUG("invisible %d", 1);
  LARGEEA_LOG_INFO("invisible %s", "too");
  obs::SetLogLevel(saved);
}

}  // namespace
}  // namespace largeea
