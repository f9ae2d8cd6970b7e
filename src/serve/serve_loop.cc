#include "src/serve/serve_loop.h"

#include <cctype>
#include <charconv>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/par/parallel_for.h"
#include "src/rt/artifact.h"

namespace largeea::serve {
namespace {

/// Skips JSON whitespace starting at `i`.
void SkipWs(std::string_view s, size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

/// Reads the four hex digits of a \u escape, starting at s[i], into
/// `unit` and advances i past them.
Status ParseHex4(std::string_view s, size_t& i, uint32_t& unit) {
  if (i + 4 > s.size()) return InvalidArgumentError("truncated \\u escape");
  unit = 0;
  for (int d = 0; d < 4; ++d) {
    const char h = s[i + d];
    unit <<= 4;
    if (h >= '0' && h <= '9') unit |= h - '0';
    else if (h >= 'a' && h <= 'f') unit |= h - 'a' + 10;
    else if (h >= 'A' && h <= 'F') unit |= h - 'A' + 10;
    else return InvalidArgumentError("bad \\u escape digit");
  }
  i += 4;
  return OkStatus();
}

/// Appends code point `cp` (at most U+10FFFF, not a surrogate) as UTF-8.
void AppendUtf8(uint32_t cp, std::string& out) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Decodes the code point of the \u escape whose hex digits start at
/// s[i] and advances i past it. A code point above U+FFFF is spelled as
/// a surrogate pair of escapes (Python's json.dumps writes U+1F600 as
/// "\ud83d\ude00"); a lone or reversed surrogate is INVALID_ARGUMENT.
Status ParseUnicodeEscape(std::string_view s, size_t& i, uint32_t& cp) {
  LARGEEA_RETURN_IF_ERROR(ParseHex4(s, i, cp));
  if (cp >= 0xDC00 && cp <= 0xDFFF) {
    return InvalidArgumentError("lone low surrogate in \\u escape");
  }
  if (cp < 0xD800 || cp > 0xDBFF) return OkStatus();
  if (i + 2 > s.size() || s[i] != '\\' || s[i + 1] != 'u') {
    return InvalidArgumentError("lone high surrogate in \\u escape");
  }
  i += 2;
  uint32_t low = 0;
  LARGEEA_RETURN_IF_ERROR(ParseHex4(s, i, low));
  if (low < 0xDC00 || low > 0xDFFF) {
    return InvalidArgumentError("lone high surrogate in \\u escape");
  }
  cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
  return OkStatus();
}

/// Parses a JSON string literal at s[i] (which must be '"'); advances i
/// past the closing quote and appends the decoded characters to `out`.
Status ParseJsonString(std::string_view s, size_t& i, std::string& out) {
  LARGEEA_CHECK(i < s.size() && s[i] == '"');
  ++i;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return OkStatus();
    }
    if (c == '\\') {
      if (i + 1 >= s.size()) break;
      const char esc = s[i + 1];
      i += 2;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          uint32_t cp = 0;
          LARGEEA_RETURN_IF_ERROR(ParseUnicodeEscape(s, i, cp));
          AppendUtf8(cp, out);
          break;
        }
        default:
          return InvalidArgumentError(std::string("unknown escape \\") + esc);
      }
      continue;
    }
    out += c;
    ++i;
  }
  return InvalidArgumentError("unterminated string literal");
}

}  // namespace

StatusOr<std::map<std::string, std::string>> ParseFlatObject(
    std::string_view line) {
  std::map<std::string, std::string> result;
  size_t i = 0;
  SkipWs(line, i);
  if (i >= line.size() || line[i] != '{') {
    return InvalidArgumentError("request is not a JSON object");
  }
  ++i;
  SkipWs(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      SkipWs(line, i);
      if (i >= line.size() || line[i] != '"') {
        return InvalidArgumentError("expected string key");
      }
      std::string key;
      LARGEEA_RETURN_IF_ERROR(ParseJsonString(line, i, key));
      SkipWs(line, i);
      if (i >= line.size() || line[i] != ':') {
        return InvalidArgumentError("expected ':' after key");
      }
      ++i;
      SkipWs(line, i);
      if (i >= line.size()) return InvalidArgumentError("missing value");
      std::string value;
      if (line[i] == '"') {
        LARGEEA_RETURN_IF_ERROR(ParseJsonString(line, i, value));
      } else if (line[i] == '{' || line[i] == '[') {
        return InvalidArgumentError("nested values are not supported");
      } else {
        // Number / true / false / null: take the literal token.
        const size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               line[i] != ' ' && line[i] != '\t') {
          ++i;
        }
        value = std::string(line.substr(start, i - start));
        if (value.empty()) return InvalidArgumentError("empty value");
      }
      result.insert_or_assign(std::move(key), std::move(value));
      SkipWs(line, i);
      if (i >= line.size()) return InvalidArgumentError("unterminated object");
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      return InvalidArgumentError("expected ',' or '}'");
    }
  }
  SkipWs(line, i);
  if (i != line.size()) {
    return InvalidArgumentError("trailing bytes after object");
  }
  return result;
}

namespace {

std::string ErrorLine(const Status& status) {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("ok").Bool(false)
      .Key("code").String(StatusCodeName(status.code()))
      .Key("error").String(status.message())
      .EndObject();
  return w.str();
}

std::string ResponseLine(const QueryResponse& response) {
  if (!response.status.ok()) return ErrorLine(response.status);
  obs::JsonWriter w;
  w.BeginObject()
      .Key("ok").Bool(true)
      .Key("version").Int(response.index_version)
      .Key("fingerprint").String(rt::Hex64(response.index_fingerprint))
      .Key("candidates").BeginArray();
  for (const Candidate& c : response.candidates) {
    w.BeginObject()
        .Key("target").Int(c.target)
        .Key("name").String(c.name)
        .Key("score").Double(c.score)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

/// Builds a QueryRequest from a parsed request object. The "op" key has
/// already been consumed as "query".
Status BuildQuery(const std::map<std::string, std::string>& fields,
                  int32_t default_k, QueryRequest& request) {
  const auto entity_it = fields.find("entity");
  const auto name_it = fields.find("name");
  if ((entity_it == fields.end()) == (name_it == fields.end())) {
    return InvalidArgumentError(
        "query needs exactly one of \"entity\" or \"name\"");
  }
  if (entity_it != fields.end()) {
    request.kind = QueryRequest::Kind::kEntity;
    const std::string& text = entity_it->second;
    EntityId id = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), id);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      return InvalidArgumentError("\"entity\" is not an entity id: " + text);
    }
    request.entity = id;
  } else {
    request.kind = QueryRequest::Kind::kName;
    request.name = name_it->second;
  }
  request.k = default_k;
  if (const auto it = fields.find("k"); it != fields.end()) {
    const std::string& text = it->second;
    int32_t k = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), k);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      return InvalidArgumentError("\"k\" is not an integer: " + text);
    }
    request.k = k;
  }
  if (const auto it = fields.find("exact"); it != fields.end()) {
    if (it->second != "true" && it->second != "false") {
      return InvalidArgumentError("\"exact\" must be true or false");
    }
    request.exact = it->second == "true";
  }
  return OkStatus();
}

/// Reads one line, without its newline, into `line`, keeping at most
/// kMaxRequestBytes of it and skipping the rest; `too_long` says whether
/// there was a rest. False at the end of input with nothing read.
bool ReadRequestLine(std::istream& in, std::string& line, bool& too_long) {
  line.clear();
  too_long = false;
  std::streambuf* buffer = in.rdbuf();
  bool read_any = false;
  for (int c = buffer->sbumpc(); c != std::char_traits<char>::eof();
       c = buffer->sbumpc()) {
    read_any = true;
    if (c == '\n') return true;
    if (line.size() < kMaxRequestBytes) {
      line.push_back(static_cast<char>(c));
    } else {
      too_long = true;
    }
  }
  return read_any;
}

}  // namespace

ServeLoop::ServeLoop(IndexManager* manager, const ServeLoopOptions& options)
    : manager_(manager), engine_(manager), options_(options) {
  LARGEEA_CHECK(manager != nullptr);
  LARGEEA_CHECK_GT(options.batch_size, 0);
}

ServeLoopStats ServeLoop::Run(std::istream& in, std::ostream& out,
                              const std::atomic<int>* stop) {
  ServeLoopStats stats;
  // Accepted query lines, each parsed once on arrival; a parse error is
  // answered from the batch, in order.
  using Fields = StatusOr<std::map<std::string, std::string>>;
  std::vector<Fields> pending;
  pending.reserve(options_.batch_size);

  // Executes the pending queries as one ParallelFor batch and emits
  // responses in input order. Each query snapshots the index manager
  // independently inside the engine.
  const auto flush = [&] {
    if (pending.empty()) return;
    std::vector<Fields> batch;
    batch.swap(pending);
    std::vector<std::string> responses(batch.size());
    par::ParallelFor(
        0, static_cast<int64_t>(batch.size()), /*grain=*/1,
        [&](par::ChunkRange range) {
          for (int64_t i = range.begin; i < range.end; ++i) {
            if (!batch[i].ok()) {
              responses[i] = ErrorLine(batch[i].status());
              continue;
            }
            QueryRequest request;
            const Status built =
                BuildQuery(batch[i].value(), options_.default_k, request);
            if (!built.ok()) {
              responses[i] = ErrorLine(built);
              continue;
            }
            responses[i] = ResponseLine(engine_.Execute(request));
          }
        });
    for (const std::string& response : responses) {
      out << response << '\n';
      if (response.starts_with("{\"ok\":false")) ++stats.failed;
    }
    stats.queries += static_cast<int64_t>(batch.size());
    ++stats.batches;
    out.flush();
  };

  const auto stopped = [&] {
    return stop != nullptr && stop->load(std::memory_order_relaxed) != 0;
  };

  std::string line;
  bool too_long = false;
  while (!stopped() && ReadRequestLine(in, line, too_long)) {
    if (line.empty()) continue;

    // A line that does not parse, or names no op, is a query.
    Fields fields = too_long ? Fields(InvalidArgumentError(
                                   "request line longer than " +
                                   std::to_string(kMaxRequestBytes) +
                                   " bytes"))
                             : ParseFlatObject(line);
    const std::string op = [&] {
      if (!fields.ok()) return std::string("query");
      const auto it = fields.value().find("op");
      return it == fields.value().end() ? std::string("query") : it->second;
    }();

    if (op == "query") {
      pending.push_back(std::move(fields));
      // Batch only what is already buffered: a lone request executes
      // immediately, a burst amortises pool wakeups.
      if (static_cast<int32_t>(pending.size()) >= options_.batch_size ||
          in.rdbuf()->in_avail() <= 0) {
        flush();
      }
      continue;
    }

    // Control ops are barriers: drain queries accepted before this line
    // so version-swap ordering is exact.
    flush();
    if (op == "quit") {
      obs::JsonWriter w;
      w.BeginObject().Key("ok").Bool(true).Key("bye").Bool(true).EndObject();
      out << w.str() << '\n';
      out.flush();
      stats.saw_quit = true;
      break;
    }
    if (op == "swap") {
      const auto it = fields.value().find("index");
      if (it == fields.value().end()) {
        out << ErrorLine(InvalidArgumentError("swap needs \"index\" (path)"))
            << '\n';
        ++stats.failed;
      } else {
        const Status swapped = manager_->LoadAndSwap(it->second);
        if (!swapped.ok()) {
          out << ErrorLine(swapped) << '\n';
          ++stats.failed;
        } else {
          const auto index = manager_->Current();
          obs::JsonWriter w;
          w.BeginObject()
              .Key("ok").Bool(true)
              .Key("version").Int(manager_->version())
              .Key("fingerprint").String(rt::Hex64(index->fingerprint()))
              .EndObject();
          out << w.str() << '\n';
          ++stats.swaps;
        }
      }
      out.flush();
      continue;
    }
    if (op == "stats") {
      auto& registry = obs::MetricsRegistry::Get();
      obs::JsonWriter w;
      w.BeginObject()
          .Key("ok").Bool(true)
          .Key("queries").Int(stats.queries)
          .Key("failed").Int(stats.failed)
          .Key("version_swaps").Int(stats.swaps)
          .Key("version").Int(manager_->version())
          .Key("p50_us").Double(registry.GetHistogram("serve.query_us")
                                    .Percentile(0.5))
          .Key("p99_us").Double(registry.GetHistogram("serve.query_us")
                                    .Percentile(0.99))
          .EndObject();
      out << w.str() << '\n';
      out.flush();
      continue;
    }
    out << ErrorLine(InvalidArgumentError("unknown op \"" + op + "\""))
        << '\n';
    ++stats.failed;
    out.flush();
  }

  // Drain: whatever was accepted before EOF / signal still answers.
  if (stopped()) stats.saw_stop = true;
  flush();
  return stats;
}

}  // namespace largeea::serve
