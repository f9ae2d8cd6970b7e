#include "src/kg/kg_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/string_util.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"

namespace largeea {
namespace {

/// Shared skip-or-fail bookkeeping for the lenient/strict loaders.
/// Returns a non-OK status only in strict mode.
Status RecordBadLine(const std::string& path, int64_t line_number,
                     std::string_view reason, const TsvReadOptions& options,
                     TsvReadStats* stats) {
  if (options.strict) {
    return InvalidArgumentError("'" + path + "' line " +
                                std::to_string(line_number) + ": " +
                                std::string(reason));
  }
  obs::MetricsRegistry::Get().GetCounter("io.lines_skipped").Increment();
  if (stats != nullptr) {
    ++stats->lines_skipped;
    if (static_cast<int32_t>(stats->skipped_line_numbers.size()) <
        options.max_reported_lines) {
      stats->skipped_line_numbers.push_back(line_number);
    }
  }
  if (stats == nullptr ||
      stats->lines_skipped <= options.max_reported_lines) {
    LARGEEA_LOG_WARN("%s line %lld: skipped (%.*s)", path.c_str(),
                     static_cast<long long>(line_number),
                     static_cast<int>(reason.size()), reason.data());
  }
  return OkStatus();
}

/// The longest line the loaders read: a line of this many bytes or more
/// is one malformed line (the serve protocol caps a request line at the
/// same 64 KiB).
constexpr size_t kMaxLineBytes = size_t{64} << 10;
/// The smallest read buffer, for a pipe or a file that reports no size.
constexpr size_t kMinBufferBytes = size_t{4} << 10;

/// Streams `path` through one buffer and calls `fn(line_number, line)`
/// for each line, split as std::getline splits: on '\n', with a last
/// line that lacks one. The buffer is the file's size (at least 4 KiB)
/// but at most kMaxLineBytes, and it grows only while one line fills it
/// (a pipe reports no size), so a load never holds the whole file and
/// never allocates much beyond it. NOT_FOUND names the file as a `what`
/// file.
template <typename Fn>
Status ForEachLine(const std::string& path, std::string_view what,
                   const TsvReadOptions& options, TsvReadStats* stats,
                   Fn&& fn) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open " + std::string(what) + " file '" +
                         path + "'");
  }
  const rt::FdCloser closer{fd};
  struct stat st {};
  const size_t file_bytes = ::fstat(fd, &st) == 0 && st.st_size > 0
                                ? static_cast<size_t>(st.st_size)
                                : 0;
  std::vector<char> buffer(
      std::clamp(file_bytes + 1, kMinBufferBytes, kMaxLineBytes));
  size_t begin = 0;  // unconsumed bytes are buffer[begin, end)
  size_t end = 0;
  bool eof = false;
  bool skipping = false;  // inside a line already reported as too long
  int64_t line_number = 0;
  const auto emit = [&](size_t stop) -> Status {
    const std::string_view line(buffer.data() + begin, stop - begin);
    if (skipping) {
      skipping = false;
      return OkStatus();
    }
    ++line_number;
    ++stats->lines_read;
    return fn(line_number, line);
  };
  while (true) {
    for (const void* newline;
         (newline = std::memchr(buffer.data() + begin, '\n', end - begin)) !=
         nullptr;) {
      const size_t stop =
          static_cast<size_t>(static_cast<const char*>(newline) -
                              buffer.data());
      LARGEEA_RETURN_IF_ERROR(emit(stop));
      begin = stop + 1;
    }
    if (eof) return begin < end ? emit(end) : OkStatus();
    // Keep the partial last line at the front and read more after it.
    std::memmove(buffer.data(), buffer.data() + begin, end - begin);
    end -= begin;
    begin = 0;
    if (end == buffer.size()) {
      if (buffer.size() < kMaxLineBytes) {
        buffer.resize(std::min(2 * buffer.size(), kMaxLineBytes));
      } else {
        if (!skipping) {
          ++line_number;
          ++stats->lines_read;
          LARGEEA_RETURN_IF_ERROR(RecordBadLine(
              path, line_number,
              "line of " + std::to_string(kMaxLineBytes) + " bytes or more",
              options, stats));
          skipping = true;
        }
        end = 0;
      }
    }
    const ssize_t n = ::read(fd, buffer.data() + end, buffer.size() - end);
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError("read error on '" + path + "'");
    }
    eof = n == 0;
    end += static_cast<size_t>(n);
  }
}

/// Splits `line` at its tabs into `fields` when it has exactly
/// fields.size() fields, and returns its field count either way. A line
/// of many tabs costs a count, not one string per field.
size_t SplitTabs(std::string_view line, std::span<std::string_view> fields) {
  const size_t count =
      static_cast<size_t>(std::count(line.begin(), line.end(), '\t')) + 1;
  if (count != fields.size()) return count;
  size_t begin = 0;
  for (std::string_view& field : fields) {
    const size_t end = std::min(line.find('\t', begin), line.size());
    field = line.substr(begin, end - begin);
    begin = end + 1;
  }
  return count;
}

void LogSkipSummary(const std::string& path, const TsvReadStats* stats) {
  if (stats != nullptr && stats->lines_skipped > 0) {
    LARGEEA_LOG_WARN("%s: skipped %lld malformed line(s) of %lld",
                     path.c_str(),
                     static_cast<long long>(stats->lines_skipped),
                     static_cast<long long>(stats->lines_read));
  }
}

}  // namespace

StatusOr<KnowledgeGraph> LoadTriples(const std::string& path,
                                     const TsvReadOptions& options,
                                     TsvReadStats* stats) {
  LARGEEA_INJECT_FAULT("io.load_triples");
  TsvReadStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  KnowledgeGraph kg;
  LARGEEA_RETURN_IF_ERROR(ForEachLine(
      path, "triples", options, stats,
      [&](int64_t line_number, std::string_view line) -> Status {
        const std::string_view stripped = StripAsciiWhitespace(line);
        if (stripped.empty()) return OkStatus();
        std::array<std::string_view, 3> fields;
        if (const size_t count = SplitTabs(stripped, fields); count != 3) {
          return RecordBadLine(path, line_number,
                               "expected 3 tab-separated fields, got " +
                                   std::to_string(count),
                               options, stats);
        }
        if (fields[0].empty() || fields[1].empty() || fields[2].empty()) {
          return RecordBadLine(path, line_number, "empty field", options,
                               stats);
        }
        const EntityId h = kg.AddEntity(fields[0]);
        const RelationId r = kg.AddRelation(fields[1]);
        const EntityId t = kg.AddEntity(fields[2]);
        kg.AddTriple(h, r, t);
        return OkStatus();
      }));
  LogSkipSummary(path, stats);
  kg.BuildAdjacency();
  return kg;
}

Status SaveTriples(const KnowledgeGraph& kg, const std::string& path) {
  std::string content;
  for (const Triple& t : kg.triples()) {
    content += kg.EntityName(t.head);
    content += '\t';
    content += kg.RelationName(t.relation);
    content += '\t';
    content += kg.EntityName(t.tail);
    content += '\n';
  }
  return rt::AtomicallyWriteFile(path, content)
      .WithContext("saving triples");
}

StatusOr<EntityPairList> LoadAlignment(const std::string& path,
                                       const KnowledgeGraph& source,
                                       const KnowledgeGraph& target,
                                       const TsvReadOptions& options,
                                       TsvReadStats* stats) {
  LARGEEA_INJECT_FAULT("io.load_alignment");
  TsvReadStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  EntityPairList pairs;
  LARGEEA_RETURN_IF_ERROR(ForEachLine(
      path, "alignment", options, stats,
      [&](int64_t line_number, std::string_view line) -> Status {
        const std::string_view stripped = StripAsciiWhitespace(line);
        if (stripped.empty()) return OkStatus();
        std::array<std::string_view, 2> fields;
        if (const size_t count = SplitTabs(stripped, fields); count != 2) {
          return RecordBadLine(path, line_number,
                               "expected 2 tab-separated fields, got " +
                                   std::to_string(count),
                               options, stats);
        }
        const auto s = source.FindEntity(fields[0]);
        const auto t = target.FindEntity(fields[1]);
        if (!s || !t) {
          return RecordBadLine(
              path, line_number,
              "unknown entity '" + std::string(s ? fields[1] : fields[0]) +
                  "'",
              options, stats);
        }
        pairs.push_back(EntityPair{*s, *t});
        return OkStatus();
      }));
  LogSkipSummary(path, stats);
  return pairs;
}

Status SaveAlignment(const EntityPairList& pairs,
                     const KnowledgeGraph& source,
                     const KnowledgeGraph& target, const std::string& path) {
  std::string content;
  for (const EntityPair& p : pairs) {
    content += source.EntityName(p.source);
    content += '\t';
    content += target.EntityName(p.target);
    content += '\n';
  }
  return rt::AtomicallyWriteFile(path, content)
      .WithContext("saving alignment");
}

}  // namespace largeea
