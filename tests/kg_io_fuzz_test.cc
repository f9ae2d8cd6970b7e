// Seeded fuzzing, with no corpus, of the KG TSV loaders (src/kg/kg_io.h).
//
// A valid triples file and a valid alignment file are damaged by bit
// flips, truncation at the start of and inside every line, doubled and
// missing tabs, CR and NUL bytes, and over-long lines. Every load, in
// lenient and in strict mode, must return either a Status or a graph
// (or pair list) whose ids are all in range, with consistent
// adjacency; it must never crash. No single allocation made while
// loading may exceed the file's size: the loaders read the file into
// one string of its size, and nothing else they allocate grows with a
// line's or a field's claimed length. Files smaller than
// kSmallAllocation get that much headroom.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/kg/kg_io.h"
#include "src/obs/log.h"
#include "tests/allocation_probe.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSmallAllocation = 4096;

std::string ValidTriples(uint64_t seed) {
  Rng rng(seed);
  std::string out;
  for (int i = 0; i < 120; ++i) {
    out += "Entity_" + std::to_string(rng.Uniform(60)) + "\trel_" +
           std::to_string(rng.Uniform(8)) + "\tEntity_" +
           std::to_string(rng.Uniform(60)) + "\n";
  }
  return out;
}

std::string ValidAlignment() {
  std::string out;
  for (int i = 0; i < 40; ++i) {
    out += "Entity_" + std::to_string(i) + "\tEntity_" +
           std::to_string((i * 7) % 60) + "\n";
  }
  return out;
}

/// Start offsets of every line of `text`.
std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts;
  for (size_t i = 0; i < text.size(); i = text.find('\n', i) + 1) {
    starts.push_back(i);
    if (text.find('\n', i) == std::string::npos) break;
  }
  return starts;
}

/// Damaged copies of `valid`, each with what was done to it.
std::vector<std::pair<std::string, std::string>> Mutations(
    const std::string& valid, Rng& rng, int rounds) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto at = [&rng](const std::string& s) {
    return static_cast<size_t>(rng.Uniform(s.size()));
  };
  for (int i = 0; i < rounds; ++i) {
    std::string bytes = valid;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      bytes[at(bytes)] ^= static_cast<char>(1 << rng.Uniform(8));
    }
    out.emplace_back(std::move(bytes), "bit flip");
  }
  for (const size_t start : LineStarts(valid)) {
    out.emplace_back(valid.substr(0, start), "cut before a line");
    const size_t end = std::min(valid.find('\n', start), valid.size());
    if (end > start + 1) {
      const size_t cut = start + 1 + rng.Uniform(end - start - 1);
      out.emplace_back(valid.substr(0, cut), "cut inside a line");
    }
  }
  std::vector<size_t> tabs;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (valid[i] == '\t') tabs.push_back(i);
  }
  for (int i = 0; i < rounds; ++i) {
    const size_t tab = tabs[rng.Uniform(tabs.size())];
    std::string doubled = valid;
    doubled.insert(tab, 1, '\t');
    out.emplace_back(std::move(doubled), "doubled tab");
    std::string missing = valid;
    missing.erase(tab, 1);
    out.emplace_back(std::move(missing), "missing tab");
    std::string cr = valid;
    cr.insert(at(cr), 1, '\r');
    out.emplace_back(std::move(cr), "CR byte");
    std::string nul = valid;
    nul.insert(at(nul), 1, '\0');
    out.emplace_back(std::move(nul), "NUL byte");
  }
  std::string crlf;
  for (const char c : valid) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  out.emplace_back(std::move(crlf), "CRLF line ends");
  for (const size_t length : {size_t{5000}, size_t{70000}}) {
    std::string long_name = valid;
    long_name.insert(LineStarts(valid)[3],
                     std::string(length, 'x') + "\tr\ty\n");
    out.emplace_back(std::move(long_name), "over-long name");
    // Inside a line, past its first field: leading tabs would be
    // stripped as whitespace before the line is split.
    std::string tab_run = valid;
    tab_run.insert(valid.find('\t', LineStarts(valid)[5]),
                   std::string(length, '\t'));
    out.emplace_back(std::move(tab_run), "over-long run of tabs");
    out.emplace_back(valid + std::string(length, 'z'),
                     "over-long last line without a newline");
  }
  out.emplace_back(std::string(1, '\0'), "one NUL byte");
  out.emplace_back("", "empty file");
  return out;
}

class KgIoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("largeea_kg_io_fuzz_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Lenient loads warn once per skipped line; thousands are noise.
    saved_log_level_ = obs::GetLogLevel();
    obs::SetLogLevel(obs::LogLevel::kError);
  }
  void TearDown() override {
    obs::SetLogLevel(saved_log_level_);
    fs::remove_all(dir_);
  }

  std::string Write(const std::string& name, const std::string& bytes) {
    const std::string path = dir_ + "/" + name;
    std::error_code ec;
    fs::remove(path, ec);
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  /// Runs `load` on `bytes` under the allocation probe; fails the test
  /// (reporting at most ten cases) if the largest allocation exceeds
  /// the file or `load` reports a bad outcome.
  void Check(const std::string& bytes, const std::string& what,
             const std::function<std::string(const std::string&)>& load) {
    const std::string path = Write("input.tsv", bytes);
    StartAllocationProbe();
    const std::string problem = load(path);
    const size_t largest = StopAllocationProbe();
    ++loads_;
    const size_t bound = std::max(bytes.size() + 1, kSmallAllocation);
    if ((!problem.empty() || largest > bound) && ++failures_ <= 10) {
      ADD_FAILURE() << what << ": " << (problem.empty() ? "ok" : problem)
                    << ", largest allocation " << largest << " bytes for a "
                    << bytes.size() << "-byte file";
    }
  }

  /// "" when a triples load's outcome is acceptable.
  static std::string CheckTriples(const StatusOr<KnowledgeGraph>& kg,
                                  bool strict) {
    if (!kg.ok()) {
      return kg.status().code() == StatusCode::kInvalidArgument && strict
                 ? ""
                 : "status " + kg.status().ToString();
    }
    int64_t degree_sum = 0;
    for (const Triple& t : kg->triples()) {
      if (t.head < 0 || t.head >= kg->num_entities() || t.tail < 0 ||
          t.tail >= kg->num_entities() || t.relation < 0 ||
          t.relation >= kg->num_relations()) {
        return "triple id out of range";
      }
    }
    for (EntityId e = 0; e < kg->num_entities(); ++e) {
      for (const NeighborEdge& n : kg->Neighbors(e)) {
        if (n.neighbor < 0 || n.neighbor >= kg->num_entities() ||
            n.relation < 0 || n.relation >= kg->num_relations()) {
          return "neighbor id out of range";
        }
      }
      degree_sum += kg->Degree(e);
    }
    if (degree_sum != 2 * kg->num_triples()) return "degrees do not add up";
    return "";
  }

  std::string dir_;
  obs::LogLevel saved_log_level_ = obs::LogLevel::kInfo;
  int64_t loads_ = 0;
  int64_t failures_ = 0;
};

TEST_F(KgIoFuzzTest, DamagedTriplesLoadInRangeOrFail) {
  Rng rng(61);
  const std::string valid = ValidTriples(3);
  for (const bool strict : {false, true}) {
    const TsvReadOptions options{.strict = strict};
    Check(valid, "valid file", [&](const std::string& path) {
      const StatusOr<KnowledgeGraph> kg = LoadTriples(path, options);
      if (!kg.ok()) return "valid file failed: " + kg.status().ToString();
      return CheckTriples(kg, strict);
    });
    for (const auto& [bytes, what] : Mutations(valid, rng, 40)) {
      Check(bytes, what, [&](const std::string& path) {
        return CheckTriples(LoadTriples(path, options), strict);
      });
    }
  }
  EXPECT_GT(loads_, 400);
}

TEST_F(KgIoFuzzTest, DamagedAlignmentsLoadInRangeOrFail) {
  Rng rng(67);
  const StatusOr<KnowledgeGraph> source =
      LoadTriples(Write("source.tsv", ValidTriples(3)));
  const StatusOr<KnowledgeGraph> target =
      LoadTriples(Write("target.tsv", ValidTriples(4)));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(target.ok());
  const std::string valid = ValidAlignment();
  for (const bool strict : {false, true}) {
    const TsvReadOptions options{.strict = strict};
    for (const auto& [bytes, what] : Mutations(valid, rng, 40)) {
      Check(bytes, what, [&](const std::string& path) -> std::string {
        const StatusOr<EntityPairList> pairs =
            LoadAlignment(path, *source, *target, options);
        if (!pairs.ok()) {
          return pairs.status().code() == StatusCode::kInvalidArgument &&
                         strict
                     ? ""
                     : "status " + pairs.status().ToString();
        }
        for (const EntityPair& p : *pairs) {
          if (p.source < 0 || p.source >= source->num_entities() ||
              p.target < 0 || p.target >= target->num_entities()) {
            return "pair id out of range";
          }
        }
        return "";
      });
    }
  }
  EXPECT_GT(loads_, 300);
}

}  // namespace
}  // namespace largeea
