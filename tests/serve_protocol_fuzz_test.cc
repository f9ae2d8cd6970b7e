// Seeded fuzzing, with no corpus, of the serve protocol: ServeLoop::Run
// over sessions of valid request lines — entity, name and exact-name
// queries (one name spelled with every JSON escape, a surrogate pair
// included, so damage reaches the string decoder), stats and swaps —
// damaged by bit flips, truncation, duplicated or missing keys, huge
// numbers and over-long lines. Every request line must get exactly one
// response line, in order, and the loop must keep serving: each session
// ends with a valid query, which is answered.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/serve_loop.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> Names(int32_t n, uint64_t seed) {
  static const char* const kWords[] = {"alda", "brin", "ceto", "doral",
                                       "evik", "fenor", "gil", "hasem"};
  Rng rng(seed);
  std::vector<std::string> names;
  for (int32_t i = 0; i < n; ++i) {
    names.push_back(std::string(kWords[rng.Uniform(8)]) + ' ' +
                    kWords[rng.Uniform(8)] + ' ' + std::to_string(i));
  }
  return names;
}

class ServeProtocolFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SparseSimMatrix fused(30, 60, 6);
    Rng rng(5);
    for (int32_t s = 0; s < 30; ++s) {
      for (int i = 0; i < 6; ++i) {
        fused.Accumulate(s, static_cast<EntityId>(rng.Uniform(60)),
                         static_cast<float>(rng.UniformDouble()));
      }
    }
    serve::ServeIndexOptions options;
    options.encoder.dim = 16;
    auto index = serve::ServeIndex::Build(fused, Names(30, 6), Names(60, 7),
                                          0xf022, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(index).value();
    path_ = (fs::temp_directory_path() /
             ("largeea_protocol_fuzz_" + std::to_string(::getpid()) + ".idx"))
                .string();
    ASSERT_TRUE(index_->Save(path_).ok());
  }
  void TearDown() override { fs::remove(path_); }

  /// A valid request line.
  std::string ValidLine(Rng& rng) const {
    switch (rng.Uniform(7)) {
      case 0:
        return R"({"op":"query","entity":)" + std::to_string(rng.Uniform(40)) +
               R"(,"k":)" + std::to_string(1 + rng.Uniform(8)) + "}";
      case 1:
        return R"({"op":"query","name":"alda gil )" +
               std::to_string(rng.Uniform(60)) + R"(","k":4})";
      case 2:
        return R"({"op":"query","name":"doral evik","exact":true,"k":3})";
      case 3:
        return R"({"op":"stats"})";
      case 4:
        return R"({"op":"swap","index":")" + path_ + R"("})";
      case 5:  // every escape, a BMP character and a surrogate pair
        return R"({"op":"query","name":"\u0061lda\t\"gil\" \\\/\b\f\r\n )"
               R"(\u00e9 \ud83d\ude00","k":2})";
      default:
        return R"({"entity":)" + std::to_string(rng.Uniform(30)) + "}";
    }
  }

  /// One damaged request line: never empty, no newline inside, and never
  /// the quit op, which would end the session early.
  std::string Damage(Rng& rng) const {
    static const char* const kKeys[] = {"op", "entity", "name", "k",
                                        "exact", "index"};
    static const char* const kHuge[] = {
        "99999999999999999999999", "-9223372036854775809", "2147483648",
        "600000000", "2147483647", "-2147483648", "1e309", "-0", "0x10",
        "NaN"};
    std::string line = ValidLine(rng);
    switch (rng.Uniform(7)) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < flips; ++i) {
          line[rng.Uniform(line.size())] ^=
              static_cast<char>(1 << rng.Uniform(8));
        }
        break;
      }
      case 1:  // truncation
        line.resize(1 + rng.Uniform(line.size()));
        break;
      case 2: {  // a duplicated key, with a value of another type
        const std::string key = kKeys[rng.Uniform(std::size(kKeys))];
        const std::string value =
            rng.Uniform(2) == 0 ? std::to_string(rng.Uniform(100))
                                : "\"" + key + "\"";
        line.insert(line.size() - 1, ",\"" + key + "\":" + value);
        break;
      }
      case 3: {  // a missing key: drop one "key":value pair
        const std::string key =
            std::string("\"") + kKeys[rng.Uniform(std::size(kKeys))] + "\":";
        const size_t at = line.find(key);
        if (at == std::string::npos) break;
        const size_t end = line.find_first_of(",}", at + key.size());
        if (end == std::string::npos) break;
        line.erase(at, end - at + (line[end] == ',' ? 1 : 0));
        break;
      }
      case 4: {  // a huge or malformed number as the entity or k
        const std::string key = rng.Uniform(2) == 0 ? "entity" : "k";
        line = R"({"op":"query",")" + key + R"(":)" +
               kHuge[rng.Uniform(std::size(kHuge))] +
               (key == "k" ? R"(,"name":"gil jun"})" : "}");
        break;
      }
      case 5:  // over-long: a name past the line cap
        line = R"({"op":"query","name":")" +
               std::string(serve::kMaxRequestBytes + rng.Uniform(5000), 'a') +
               R"("})";
        break;
      default:  // over-long garbage
        line = std::string(serve::kMaxRequestBytes - 2 + rng.Uniform(5),
                           static_cast<char>('!' + rng.Uniform(90)));
        break;
    }
    for (char& c : line) {
      if (c == '\n') c = ' ';
    }
    if (line.empty() || line.find("quit") != std::string::npos) {
      return ValidLine(rng);
    }
    return line;
  }

  std::shared_ptr<const serve::ServeIndex> index_;
  std::string path_;
};

TEST_F(ServeProtocolFuzzTest, EveryRequestLineGetsOneResponseLine) {
  int64_t requests = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    serve::IndexManager manager(index_);
    serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
    const int lines = 150;
    std::string session;
    for (int i = 0; i < lines; ++i) session += Damage(rng) + '\n';
    session += R"({"op":"query","entity":0,"k":1})" "\n";
    std::istringstream in(session);
    std::ostringstream out;
    const serve::ServeLoopStats stats = loop.Run(in, out);
    EXPECT_FALSE(stats.saw_quit);

    std::vector<std::string> responses;
    std::istringstream reread(out.str());
    for (std::string line; std::getline(reread, line);) {
      responses.push_back(line);
    }
    ASSERT_EQ(responses.size(), static_cast<size_t>(lines + 1))
        << "seed " << seed;
    for (const std::string& response : responses) {
      ASSERT_TRUE(response.starts_with("{\"ok\":") && response.ends_with("}"))
          << "seed " << seed << ": " << response.substr(0, 200);
    }
    EXPECT_TRUE(responses.back().starts_with("{\"ok\":true"))
        << "seed " << seed << ": " << responses.back();
    requests += lines + 1;
    failed += stats.failed;
  }
  // The damage reaches the error paths, and valid lines still answer.
  EXPECT_GT(failed, requests / 4);
  EXPECT_LT(failed, requests);
}

// A line one byte over the cap is refused; one at the cap is read whole.
TEST_F(ServeProtocolFuzzTest, LineCapIsExact) {
  serve::IndexManager manager(index_);
  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
  const std::string head = R"({"op":"query","entity":1,"k":1})";
  const std::string at_cap =
      head + std::string(serve::kMaxRequestBytes - head.size(), ' ');
  std::istringstream in(at_cap + "\n" + at_cap + " \n" + head + "\n");
  std::ostringstream out;
  loop.Run(in, out);
  std::vector<std::string> responses;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) {
    responses.push_back(line);
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].starts_with("{\"ok\":true")) << responses[0];
  EXPECT_NE(responses[1].find("INVALID_ARGUMENT"), std::string::npos)
      << responses[1];
  EXPECT_EQ(responses[2], responses[0]);
}

}  // namespace
}  // namespace largeea
