// Seeded fuzzing, with no corpus, of the one artifact reader
// (src/rt/artifact.h) and every payload decoder behind it: checkpoints
// of a matrix, a pair list and a mini-batch set, a serve index, and a
// spilled tile. Each valid artifact is damaged by bit flips (left
// unsealed, or resealed with a fresh header so the decoders see them),
// truncation at every header field and inside the payload, inflated
// length prefixes and kind swaps. Every load must return a Status —
// never crash — and no single allocation made while loading may exceed
// the file's size (a length field is checked against the bytes present
// before anything is sized from it); the file read into one string is
// the largest allocation, its bytes plus the terminating NUL.
//
// The allocation bound is measured by replacing the global allocation
// functions for this test binary; they forward to malloc/free and record
// the largest request while a load is being tracked. Files smaller than
// kSmallAllocation get that much headroom for error messages.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/la/matrix.h"
#include "src/obs/log.h"
#include "src/rt/artifact.h"
#include "src/rt/checkpoint.h"
#include "src/rt/io_util.h"
#include "src/serve/index_artifact.h"
#include "src/stream/memory_budget.h"
#include "src/stream/stream_options.h"
#include "src/stream/tile_store.h"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest{0};

void Note(size_t size) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

void* Allocate(size_t size, bool nothrow) {
  Note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr && !nothrow) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(size_t size, std::align_val_t align, bool nothrow) {
  Note(size);
  void* p = nullptr;
  const size_t alignment =
      std::max(static_cast<size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) p = nullptr;
  if (p == nullptr && !nothrow) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return Allocate(n, false); }
void* operator new[](size_t n) { return Allocate(n, false); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, true);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, true);
}
void* operator new(size_t n, std::align_val_t a) {
  return AllocateAligned(n, a, false);
}
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateAligned(n, a, false);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a, true);
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a, true);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace largeea {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSmallAllocation = 4096;
constexpr uint64_t kFingerprint = 0x5eed;

/// One artifact under test: its header fields, where its loader reads,
/// the loader, and the bytes of a valid file.
struct Target {
  std::string name;
  std::string family;
  std::string kind;
  uint64_t fingerprint = 0;
  std::string path;
  std::function<StatusCode()> load;
  std::string valid;
};

/// Splits a file into its header line (newline included) and payload.
std::pair<std::string, std::string> Split(const std::string& file) {
  const size_t newline = file.find('\n');
  return {file.substr(0, newline + 1), file.substr(newline + 1)};
}

std::string Reseal(const Target& t, const std::string& payload,
                   const std::string& kind) {
  return rt::ArtifactHeader(t.family, kind, t.fingerprint, payload) + payload;
}

class ArtifactFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("largeea_artifact_fuzz_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Every quarantined checkpoint logs a warning; thousands are noise.
    saved_log_level_ = obs::GetLogLevel();
    obs::SetLogLevel(obs::LogLevel::kError);
  }
  void TearDown() override {
    obs::SetLogLevel(saved_log_level_);
    fs::remove_all(dir_);
  }

  /// Writes `bytes` where `t` loads from, loads it, and checks the
  /// outcome: a code in `allowed`, and no allocation beyond the file.
  void Check(const Target& t, const std::string& bytes,
             std::initializer_list<StatusCode> allowed,
             const std::string& what) {
    {
      // A fresh file rather than a truncated one: ext4 flushes a file
      // rewritten after truncation at close, which is ~6x slower.
      std::error_code ec;
      fs::remove(t.path, ec);
      std::ofstream out(t.path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    g_largest.store(0);
    g_tracking.store(true);
    const StatusCode code = t.load();
    g_tracking.store(false);
    const size_t largest = g_largest.load();
    ++loads_;
    const bool code_ok =
        std::find(allowed.begin(), allowed.end(), code) != allowed.end();
    const size_t bound = std::max(bytes.size() + 1, kSmallAllocation);
    if ((!code_ok || largest > bound) && ++failures_ <= 10) {
      ADD_FAILURE() << t.name << ", " << what << ": code "
                    << StatusCodeName(code) << ", largest allocation "
                    << largest << " bytes for a " << bytes.size()
                    << "-byte file";
    }
  }

  void Fuzz(const Target& t, uint64_t seed, int rounds) {
    const auto [header, payload] = Split(t.valid);
    ASSERT_FALSE(payload.empty());
    Check(t, t.valid, {StatusCode::kOk}, "valid file");
    Rng rng(seed);
    const auto flip = [&rng](std::string bytes, size_t begin) {
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < flips; ++i) {
        const size_t at = begin + rng.Uniform(bytes.size() - begin);
        bytes[at] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      return bytes;
    };

    // Bit flips left unsealed: in the payload only the checksum can
    // catch them; in the header any field may change meaning.
    for (int i = 0; i < rounds; ++i) {
      Check(t, flip(t.valid, header.size()), {StatusCode::kDataLoss},
            "payload bit flip");
      Check(t, flip(t.valid, 0),
            {StatusCode::kOk, StatusCode::kDataLoss,
             StatusCode::kFailedPrecondition},
            "bit flip");
    }
    // Bit flips resealed, so the payload decoder sees them.
    for (int i = 0; i < rounds; ++i) {
      Check(t, Reseal(t, flip(payload, 0), t.kind),
            {StatusCode::kOk, StatusCode::kDataLoss}, "resealed bit flip");
    }
    // Truncation at and inside every header field, and in the payload
    // (unsealed, then resealed).
    for (size_t cut = 0; cut < header.size(); ++cut) {
      Check(t, t.valid.substr(0, cut), {StatusCode::kDataLoss},
            "header cut at " + std::to_string(cut));
    }
    for (int i = 0; i < rounds; ++i) {
      const size_t cut = rng.Uniform(payload.size());
      Check(t, t.valid.substr(0, header.size() + cut),
            {StatusCode::kDataLoss}, "payload cut at " + std::to_string(cut));
      Check(t, Reseal(t, payload.substr(0, cut), t.kind),
            {StatusCode::kDataLoss},
            "resealed payload cut at " + std::to_string(cut));
    }
    // Inflated length prefixes: a large 4- or 8-byte value written over
    // the payload, resealed. The first 96 bytes (the shapes and counts
    // up front) get every offset, the rest random ones.
    const uint64_t inflated[] = {
        ~uint64_t{0},      uint64_t{1} << 63,      uint64_t{1} << 31,
        0xffffffffu,       payload.size() / 8 + 1, uint64_t{1} << 40,
        0x7fffffffu,       payload.size(),         payload.size() / 4 + 1};
    const auto inflate = [&](size_t at, size_t num_values) {
      for (size_t v = 0; v < num_values; ++v) {
        for (const size_t width : {size_t{4}, size_t{8}}) {
          if (at + width > payload.size()) continue;
          std::string damaged = payload;
          std::memcpy(damaged.data() + at, &inflated[v], width);
          Check(t, Reseal(t, damaged, t.kind),
                {StatusCode::kOk, StatusCode::kDataLoss},
                "value " + std::to_string(inflated[v]) + " over " +
                    std::to_string(width) + " bytes at " +
                    std::to_string(at));
        }
      }
    };
    for (size_t at = 0; at < std::min<size_t>(payload.size(), 96); ++at) {
      inflate(at, 5);
    }
    for (int i = 0; i < rounds / 2; ++i) {
      inflate(rng.Uniform(payload.size()), std::size(inflated));
    }
  }

  std::string dir_;
  obs::LogLevel saved_log_level_ = obs::LogLevel::kInfo;
  int64_t loads_ = 0;
  int64_t failures_ = 0;
};

SparseSimMatrix SampleMatrix(int32_t rows, int32_t cols, uint64_t seed) {
  SparseSimMatrix m(rows, cols, 6);
  Rng rng(seed);
  for (int32_t r = 0; r < rows; ++r) {
    for (int i = 0; i < 6; ++i) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(cols)),
                   static_cast<float>(rng.UniformDouble()) - 0.25f);
    }
  }
  return m;
}

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

/// The three checkpoint codecs, saved by a CheckpointManager and loaded
/// back through it.
std::vector<Target> CheckpointTargets(rt::CheckpointManager& ckpt) {
  EXPECT_TRUE(ckpt.SaveMatrix("fused", SampleMatrix(120, 90, 3)).ok());
  EntityPairList pairs;
  for (int32_t i = 0; i < 600; ++i) pairs.push_back({i, (i * 7) % 600});
  EXPECT_TRUE(ckpt.SavePairs("seeds", pairs).ok());
  MiniBatchSet batches(3);
  for (int32_t b = 0; b < 3; ++b) {
    for (int32_t i = 0; i < 200; ++i) {
      batches[b].source_entities.push_back(b * 200 + i);
      batches[b].target_entities.push_back(b * 200 + (i * 3) % 200);
      if (i % 4 == 0) batches[b].seeds.push_back({b * 200 + i, b * 200 + i});
    }
  }
  EXPECT_TRUE(ckpt.SaveBatches("partition", batches).ok());

  const auto target = [&ckpt](std::string kind,
                              std::function<StatusCode()> load) {
    const std::string path = ckpt.PathFor(kind);
    auto valid = rt::ReadFileToString(path);
    EXPECT_TRUE(valid.ok());
    return Target{"checkpoint " + kind,
                  std::string(rt::kCheckpointFamily),
                  kind,
                  kFingerprint,
                  path,
                  std::move(load),
                  std::move(valid).value()};
  };
  return {
      target("fused",
             [&ckpt] { return ckpt.LoadMatrix("fused").status().code(); }),
      target("seeds",
             [&ckpt] { return ckpt.LoadPairs("seeds").status().code(); }),
      target("partition", [&ckpt] {
        return ckpt.LoadBatches("partition").status().code();
      })};
}

TEST_F(ArtifactFuzzTest, CheckpointReadersReturnAStatusAndStayWithinTheFile) {
  rt::CheckpointManager ckpt(dir_, kFingerprint, /*resume=*/true);
  uint64_t seed = 101;
  for (const Target& t : CheckpointTargets(ckpt)) Fuzz(t, seed++, 150);
  EXPECT_GT(loads_, 8000);
}

// Every codec's payload resealed under every other kind's name: the
// decoder of the wrong type must refuse it. And a file of another family
// is refused by magic.
TEST_F(ArtifactFuzzTest, KindSwapsAreDataLoss) {
  rt::CheckpointManager ckpt(dir_, kFingerprint, /*resume=*/true);
  const std::vector<Target> targets = CheckpointTargets(ckpt);
  for (const Target& from : targets) {
    const std::string payload = Split(from.valid).second;
    for (const Target& to : targets) {
      if (&from == &to) continue;
      Check(to, Reseal(to, payload, to.kind), {StatusCode::kDataLoss},
            "payload of " + from.name);
      // The right payload under the wrong kind field.
      Check(to, Reseal(to, Split(to.valid).second, from.kind),
            {StatusCode::kDataLoss}, "kind field " + from.kind);
    }
    Check(from,
          rt::ArtifactHeader(rt::kIndexFamily, from.kind, kFingerprint,
                             payload) +
              payload,
          {StatusCode::kDataLoss}, "index family");
  }
}

TEST_F(ArtifactFuzzTest, IndexReaderReturnsAStatusAndStaysWithinTheFile) {
  serve::ServeIndexOptions options;
  options.encoder.dim = 16;
  auto built = serve::ServeIndex::Build(SampleMatrix(40, 60, 5),
                                        Names(40, 6), Names(60, 7),
                                        kFingerprint, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = dir_ + "/serve.idx";
  ASSERT_TRUE((*built)->Save(path).ok());
  auto valid = rt::ReadFileToString(path);
  ASSERT_TRUE(valid.ok());
  const Target index{"index",
                     std::string(rt::kIndexFamily),
                     "serve",
                     kFingerprint,
                     path,
                     [path] {
                       return serve::ServeIndex::Load(path).status().code();
                     },
                     *valid};
  Fuzz(index, 201, 120);
  // A tile is not an index, and neither is an index payload under the
  // tile kind.
  const std::string payload = Split(*valid).second;
  Check(index,
        rt::ArtifactHeader(rt::kTileFamily, "serve", kFingerprint, payload) +
            payload,
        {StatusCode::kDataLoss}, "tile family");
  Check(index, Reseal(index, payload, "dense"), {StatusCode::kDataLoss},
        "kind dense");
  EXPECT_GT(loads_, 2500);
}

TEST_F(ArtifactFuzzTest, TileReaderReturnsAStatusAndStaysWithinTheFile) {
  stream::StreamOptions stream_options;
  stream_options.memory_budget_mb = 64;
  const stream::MemoryBudget budget(stream_options);
  std::string valid;
  {
    stream::TileStore store(budget, dir_ + "/spill");
    Rng rng(9);
    Matrix tile(24, 20);
    tile.GlorotInit(rng);
    store.Put(std::move(tile));
    auto bytes = rt::ReadFileToString(dir_ + "/spill/tile-000000.bin");
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    valid = std::move(bytes).value();
  }
  const std::string path = dir_ + "/tile.bin";
  const Target tile{"tile",
                    std::string(rt::kTileFamily),
                    "dense",
                    /*fingerprint=*/0,
                    path,
                    [path] {
                      return stream::ReadTileFile(path, 24, 20)
                          .status()
                          .code();
                    },
                    valid};
  Fuzz(tile, 301, 150);
  // The right bytes read as another shape.
  Target other_shape = tile;
  other_shape.name = "tile as 20 x 24";
  other_shape.load = [path] {
    return stream::ReadTileFile(path, 20, 24).status().code();
  };
  Check(other_shape, valid, {StatusCode::kDataLoss}, "other shape");
  EXPECT_GT(loads_, 2500);
}

}  // namespace
}  // namespace largeea
