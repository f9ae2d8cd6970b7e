// Golden bytes of the structural models' Train() outputs.
//
// Each bundled model trains on two fixed small graphs that carry every
// shape the per-edge loops must get right: a self-loop, a duplicated
// edge, an isolated vertex and a relation that no edge uses. The FNV-1a
// 64 hashes of both embedding matrices and of `final_loss` were recorded
// from the build before the epoch's loops and the Adam step moved into
// the SIMD kernel table, and must hold under every backend the CPU
// supports: the kernels perform the same IEEE operations in the same
// order as the loops they replaced, so not one bit may move. Dim 48 is
// the pipeline's default; dim 45 leaves a 5-wide tail after the 8-wide
// steps.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/kg/knowledge_graph.h"
#include "src/la/matrix.h"
#include "src/nn/batch_graph.h"
#include "src/nn/ea_model.h"
#include "src/rt/io_util.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

constexpr int32_t kEntities = 40;
constexpr int32_t kRelations = 4;  // relation 3 has no edge

/// A random graph over kEntities entities plus the special shapes.
/// Entity kEntities - 1 stays isolated.
KnowledgeGraph GoldenKg(uint64_t seed) {
  KnowledgeGraph kg;
  for (int32_t i = 0; i < kEntities; ++i) {
    kg.AddEntity("e" + std::to_string(i));
  }
  for (int32_t r = 0; r < kRelations; ++r) {
    kg.AddRelation("r" + std::to_string(r));
  }
  Rng rng(seed);
  for (int32_t i = 0; i < 70; ++i) {
    const auto h = static_cast<EntityId>(rng.Uniform(kEntities - 1));
    const auto t = static_cast<EntityId>(rng.Uniform(kEntities - 1));
    const auto r = static_cast<RelationId>(rng.Uniform(kRelations - 1));
    kg.AddTriple(h, r, t);
  }
  kg.AddTriple(3, 1, 3);  // self-loop
  kg.AddTriple(5, 2, 7);  // duplicated edge
  kg.AddTriple(5, 2, 7);
  kg.BuildAdjacency();
  return kg;
}

struct Golden {
  ModelKind model;
  int32_t dim;
  uint64_t source;
  uint64_t target;
  uint64_t loss;
};

uint64_t HashBytes(const void* data, size_t bytes) {
  return rt::Fnv1a64(
      std::string_view(static_cast<const char*>(data), bytes));
}

Golden TrainAndHash(ModelKind model, int32_t dim) {
  const KnowledgeGraph source_kg = GoldenKg(11);
  const KnowledgeGraph target_kg = GoldenKg(12);
  std::vector<EntityId> all(kEntities);
  for (int32_t i = 0; i < kEntities; ++i) all[i] = i;
  const LocalGraph source = BuildLocalGraph(source_kg, all);
  const LocalGraph target = BuildLocalGraph(target_kg, all);
  std::vector<std::pair<int32_t, int32_t>> seeds;
  for (int32_t i = 0; i < 24; ++i) seeds.emplace_back(i, (i * 7) % 24);

  TrainOptions options;
  options.dim = dim;
  options.epochs = 12;
  // Refresh at epochs 0, 5 and 10, so both random and nearest negatives
  // feed the loss; an 18-candidate pool leaves a partial group of four.
  options.hard_negative_refresh = 5;
  options.hard_negative_pool = 18;
  options.seed = 7;
  const TrainedEmbeddings trained =
      MakeModel(model)->Train(source, target, seeds, options);
  return Golden{
      model, dim,
      HashBytes(trained.source.data(),
                static_cast<size_t>(trained.source.size()) * sizeof(float)),
      HashBytes(trained.target.data(),
                static_cast<size_t>(trained.target.size()) * sizeof(float)),
      HashBytes(&trained.final_loss, sizeof(trained.final_loss))};
}

TEST(TrainGoldenTest, OutputsMatchGoldenUnderEveryBackend) {
  const Golden kGoldens[] = {
      {ModelKind::kRrea, 48,
       0xe6d54c535f93c7bb, 0xa23ec76ea290c6a3, 0x074a421df2adfd03},
      {ModelKind::kRrea, 45,
       0x55ebf701b2439026, 0x5e946d47429f7b02, 0xdbfe74c8f4f78598},
      {ModelKind::kGcnAlign, 48,
       0xa70d23d3a1f424a4, 0x2e0f297faee5b00c, 0x2e4be76fc7f79de8},
      {ModelKind::kGcnAlign, 45,
       0x15c5bd8b98568744, 0xc4d189b5bb253ef1, 0xfee05c87b82f8508},
      {ModelKind::kTransE, 48,
       0x47bc3cb875db09f8, 0xb8754d9cc3907ac1, 0x93d9c7254a805c7c},
      {ModelKind::kTransE, 45,
       0xa567ce0f6361154d, 0x98a9a2d4903da477, 0x26f94c5e5041cf77},
  };
  const simd::Backend saved = simd::ActiveBackend();
  for (const simd::Backend backend : simd::AvailableBackends()) {
    simd::SetBackend(backend);
    for (const Golden& want : kGoldens) {
      const Golden got = TrainAndHash(want.model, want.dim);
      SCOPED_TRACE(std::string(simd::BackendName(backend)) + " " +
                   ModelKindName(want.model) + " dim " +
                   std::to_string(want.dim));
      EXPECT_EQ(got.source, want.source);
      EXPECT_EQ(got.target, want.target);
      EXPECT_EQ(got.loss, want.loss);
    }
  }
  simd::SetBackend(saved);
}

}  // namespace
}  // namespace largeea
