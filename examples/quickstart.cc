// Quickstart: generate a small synthetic cross-lingual EA benchmark and
// run the full LargeEA pipeline on it.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--entities 2000] [--batches 4]
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/timer.h"
#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"

int main(int argc, char** argv) {
  using namespace largeea;
  const Flags flags(argc, argv);

  // 1. Build (or load — see kg_io.h) an EA dataset: two KGs + seeds.
  BenchmarkSpec spec = Ids15kSpec(LanguagePair::kEnFr);
  spec.world.num_entities =
      static_cast<int32_t>(flags.GetInt("entities", 2000));
  std::printf("generating %s with ~%d entities per side...\n",
              spec.name.c_str(), spec.world.num_entities);
  const EaDataset dataset = GenerateBenchmark(spec);
  const DatasetStats stats = ComputeStats(dataset);
  std::printf("  source: %d entities, %d relations, %ld triples\n",
              stats.source_entities, stats.source_relations,
              static_cast<long>(stats.source_triples));
  std::printf("  target: %d entities, %d relations, %ld triples\n",
              stats.target_entities, stats.target_relations,
              static_cast<long>(stats.target_triples));
  std::printf("  alignment: %ld pairs (%ld seeds)\n",
              static_cast<long>(stats.alignment_pairs),
              static_cast<long>(stats.seed_pairs));

  // 2. Configure LargeEA: RREA structural model, METIS-CPS mini-batches,
  //    NFF name features, name-based data augmentation.
  LargeEaOptions options;
  options.structure_channel.model = ModelKind::kRrea;
  options.structure_channel.num_batches =
      static_cast<int32_t>(flags.GetInt("batches", 4));
  options.structure_channel.train.epochs =
      static_cast<int32_t>(flags.GetInt("epochs", 50));

  // 3. Run and inspect.
  Timer timer;
  const LargeEaResult result = RunLargeEa(dataset, options).value();
  // Every pipeline operator's wall time is in the run's schedule.
  const auto seconds = [&result](const char* node) {
    return result.schedule.Find(node)->seconds;
  };
  std::printf("\nname channel: SENS %.2fs, STNS %.2fs, %zu pseudo seeds\n",
              seconds("name_semantic"), seconds("name_string"),
              result.pseudo_seeds.size());
  std::printf("structure channel: partition %.2fs, training %.2fs\n",
              seconds("partition"), seconds("structure_train"));
  std::printf("\nLargeEA-R results (%.1fs total):\n", timer.Seconds());
  std::printf("  H@1 = %.1f%%  H@5 = %.1f%%  MRR = %.3f  (on %ld test pairs)\n",
              100.0 * result.metrics.hits_at_1,
              100.0 * result.metrics.hits_at_5, result.metrics.mrr,
              static_cast<long>(result.metrics.num_test_pairs));
  return 0;
}
