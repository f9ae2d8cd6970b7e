// Cross-lingual alignment at the DBP1M tier — the paper's headline
// workload: unbalanced KGs, unknown entities, mini-batch training.
//
// Demonstrates the full public API surface: dataset generation (or TSV
// loading), per-channel execution, channel fusion, evaluation, and
// exporting the predicted alignment to a TSV file.
//
//   ./build/examples/cross_lingual_alignment [--scale 0.5] [--pair ende]
//       [--out /tmp/predicted_alignment.tsv]
//       [--source triples_a.tsv --target triples_b.tsv --seeds seeds.tsv]
#include <cstdio>

#include "src/common/flags.h"
#include "src/core/large_ea.h"
#include "src/gen/benchmark_gen.h"
#include "src/kg/kg_io.h"
#include "src/obs/metrics.h"

using namespace largeea;

namespace {

// Assembles the EA task either from TSV files or from the generator.
EaDataset BuildDataset(const Flags& flags) {
  const std::string source_path = flags.GetString("source", "");
  if (!source_path.empty()) {
    EaDatasetPaths paths;
    paths.source_triples = source_path;
    paths.target_triples = flags.GetString("target", "");
    paths.train_pairs = flags.GetString("seeds", "");
    auto dataset = LoadEaDataset(paths, {}, "user-supplied");
    if (!dataset.ok()) {
      std::fprintf(stderr, "failed to load dataset: %s\n",
                   dataset.status().ToString().c_str());
      std::exit(1);
    }
    // Everything supplied is training data (no held-out test split).
    return std::move(dataset).value();
  }
  const LanguagePair pair = flags.GetString("pair", "enfr") == "ende"
                                ? LanguagePair::kEnDe
                                : LanguagePair::kEnFr;
  return GenerateBenchmark(Dbp1mSpec(pair, flags.GetDouble("scale", 0.5)));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const EaDataset dataset = BuildDataset(flags);
  std::printf("dataset %s: %d vs %d entities, %ld vs %ld triples, %zu seeds\n",
              dataset.name.c_str(), dataset.source.num_entities(),
              dataset.target.num_entities(),
              static_cast<long>(dataset.source.num_triples()),
              static_cast<long>(dataset.target.num_triples()),
              dataset.split.train.size());

  LargeEaOptions options;
  options.structure_channel.model = ModelKind::kRrea;
  options.structure_channel.num_batches =
      static_cast<int32_t>(flags.GetInt("batches", 8));
  options.structure_channel.train.epochs =
      static_cast<int32_t>(flags.GetInt("epochs", 50));
  if (dataset.source.num_entities() > 8000) {
    options.name_channel.nff.sens.use_lsh = true;  // Faiss-style ANN path
  }

  const LargeEaResult result = RunLargeEa(dataset, options).value();
  // The run releases M_se and M_st once they are fused; their entry
  // counts stay in the metrics registry (and the run report).
  const auto entries = [](const char* gauge) {
    return static_cast<long>(
        obs::MetricsRegistry::Get().GetGauge(gauge).Value());
  };
  std::printf("\nchannel breakdown:\n");
  std::printf("  SENS (semantic names): %.2fs, %ld candidates\n",
              result.name_channel.nff.sens_seconds,
              entries("name.semantic_entries"));
  std::printf("  STNS (string names):   %.2fs, %ld candidates\n",
              result.name_channel.nff.stns_seconds,
              entries("name.string_entries"));
  std::printf("  data augmentation:     %zu pseudo seeds\n",
              result.name_channel.pseudo_seeds.size());
  std::printf("  METIS-CPS partition:   %.2fs, %zu batches\n",
              result.structure_channel.partition_seconds,
              result.structure_channel.batches.size());
  std::printf("  mini-batch training:   %.2fs\n",
              result.structure_channel.training_seconds);

  if (result.metrics.num_test_pairs > 0) {
    std::printf("\nevaluation: H@1 %.1f%%  H@5 %.1f%%  MRR %.3f\n",
                100 * result.metrics.hits_at_1,
                100 * result.metrics.hits_at_5, result.metrics.mrr);
  }

  // Export the predicted 1-best alignment for every source entity whose
  // fused row is non-empty.
  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    EntityPairList predictions;
    for (int32_t s = 0; s < result.fused.num_rows(); ++s) {
      const EntityId t = result.fused.ArgmaxOfRow(s);
      if (t != kInvalidEntity) predictions.push_back(EntityPair{s, t});
    }
    if (SaveAlignment(predictions, dataset.source, dataset.target, out)
            .ok()) {
      std::printf("wrote %zu predicted pairs to %s\n", predictions.size(),
                  out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
  }
  return 0;
}
