// Reproduces Table 6 (Appendix E): the memory usage of LargeEA.
//
// For every dataset, reports the measured peak tracked working set of the
// name channel and of the structure channel (LargeEA-R and LargeEA-G),
// with METIS-CPS partitioning versus without partition. The paper's
// observations to reproduce: the structure channel dominates memory on
// the large tier; partitioning cuts the structure channel's working set
// by a large factor; whole-graph training at the DBP1M tier is the
// configuration that dies on real hardware (we report its paper-scale
// estimate next to the measured value).
//
// Flags: --scale, --pair, --epochs, --skip_whole (skip w/o-partition
// runs), --json-out (machine-readable rows alongside the printed table).
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/baselines.h"
#include "src/core/large_ea.h"
#include "src/core/structure_channel.h"

using namespace largeea;
using namespace largeea::bench;

namespace {

// The name channel alone: the pipeline with the structure channel
// ablated. Its peak is the largest of its four nodes'; the run (and its
// fused matrix) is gone before the structure cells are measured.
int64_t NameChannelPeak(const EaDataset& ds) {
  LargeEaOptions options;
  options.use_structure_channel = false;
  options.stream.memory_budget_mb = 0;
  if (ds.source.num_entities() > 8000) {
    options.name_channel.nff.sens.use_lsh = true;
  }
  const LargeEaResult run = RunLargeEa(ds, options).value();
  int64_t peak = 0;
  for (const char* node : {"name_semantic", "name_string", "name_fuse",
                           "name_augmentation"}) {
    peak = std::max(peak, run.schedule.Find(node)->peak_bytes);
  }
  return peak;
}

int64_t StructurePeak(Tier tier, const EaDataset& ds, ModelKind model,
                      PartitionStrategy strategy, int32_t epochs) {
  StructureChannelOptions options;
  options.model = model;
  options.strategy = strategy;
  options.num_batches = TierBatchCount(tier);
  options.train.epochs = epochs;
  const StructureChannelResult result =
      RunStructureChannel(ds.source, ds.target, ds.split.train, options)
          .value();
  return result.peak_training_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.8);
  const auto epochs = static_cast<int32_t>(flags.GetInt("epochs", 15));
  const bool skip_whole = flags.GetBool("skip_whole", false);
  BenchJson json(flags, "table6_memory");

  std::printf("=== Table 6: The memory usage of LargeEA ===\n");
  std::printf("(structure channel cells: with METIS-CPS / without partition)\n");
  std::printf("%-18s %12s %24s %24s\n", "Dataset", "Name channel",
              "Structure (LargeEA-R)", "Structure (LargeEA-G)");
  PrintRule(84);
  for (const Tier tier : {Tier::kIds15k, Tier::kIds100k, Tier::kDbp1m}) {
    for (const LanguagePair pair : SelectedPairs(flags)) {
      const EaDataset ds = GenerateBenchmark(TierSpec(tier, pair, scale));

      const int64_t name_peak = NameChannelPeak(ds);

      const int64_t r_batched = StructurePeak(
          tier, ds, ModelKind::kRrea, PartitionStrategy::kMetisCps, epochs);
      const int64_t g_batched = StructurePeak(
          tier, ds, ModelKind::kGcnAlign, PartitionStrategy::kMetisCps,
          epochs);
      int64_t r_whole = -1, g_whole = -1;
      if (!skip_whole) {
        r_whole = StructurePeak(tier, ds, ModelKind::kRrea,
                                PartitionStrategy::kNone, epochs);
        g_whole = StructurePeak(tier, ds, ModelKind::kGcnAlign,
                                PartitionStrategy::kNone, epochs);
      }
      const auto cell = [](int64_t batched, int64_t whole) {
        std::string s = FormatBytes(batched) + " / ";
        s += whole < 0 ? "(skipped)" : FormatBytes(whole);
        return s;
      };
      std::printf("%-18s %12s %24s %24s\n", ds.name.c_str(),
                  FormatBytes(name_peak).c_str(),
                  cell(r_batched, r_whole).c_str(),
                  cell(g_batched, g_whole).c_str());
      if (!skip_whole && r_whole > 0) {
        std::printf("%-18s   batching saves: LargeEA-R %.1fx, LargeEA-G %.1fx\n",
                    "", static_cast<double>(r_whole) / r_batched,
                    static_cast<double>(g_whole) / g_batched);
      }
      std::fflush(stdout);
      BenchJson::Row row;
      row.Set("dataset", ds.name)
          .Set("name_channel_peak_bytes", name_peak)
          .Set("rrea_batched_peak_bytes", r_batched)
          .Set("rrea_whole_peak_bytes", r_whole)
          .Set("gcn_batched_peak_bytes", g_batched)
          .Set("gcn_whole_peak_bytes", g_whole);
      json.Add(std::move(row));
    }
  }
  std::printf(
      "\nShape checks: METIS-CPS batching shrinks the structure channel's\n"
      "peak by several x (the paper's '-' cells are whole-graph runs that\n"
      "no longer fit); the structure channel out-weighs the name channel\n"
      "at the DBP1M tier.\n");
  return 0;
}
