// Design-choice ablation (DESIGN.md §4): similarity calibration and
// channel-fusion strategies.
//
// The paper fuses M = M_s + M_n with equal weights and decodes by row
// argmax. This bench isolates the calibration choices this
// implementation makes on top:
//   * CSLS hubness correction of M_s (on by default) vs. raw M_s;
//   * the name-fusion weight γ of STNS inside NFF;
//   * structural-model choice (RREA vs. GCN vs. TransE) under identical
//     channels.
//
// Flags: --scale, --pair (default enfr), --epochs.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/evaluator.h"

using namespace largeea;
using namespace largeea::bench;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const auto epochs = static_cast<int32_t>(flags.GetInt("epochs", 50));
  const LanguagePair pair = SelectedPairs(flags).front();
  const Tier tier = Tier::kIds15k;
  const EaDataset dataset = GenerateBenchmark(TierSpec(tier, pair, scale));

  std::printf("=== Fusion/calibration ablation (%s) ===\n",
              dataset.name.c_str());
  std::printf("%-44s %7s %7s %7s\n", "Configuration", "H@1", "H@5", "MRR");
  PrintRule(70);
  const auto report = [](const char* label, const EvalMetrics& m) {
    std::printf("%-44s %6.1f%% %6.1f%% %7.3f\n", label, 100 * m.hits_at_1,
                100 * m.hits_at_5, m.mrr);
    std::fflush(stdout);
  };

  // Baseline configuration.
  const LargeEaOptions base =
      DefaultOptions(tier, dataset, ModelKind::kRrea, epochs);
  report("default (RREA, CSLS on M_s, argmax)",
         RunLargeEa(dataset, base).value().metrics);

  {
    LargeEaOptions options = base;
    options.structure_channel.apply_csls = false;
    report("w/o CSLS on M_s",
           RunLargeEa(dataset, options).value().metrics);
  }
  for (const float gamma : {0.0f, 0.05f, 0.3f}) {
    LargeEaOptions options = base;
    options.name_channel.nff.string_weight = gamma;
    char label[64];
    std::snprintf(label, sizeof(label), "NFF string weight gamma = %.2f",
                  gamma);
    report(label, RunLargeEa(dataset, options).value().metrics);
  }
  for (const ModelKind model :
       {ModelKind::kGcnAlign, ModelKind::kTransE}) {
    LargeEaOptions options =
        DefaultOptions(tier, dataset, model, epochs);
    char label[64];
    std::snprintf(label, sizeof(label), "structural model = %s",
                  ModelKindName(model));
    report(label, RunLargeEa(dataset, options).value().metrics);
  }

  std::printf(
      "\nReading guide: CSLS calibration matters when the structure channel\n"
      "is weak/noisy (small batches; see tests) and is ~neutral when it is\n"
      "strong; gamma = 0.05 (the paper's choice) sits near the optimum;\n"
      "RREA > GCN > TransE as the structural plug-in, matching the EA\n"
      "literature.\n");
  return 0;
}
