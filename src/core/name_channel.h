// Name channel (Section 2.3): NFF name features plus the name-based data
// augmentation producing pseudo seeds. The channel runs as the pipeline
// DAG's name_semantic / name_string / name_fuse / name_augmentation
// operators (src/dag/pipeline_dag.cc); a run returns their pseudo seeds
// in LargeEaResult::pseudo_seeds and their timings in its schedule.
#ifndef LARGEEA_CORE_NAME_CHANNEL_H_
#define LARGEEA_CORE_NAME_CHANNEL_H_

#include "src/name/data_augmentation.h"
#include "src/name/nff.h"

namespace largeea {

struct NameChannelOptions {
  NffOptions nff;
  /// Generate pseudo seeds by mutual nearest neighbours on M_n.
  bool enable_augmentation = true;
  /// Relative top1-vs-top2 margin required of a pseudo seed (see
  /// GeneratePseudoSeeds); trades recall for precision on noisy names.
  float augmentation_margin = 0.08f;
};

}  // namespace largeea

#endif  // LARGEEA_CORE_NAME_CHANNEL_H_
