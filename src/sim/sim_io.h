// Persistence for sparse similarity matrices.
//
// Channel outputs (M_s, M_n, fused M) are the expensive artefacts of a
// LargeEA run; pipeline checkpoints and the serve index artifact carry
// them in this text format, so a resume or a served index never re-runs
// training. Format: a text header
// ("largeea-sim v1 <rows> <cols> <max_entries>") followed by one
// "row<TAB>col<TAB>score" line per entry. Scores are written as %.9g
// prints them (std::to_chars, general format, precision 9), which
// round-trips float exactly — a serialise/parse cycle is bit-identical,
// the property the checkpoint/resume layer depends on.
#ifndef LARGEEA_SIM_SIM_IO_H_
#define LARGEEA_SIM_SIM_IO_H_

#include <string>
#include <string_view>

#include "src/rt/status.h"
#include "src/sim/sparse_sim.h"

namespace largeea {

/// Serialises `m` in the sim-matrix text format.
std::string SimMatrixToString(const SparseSimMatrix& m);

/// Parses a matrix serialised by SimMatrixToString. INVALID_ARGUMENT on
/// malformed content (bad header, field count, out-of-range indices).
StatusOr<SparseSimMatrix> SimMatrixFromString(std::string_view text);

}  // namespace largeea

#endif  // LARGEEA_SIM_SIM_IO_H_
