// Largest-allocation probe for the fuzz tests of the readers of outside
// bytes (tests/artifact_fuzz_test.cc, tests/kg_io_fuzz_test.cc).
//
// The test binary replaces the global allocation functions (see
// allocation_probe.cc); they forward to malloc/free and, between Start
// and Stop, record the largest single request made by any thread. A
// reader that sizes a buffer from an unchecked length field shows up as
// a request far beyond the file it read.
#ifndef LARGEEA_TESTS_ALLOCATION_PROBE_H_
#define LARGEEA_TESTS_ALLOCATION_PROBE_H_

#include <cstddef>

namespace largeea {

/// Clears the record and starts tracking allocation requests.
void StartAllocationProbe();

/// Stops tracking; returns the largest request since the last Start.
size_t StopAllocationProbe();

}  // namespace largeea

#endif  // LARGEEA_TESTS_ALLOCATION_PROBE_H_
