// Memory-budget-aware concurrent executor for a dag::Graph.
//
// Execution model (DESIGN.md §14):
//
// * Ready nodes (all producers done) are admitted in ascending node-id
//   order — which is the graph's serial order — so with
//   max_concurrency == 1 the scheduler reproduces the serial pipeline
//   exactly, fault-injection sequence included.
// * Admission under the budget: a ready node is started only if it is
//   the sole runnable node (progress guarantee) or the tracker's
//   current bytes plus the node's estimated footprint fit under the
//   budget; otherwise it is deferred (counted) and reconsidered when a
//   running node finishes or releases values.
// * Every intermediate value is released the moment its last consumer
//   finishes (unless retained), generalising the streaming layer's
//   ad-hoc release_inputs.
// * Each node runs inside a "dag/<name>" span with memory tracking, so
//   per-node wall time and peak bytes land in the trace and the run
//   report; Chrome flow arrows are recorded along every edge (start at
//   the producer's completion, end at each consumer's admission).
//
// Determinism: node bodies only decide *what* to compute; chunking
// inside them goes through par::ComputeChunks (thread-count-invariant)
// and concurrent bodies touch disjoint state, so the scheduled result
// is bit-identical to the serial order at any concurrency, budget, or
// SIMD backend. The schedule changes *when* things run, never what
// they produce.
#ifndef LARGEEA_DAG_SCHEDULER_H_
#define LARGEEA_DAG_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/dag/graph.h"
#include "src/rt/status.h"

namespace largeea::dag {

struct ScheduleOptions {
  /// Maximum nodes in flight; 1 reproduces the serial pipeline order.
  int32_t max_concurrency = 1;
  /// Tracked-bytes ceiling for admission; <= 0 means unbounded.
  int64_t memory_budget_bytes = 0;
  /// Thread-name prefix for the node worker threads in traces.
  std::string thread_prefix = "dag";
};

/// Per-node execution record, indexed like the graph's nodes.
struct NodeRun {
  std::string name;
  double seconds = 0.0;
  int64_t peak_bytes = 0;       ///< tracked peak while the node ran
  int64_t estimated_bytes = 0;  ///< the declared admission estimate
  bool from_checkpoint = false;
  int32_t deferrals = 0;  ///< times admission was denied by the budget
};

/// The one record of a run's nodes: RunLargeEa hands it back unchanged
/// (LargeEaResult::schedule), and the CLI's phase table, the run
/// report's `phases` and the benches read it.
struct ScheduleResult {
  std::vector<NodeRun> node_runs;
  /// Longest dependency chain by measured node seconds — the lower
  /// bound on wall time at infinite concurrency.
  double critical_path_seconds = 0.0;
  std::vector<std::string> critical_path;  ///< node names, source→sink
  int64_t total_deferrals = 0;

  /// The run of the node named `name`; null when the graph had no such
  /// node (an ablated channel's).
  const NodeRun* Find(std::string_view name) const;
};

/// Runs every node of `graph`. On a node failure, no further nodes are
/// started, in-flight nodes drain, and the failure of the lowest node
/// id is returned (the same error a serial run would have hit first).
StatusOr<ScheduleResult> Execute(Graph& graph,
                                 const ScheduleOptions& options);

}  // namespace largeea::dag

#endif  // LARGEEA_DAG_SCHEDULER_H_
