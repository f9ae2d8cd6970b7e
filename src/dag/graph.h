// Explicit operator graph for the LargeEA pipeline (DESIGN.md §14).
//
// A Graph is a set of nodes (operators) wired through values (the
// intermediates flowing between them). Each node declares which values
// it reads and writes plus an estimated working-set footprint; each
// value declares whether it must survive the run (`retain`) and how to
// free its backing storage. The scheduler (src/dag/scheduler.h) uses
// exactly these declarations to overlap independent subgraphs, admit
// nodes under the memory budget, and release every intermediate the
// moment its last consumer finishes.
//
// Node ids double as the topological (and serial-execution) order:
// AddNode requires every input value's producer to already exist, so
// ascending id is always a valid schedule — the property the scheduler
// leans on for determinism and that Validate() re-checks.
#ifndef LARGEEA_DAG_GRAPH_H_
#define LARGEEA_DAG_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/rt/status.h"

namespace largeea::dag {

/// One intermediate (or output) flowing along the graph's edges. The
/// value's storage lives wherever the producing node put it (typically
/// a field of the pipeline's state); the graph only tracks metadata.
struct Value {
  std::string name;
  /// Values the caller keeps (pipeline outputs) are never released.
  bool retain = true;
  /// Frees the backing storage, leaving a valid empty object behind.
  /// Invoked at most once, by the scheduler, when the last consumer
  /// finishes and `retain` is false. May be null.
  std::function<void()> release;
  int32_t producer = -1;  ///< producing node id; -1 = external input
  std::vector<int32_t> consumers;  ///< filled by Graph::AddNode
};

/// Handed to a node body; lets it report how it completed.
class NodeContext {
 public:
  /// The node satisfied its contract from a checkpoint artifact instead
  /// of computing (feeds the run report and the resume tests).
  void MarkFromCheckpoint() { from_checkpoint_ = true; }
  bool from_checkpoint() const { return from_checkpoint_; }

 private:
  bool from_checkpoint_ = false;
};

/// One operator. `estimated_bytes` is the node's peak transient working
/// set *on top of* its inputs (admission adds it to the tracker's
/// current bytes).
struct Node {
  std::string name;
  std::string span_name;  ///< "dag/<name>", stable storage for the span
  std::vector<int32_t> inputs;   ///< value ids read
  std::vector<int32_t> outputs;  ///< value ids written
  int64_t estimated_bytes = 0;
  std::function<Status(NodeContext&)> body;
};

class Graph {
 public:
  /// Declares a value; returns its id. `release` may be null (e.g. for
  /// trivially small values).
  int32_t AddValue(std::string name, bool retain,
                   std::function<void()> release = nullptr);

  /// Declares a node; returns its id. Every input must already have a
  /// producer node (or be an external input); every output must be a
  /// not-yet-produced value. Violations are reported by Validate().
  int32_t AddNode(std::string name, std::vector<int32_t> inputs,
                  std::vector<int32_t> outputs, int64_t estimated_bytes,
                  std::function<Status(NodeContext&)> body);

  /// Structural checks: ids in range, exactly one producer per produced
  /// value, and producer-before-consumer in id order (acyclicity).
  Status Validate() const;

  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::vector<Value>& values() { return values_; }
  const std::vector<Value>& values() const { return values_; }

 private:
  std::vector<Node> nodes_;
  std::vector<Value> values_;
};

}  // namespace largeea::dag

#endif  // LARGEEA_DAG_GRAPH_H_
