#include "src/dag/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "src/common/memory_tracker.h"
#include "src/obs/trace.h"
#include "src/par/task_group.h"

namespace largeea::dag {
namespace {

enum class NodeState { kWaiting, kRunning, kDone };

}  // namespace

const NodeRun* ScheduleResult::Find(std::string_view name) const {
  for (const NodeRun& run : node_runs) {
    if (run.name == name) return &run;
  }
  return nullptr;
}

StatusOr<ScheduleResult> Execute(Graph& graph,
                                 const ScheduleOptions& options) {
  LARGEEA_RETURN_IF_ERROR(graph.Validate());
  auto& nodes = graph.nodes();
  auto& values = graph.values();
  const size_t num_nodes = nodes.size();
  const int32_t max_concurrency = std::max(1, options.max_concurrency);

  // Dependency counts over *nodes*: a node waits on the distinct
  // producers of its inputs.
  std::vector<std::vector<int32_t>> successors(num_nodes);
  std::vector<int32_t> unmet(num_nodes, 0);
  for (size_t i = 0; i < num_nodes; ++i) {
    std::vector<int32_t> producers;
    for (const int32_t v : nodes[i].inputs) {
      const int32_t p = values[static_cast<size_t>(v)].producer;
      if (p >= 0 &&
          std::find(producers.begin(), producers.end(), p) ==
              producers.end()) {
        producers.push_back(p);
      }
    }
    unmet[i] = static_cast<int32_t>(producers.size());
    for (const int32_t p : producers) {
      successors[static_cast<size_t>(p)].push_back(static_cast<int32_t>(i));
    }
  }
  std::vector<int32_t> pending_consumers(values.size(), 0);
  for (size_t v = 0; v < values.size(); ++v) {
    pending_consumers[v] = static_cast<int32_t>(values[v].consumers.size());
  }

  ScheduleResult result;
  result.node_runs.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    result.node_runs[i].name = nodes[i].name;
    result.node_runs[i].estimated_bytes = nodes[i].estimated_bytes;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<NodeState> state(num_nodes, NodeState::kWaiting);
  int32_t running = 0;
  size_t done = 0;
  bool draining = false;  // stop admitting after a failure
  Status first_error;
  int32_t first_error_node = std::numeric_limits<int32_t>::max();

  // Must hold mu. Frees every input whose last consumer just finished —
  // the generalisation of the streaming layer's release_inputs: the
  // budget gets its bytes back at the earliest provably-safe moment.
  const auto release_inputs_of = [&](size_t node_id) {
    for (const int32_t v : nodes[node_id].inputs) {
      Value& value = values[static_cast<size_t>(v)];
      if (--pending_consumers[static_cast<size_t>(v)] == 0 &&
          !value.retain && value.release) {
        value.release();
        value.release = nullptr;
      }
    }
  };

  const auto run_node = [&](size_t i) {
    NodeContext ctx;
    Status status;
    double seconds = 0.0;
    int64_t peak = 0;
    {
      obs::Span span(nodes[i].span_name.c_str(), obs::Span::kTrackMemory);
      span.AddAttr("estimated_bytes", nodes[i].estimated_bytes);
      auto& recorder = obs::TraceRecorder::Get();
      // Flow-arrow ends bind to this span (bp:"e"), so record them
      // while it is open; starts for our outputs likewise below.
      for (const int32_t v : nodes[i].inputs) {
        const Value& value = values[static_cast<size_t>(v)];
        if (value.producer >= 0) recorder.RecordFlowEnd(value.name, v);
      }
      status = nodes[i].body ? nodes[i].body(ctx) : OkStatus();
      if (status.ok()) {
        for (const int32_t v : nodes[i].outputs) {
          if (!values[static_cast<size_t>(v)].consumers.empty()) {
            recorder.RecordFlowStart(values[static_cast<size_t>(v)].name,
                                     v);
          }
        }
      }
      seconds = span.End();
      peak = span.peak_bytes();
    }
    std::lock_guard<std::mutex> lock(mu);
    NodeRun& run = result.node_runs[i];
    run.seconds = seconds;
    run.peak_bytes = peak;
    run.from_checkpoint = ctx.from_checkpoint();
    state[i] = NodeState::kDone;
    ++done;
    --running;
    if (status.ok()) {
      for (const int32_t s : successors[i]) {
        --unmet[static_cast<size_t>(s)];
      }
      release_inputs_of(i);
    } else {
      draining = true;
      // Report the failure a serial run would have hit first, however
      // the concurrent completion order interleaved.
      if (static_cast<int32_t>(i) < first_error_node) {
        first_error_node = static_cast<int32_t>(i);
        first_error = status.WithContext("dag node '" + nodes[i].name + "'");
      }
    }
    cv.notify_all();
  };

  par::TaskGroup group(options.thread_prefix);
  auto& tracker = MemoryTracker::Get();
  {
    std::unique_lock<std::mutex> lock(mu);
    while (done < num_nodes) {
      if (draining) {
        if (running == 0) break;
        cv.wait(lock);
        continue;
      }
      // Admit the lowest-id ready node the budget allows. Ascending id
      // is the serial order, so max_concurrency == 1 degenerates to the
      // exact serial pipeline.
      int32_t picked = -1;
      bool any_ready = false;
      if (running < max_concurrency) {
        for (size_t i = 0; i < num_nodes && picked < 0; ++i) {
          if (state[i] != NodeState::kWaiting || unmet[i] != 0) continue;
          any_ready = true;
          const bool admit =
              running == 0 || options.memory_budget_bytes <= 0 ||
              tracker.CurrentBytes() + nodes[i].estimated_bytes <=
                  options.memory_budget_bytes;
          if (admit) {
            picked = static_cast<int32_t>(i);
          } else {
            // Deferred: re-examined when a running node finishes (and
            // its dead inputs are released, lowering current bytes).
            ++result.node_runs[i].deferrals;
            ++result.total_deferrals;
          }
        }
      }
      if (picked >= 0) {
        const size_t i = static_cast<size_t>(picked);
        state[i] = NodeState::kRunning;
        ++running;
        group.Spawn([&run_node, i] { run_node(i); });
        continue;  // a further node may also be admissible right now
      }
      if (running == 0) {
        if (any_ready) {
          // Unreachable: a sole runnable node is always admitted.
          return InternalError("dag: scheduler wedged with ready nodes");
        }
        return InternalError("dag: no runnable node but graph unfinished");
      }
      cv.wait(lock);
    }
  }
  group.JoinAll();
  if (!first_error.ok()) return first_error;

  // Critical path over measured seconds: cp(i) = t_i + max cp(deps).
  std::vector<double> cp(num_nodes, 0.0);
  std::vector<int32_t> cp_prev(num_nodes, -1);
  double best = 0.0;
  int32_t best_node = -1;
  for (size_t i = 0; i < num_nodes; ++i) {
    double longest_dep = 0.0;
    for (const int32_t v : nodes[i].inputs) {
      const int32_t p = values[static_cast<size_t>(v)].producer;
      if (p >= 0 && cp[static_cast<size_t>(p)] > longest_dep) {
        longest_dep = cp[static_cast<size_t>(p)];
        cp_prev[i] = p;
      }
    }
    cp[i] = result.node_runs[i].seconds + longest_dep;
    if (cp[i] >= best) {
      best = cp[i];
      best_node = static_cast<int32_t>(i);
    }
  }
  result.critical_path_seconds = best;
  for (int32_t i = best_node; i >= 0; i = cp_prev[static_cast<size_t>(i)]) {
    result.critical_path.push_back(nodes[static_cast<size_t>(i)].name);
  }
  std::reverse(result.critical_path.begin(), result.critical_path.end());
  return result;
}

}  // namespace largeea::dag
