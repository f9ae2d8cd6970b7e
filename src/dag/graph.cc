#include "src/dag/graph.h"

#include <utility>

namespace largeea::dag {

int32_t Graph::AddValue(std::string name, bool retain,
                        std::function<void()> release) {
  Value v;
  v.name = std::move(name);
  v.retain = retain;
  v.release = std::move(release);
  values_.push_back(std::move(v));
  return static_cast<int32_t>(values_.size() - 1);
}

int32_t Graph::AddNode(std::string name, std::vector<int32_t> inputs,
                       std::vector<int32_t> outputs, int64_t estimated_bytes,
                       std::function<Status(NodeContext&)> body) {
  const int32_t id = static_cast<int32_t>(nodes_.size());
  Node n;
  n.span_name = "dag/" + name;
  n.name = std::move(name);
  n.inputs = std::move(inputs);
  n.outputs = std::move(outputs);
  n.estimated_bytes = estimated_bytes;
  n.body = std::move(body);
  for (const int32_t v : n.inputs) {
    if (v >= 0 && v < static_cast<int32_t>(values_.size())) {
      values_[static_cast<size_t>(v)].consumers.push_back(id);
    }
  }
  for (const int32_t v : n.outputs) {
    if (v >= 0 && v < static_cast<int32_t>(values_.size()) &&
        values_[static_cast<size_t>(v)].producer < 0) {
      values_[static_cast<size_t>(v)].producer = id;
    }
  }
  nodes_.push_back(std::move(n));
  return id;
}

Status Graph::Validate() const {
  const auto in_range = [this](int32_t v) {
    return v >= 0 && v < static_cast<int32_t>(values_.size());
  };
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    for (const int32_t v : n.inputs) {
      if (!in_range(v)) {
        return InternalError("dag: node '" + n.name +
                             "' reads an undeclared value");
      }
      const int32_t producer = values_[static_cast<size_t>(v)].producer;
      // producer == id would be a self-loop; producer > id a back edge.
      // Either breaks the ascending-id schedule the scheduler relies on.
      if (producer >= static_cast<int32_t>(i)) {
        return InternalError("dag: node '" + n.name + "' reads value '" +
                             values_[static_cast<size_t>(v)].name +
                             "' before it is produced (cycle?)");
      }
    }
    for (const int32_t v : n.outputs) {
      if (!in_range(v)) {
        return InternalError("dag: node '" + n.name +
                             "' writes an undeclared value");
      }
      if (values_[static_cast<size_t>(v)].producer !=
          static_cast<int32_t>(i)) {
        return InternalError("dag: value '" +
                             values_[static_cast<size_t>(v)].name +
                             "' has more than one producer");
      }
    }
  }
  for (const Value& v : values_) {
    if (v.producer >= static_cast<int32_t>(nodes_.size())) {
      return InternalError("dag: value '" + v.name +
                           "' produced by an unknown node");
    }
  }
  return OkStatus();
}

}  // namespace largeea::dag
