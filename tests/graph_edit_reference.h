// Frozen per-edit reference for Graph::WithEdits: the single-edge CSR
// surgery the Graph mutators used before edits were applied in one batch
// pass — a sorted vector insert/erase per arc, an offsets shift, then the
// touched rows' weight sums and the total re-summed after every edit.
//
// The reference keeps its own copy of the CSR arrays (read off a Graph
// through the public accessors), so it shares no code with the batch path
// it checks. graph_edit_batch_test.cc applies seeded batches both ways and
// requires the results equal bit for bit: arrays, edge count and every
// weight aggregate.

#ifndef QSC_TESTS_GRAPH_EDIT_REFERENCE_H_
#define QSC_TESTS_GRAPH_EDIT_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "qsc/graph/graph.h"
#include "qsc/util/status.h"

namespace qsc {
namespace reference {

class PerEditGraph {
 public:
  explicit PerEditGraph(const Graph& g)
      : num_nodes_(g.num_nodes()),
        undirected_(g.undirected()),
        num_edges_(g.num_edges()),
        out_offsets_(1, 0),
        in_offsets_(1, 0),
        total_weight_(g.TotalWeight()) {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      for (const NeighborEntry e : g.OutNeighbors(u)) {
        out_dst_.push_back(e.node);
        out_w_.push_back(e.weight);
      }
      out_offsets_.push_back(static_cast<int64_t>(out_dst_.size()));
      for (const NeighborEntry e : g.InNeighbors(u)) {
        in_src_.push_back(e.node);
        in_w_.push_back(e.weight);
      }
      in_offsets_.push_back(static_cast<int64_t>(in_src_.size()));
      out_weight_.push_back(g.OutWeight(u));
      in_weight_.push_back(g.InWeight(u));
    }
  }

  Status AddEdge(NodeId u, NodeId v, double weight) {
    QSC_RETURN_IF_ERROR(CheckEndpoints(u, v));
    QSC_RETURN_IF_ERROR(CheckWeight(weight));
    if (HasArc(u, v)) {
      return Status::InvalidArgument("arc " + ArcName(u, v) +
                                     " already present; use SetWeight");
    }
    InsertArc(u, v, weight);
    if (undirected_ && u != v) InsertArc(v, u, weight);
    ++num_edges_;
    RecomputeWeightCaches(u, v);
    return Status::Ok();
  }

  Status RemoveEdge(NodeId u, NodeId v) {
    QSC_RETURN_IF_ERROR(CheckEndpoints(u, v));
    if (!HasArc(u, v)) {
      return Status::NotFound("no arc " + ArcName(u, v) + " in the graph");
    }
    EraseArc(u, v);
    if (undirected_ && u != v) EraseArc(v, u);
    --num_edges_;
    RecomputeWeightCaches(u, v);
    return Status::Ok();
  }

  Status SetWeight(NodeId u, NodeId v, double weight) {
    QSC_RETURN_IF_ERROR(CheckEndpoints(u, v));
    QSC_RETURN_IF_ERROR(CheckWeight(weight));
    if (!HasArc(u, v)) {
      return Status::NotFound("no arc " + ArcName(u, v) + " in the graph");
    }
    SetArcWeight(u, v, weight);
    if (undirected_ && u != v) SetArcWeight(v, u, weight);
    RecomputeWeightCaches(u, v);
    return Status::Ok();
  }

  // The pre-batch ApplyEditBatch loop: edits in order, stopping at the
  // first failure with the same "edit i (kind u->v): " prefix. The
  // reference is left partially edited on failure; callers discard it.
  Status Apply(const std::vector<EdgeEdit>& edits) {
    for (size_t i = 0; i < edits.size(); ++i) {
      const EdgeEdit& op = edits[i];
      Status s;
      switch (op.kind) {
        case EdgeEditKind::kInsertEdge:
          s = AddEdge(op.src, op.dst, op.weight);
          break;
        case EdgeEditKind::kDeleteEdge:
          s = RemoveEdge(op.src, op.dst);
          break;
        case EdgeEditKind::kUpdateWeight:
          s = SetWeight(op.src, op.dst, op.weight);
          break;
        default:
          s = Status::InvalidArgument("unknown edit kind");
          break;
      }
      if (!s.ok()) {
        return Status(s.code(), "edit " + std::to_string(i) + " (" +
                                    KindName(op.kind) + " " +
                                    std::to_string(op.src) + "->" +
                                    std::to_string(op.dst) +
                                    "): " + s.message());
      }
    }
    return Status::Ok();
  }

  bool HasArc(NodeId u, NodeId v) const {
    return std::binary_search(out_dst_.begin() + out_offsets_[u],
                              out_dst_.begin() + out_offsets_[u + 1], v);
  }

  // The stored arcs in (src, dst) order.
  std::vector<EdgeTriple> Arcs() const {
    std::vector<EdgeTriple> arcs;
    for (NodeId u = 0; u < num_nodes_; ++u) {
      for (int64_t i = out_offsets_[u]; i < out_offsets_[u + 1]; ++i) {
        arcs.push_back({u, out_dst_[i], out_w_[i]});
      }
    }
    return arcs;
  }

  NodeId num_nodes() const { return num_nodes_; }
  bool undirected() const { return undirected_; }
  int64_t num_edges() const { return num_edges_; }
  const std::vector<int64_t>& out_offsets() const { return out_offsets_; }
  const std::vector<NodeId>& out_dst() const { return out_dst_; }
  const std::vector<double>& out_w() const { return out_w_; }
  const std::vector<int64_t>& in_offsets() const { return in_offsets_; }
  const std::vector<NodeId>& in_src() const { return in_src_; }
  const std::vector<double>& in_w() const { return in_w_; }
  double OutWeight(NodeId u) const { return out_weight_[u]; }
  double InWeight(NodeId u) const { return in_weight_[u]; }
  double TotalWeight() const { return total_weight_; }

 private:
  static const char* KindName(EdgeEditKind kind) {
    switch (kind) {
      case EdgeEditKind::kInsertEdge:
        return "insert";
      case EdgeEditKind::kDeleteEdge:
        return "delete";
      case EdgeEditKind::kUpdateWeight:
        return "update";
    }
    return "unknown";
  }

  static std::string ArcName(NodeId u, NodeId v) {
    return "(" + std::to_string(u) + ", " + std::to_string(v) + ")";
  }

  Status CheckEndpoints(NodeId u, NodeId v) const {
    if (u < 0 || u >= num_nodes_) {
      return Status::InvalidArgument(
          "source node " + std::to_string(u) + " out of range [0, " +
          std::to_string(num_nodes_) + ")");
    }
    if (v < 0 || v >= num_nodes_) {
      return Status::InvalidArgument(
          "destination node " + std::to_string(v) + " out of range [0, " +
          std::to_string(num_nodes_) + ")");
    }
    return Status::Ok();
  }

  static Status CheckWeight(double weight) {
    if (!std::isfinite(weight)) {
      return Status::InvalidArgument("edge weight must be finite; got " +
                                     std::to_string(weight));
    }
    if (weight == 0.0) {
      return Status::InvalidArgument(
          "edge weight must be nonzero (an arc exists iff its weight is "
          "nonzero); use RemoveEdge to delete an edge");
    }
    return Status::Ok();
  }

  void InsertArc(NodeId u, NodeId v, double weight) {
    const auto out_it = std::lower_bound(out_dst_.begin() + out_offsets_[u],
                                         out_dst_.begin() + out_offsets_[u + 1],
                                         v);
    const int64_t out_pos = out_it - out_dst_.begin();
    out_dst_.insert(out_it, v);
    out_w_.insert(out_w_.begin() + out_pos, weight);
    for (NodeId w = u + 1; w <= num_nodes_; ++w) ++out_offsets_[w];

    const auto in_it = std::lower_bound(in_src_.begin() + in_offsets_[v],
                                        in_src_.begin() + in_offsets_[v + 1],
                                        u);
    const int64_t in_pos = in_it - in_src_.begin();
    in_src_.insert(in_it, u);
    in_w_.insert(in_w_.begin() + in_pos, weight);
    for (NodeId w = v + 1; w <= num_nodes_; ++w) ++in_offsets_[w];
  }

  void EraseArc(NodeId u, NodeId v) {
    const auto out_it = std::lower_bound(out_dst_.begin() + out_offsets_[u],
                                         out_dst_.begin() + out_offsets_[u + 1],
                                         v);
    out_w_.erase(out_w_.begin() + (out_it - out_dst_.begin()));
    out_dst_.erase(out_it);
    for (NodeId w = u + 1; w <= num_nodes_; ++w) --out_offsets_[w];

    const auto in_it = std::lower_bound(in_src_.begin() + in_offsets_[v],
                                        in_src_.begin() + in_offsets_[v + 1],
                                        u);
    in_w_.erase(in_w_.begin() + (in_it - in_src_.begin()));
    in_src_.erase(in_it);
    for (NodeId w = v + 1; w <= num_nodes_; ++w) --in_offsets_[w];
  }

  void SetArcWeight(NodeId u, NodeId v, double weight) {
    const auto out_it = std::lower_bound(out_dst_.begin() + out_offsets_[u],
                                         out_dst_.begin() + out_offsets_[u + 1],
                                         v);
    out_w_[out_it - out_dst_.begin()] = weight;
    const auto in_it = std::lower_bound(in_src_.begin() + in_offsets_[v],
                                        in_src_.begin() + in_offsets_[v + 1],
                                        u);
    in_w_[in_it - in_src_.begin()] = weight;
  }

  // Row sums in row order and the total over every arc in (src, dst)
  // order, after every single edit.
  void RecomputeWeightCaches(NodeId u, NodeId v) {
    for (const NodeId x : {u, v}) {
      double out_sum = 0.0;
      for (int64_t i = out_offsets_[x]; i < out_offsets_[x + 1]; ++i) {
        out_sum += out_w_[i];
      }
      out_weight_[x] = out_sum;
      double in_sum = 0.0;
      for (int64_t i = in_offsets_[x]; i < in_offsets_[x + 1]; ++i) {
        in_sum += in_w_[i];
      }
      in_weight_[x] = in_sum;
    }
    double total = 0.0;
    for (const double w : out_w_) total += w;
    total_weight_ = total;
  }

  NodeId num_nodes_;
  bool undirected_;
  int64_t num_edges_;
  std::vector<int64_t> out_offsets_;
  std::vector<NodeId> out_dst_;
  std::vector<double> out_w_;
  std::vector<int64_t> in_offsets_;
  std::vector<NodeId> in_src_;
  std::vector<double> in_w_;
  std::vector<double> out_weight_;
  std::vector<double> in_weight_;
  double total_weight_;
};

}  // namespace reference
}  // namespace qsc

#endif  // QSC_TESTS_GRAPH_EDIT_REFERENCE_H_
