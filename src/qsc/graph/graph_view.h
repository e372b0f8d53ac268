// Non-owning CSR view of a graph: the read-only serving substrate
// (docs/ARCHITECTURE.md). A GraphView presents the same accessor surface as
// the owning qsc::Graph — node/arc counts, sorted neighbor ranges, cached
// node weights, O(log deg) arc lookup — over either
//
//   * an owning Graph (zero-copy alias of its SoA arrays), or
//   * a MappedGraph's mmap'd qsc-bin payload (zero-copy for the out-CSR;
//     the in-CSR and per-node weight caches are derived at view-build time
//     and shared between copies of the view).
//
// Every derived quantity is computed in the exact accumulation order
// Graph::FromEdges/FromArcs uses, so a kernel running over a mapped view is
// bit-identical to the same kernel over MappedGraph::Materialize() — the
// invariant the serving/mmap-* bench scenarios gate.
//
// Lifetime contract: a GraphView never extends the life of an owning Graph
// or a MappedGraph. The view (and every NeighborRange it hands out) is
// valid only while the viewed object is alive and unmutated; holders that
// need ownership keep a shared_ptr keepalive alongside the view (see
// ColoringCache, whose entries hold one beside each refiner's view).

#ifndef QSC_GRAPH_GRAPH_VIEW_H_
#define QSC_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "qsc/graph/graph.h"
#include "qsc/util/check.h"

namespace qsc {

class MappedGraph;

// Read-only CSR graph view; cheap to copy (pointers + one shared_ptr).
// Default-constructed views are empty (0 nodes, 0 arcs).
class GraphView {
 public:
  // Same iterable adjacency type Graph returns.
  using NeighborRange = ::qsc::NeighborRange;

  GraphView() = default;

  // Zero-copy alias of an owning Graph's arrays. Implicit on purpose:
  // every kernel that flipped its signature from `const Graph&` to
  // `GraphView` keeps accepting Graph arguments unchanged.
  GraphView(const Graph& g);  // NOLINT(google-explicit-constructor)

  // Builds a view over a mapped qsc-bin payload. The out-CSR aliases the
  // mapped arrays; the in-CSR is aliased too when the graph is undirected
  // (the format guarantees bit-identical mirror arcs) and derived by a
  // counting sort otherwise. Derived arrays are owned by the view and
  // shared across copies.
  static GraphView Of(const MappedGraph& m);

  // Number of nodes |V|.
  NodeId num_nodes() const { return num_nodes_; }

  // Number of stored directed arcs (both directions when undirected).
  int64_t num_arcs() const { return num_arcs_; }

  // Number of logical edges (symmetric arc pairs count once).
  int64_t num_edges() const { return num_edges_; }

  // True when the viewed graph stores a symmetric arc set.
  bool undirected() const { return undirected_; }

  // Out-adjacency of u, sorted by endpoint id.
  NeighborRange OutNeighbors(NodeId u) const {
    QSC_DCHECK(u >= 0 && u < num_nodes_);
    return NeighborRange(out_dst_ + out_offsets_[u], out_w_ + out_offsets_[u],
                         out_offsets_[u + 1] - out_offsets_[u]);
  }
  // In-adjacency of u, sorted by source id.
  NeighborRange InNeighbors(NodeId u) const {
    QSC_DCHECK(u >= 0 && u < num_nodes_);
    return NeighborRange(in_src_ + in_offsets_[u], in_w_ + in_offsets_[u],
                         in_offsets_[u + 1] - in_offsets_[u]);
  }

  // Arc counts of one node's rows.
  int64_t OutDegree(NodeId u) const { return OutNeighbors(u).size(); }
  int64_t InDegree(NodeId u) const { return InNeighbors(u).size(); }

  // Total outgoing / incoming weight of a node (paper notation (1)).
  double OutWeight(NodeId u) const {
    QSC_DCHECK(u >= 0 && u < num_nodes_);
    return out_weight_[u];
  }
  double InWeight(NodeId u) const {
    QSC_DCHECK(u >= 0 && u < num_nodes_);
    return in_weight_[u];
  }

  // Sum of all arc weights.
  double TotalWeight() const { return total_weight_; }

  // True iff the arc (u,v) is present. O(log deg(u)).
  bool HasArc(NodeId u, NodeId v) const;

  // Weight of arc (u,v); 0 when absent. O(log deg(u)).
  double ArcWeight(NodeId u, NodeId v) const;

  // Materializes all viewed arcs (src, dst, weight) in CSR order.
  std::vector<EdgeTriple> Arcs() const;

 private:
  // Arrays a mapped view must own (the file only stores the out-CSR).
  struct Derived {
    std::vector<int64_t> in_offsets;
    std::vector<NodeId> in_src;
    std::vector<double> in_w;
    std::vector<double> out_weight;
    std::vector<double> in_weight;
  };

  NodeId num_nodes_ = 0;
  int64_t num_arcs_ = 0;
  int64_t num_edges_ = 0;
  bool undirected_ = false;
  double total_weight_ = 0.0;

  const int64_t* out_offsets_ = nullptr;  // num_nodes_ + 1
  const NodeId* out_dst_ = nullptr;       // num_arcs_
  const double* out_w_ = nullptr;         // num_arcs_
  const int64_t* in_offsets_ = nullptr;
  const NodeId* in_src_ = nullptr;
  const double* in_w_ = nullptr;
  const double* out_weight_ = nullptr;  // num_nodes_
  const double* in_weight_ = nullptr;   // num_nodes_

  // Null for Graph-backed views; shared so copies stay cheap.
  std::shared_ptr<const Derived> derived_;
};

}  // namespace qsc

#endif  // QSC_GRAPH_GRAPH_VIEW_H_
