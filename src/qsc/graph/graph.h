// Directed, weighted graph in compressed sparse row (CSR) form, with both
// out- and in-adjacency. This is the substrate shared by the coloring core
// and all three application areas (max-flow, LP bipartite matrices,
// centrality).
//
// Layout: struct-of-arrays. Endpoint ids and arc weights live in separate
// packed arrays (`index[|V|+1]` offsets over `NodeId[]` + `double[]`), so
// the witness scans and solvers stream two homogeneous, SIMD-friendly
// streams instead of interleaved 16-byte structs — and so the arrays can be
// aliased zero-copy by `GraphView` (qsc/graph/graph_view.h), including
// straight off an mmap'd qsc-bin payload.
//
// Conventions (paper Sec. 3): an arc (u,v) exists iff its weight is nonzero;
// undirected graphs are represented as symmetric directed graphs (each edge
// stored as two arcs). Parallel input edges are coalesced by summing their
// weights.

#ifndef QSC_GRAPH_GRAPH_H_
#define QSC_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "qsc/util/check.h"
#include "qsc/util/status.h"

namespace qsc {

// Node identifier; nodes of an n-node graph are [0, n).
using NodeId = int32_t;

// One adjacency entry: the endpoint and the (aggregated) arc weight.
// Materialized on the fly by NeighborRange iteration; the stored layout
// keeps ids and weights in separate arrays.
struct NeighborEntry {
  NodeId node;
  double weight;
};

// One arc for bulk construction / export.
struct EdgeTriple {
  NodeId src;
  NodeId dst;
  double weight;
};

// Iterable view over one node's adjacency list, sorted by endpoint id: a
// zip over the parallel (endpoint id, weight) arrays. Dereferencing yields
// a NeighborEntry by value; `nodes()`/`weights()` expose the raw SoA
// pointers for vectorizable inner loops. Cheap to copy; valid as long as
// the graph (or mapped payload) that produced it.
class NeighborRange {
 public:
  // Proxy iterator over the zipped arrays. Random-access navigation is
  // supported; dereference returns a NeighborEntry by value.
  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = NeighborEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const NeighborEntry*;
    using reference = NeighborEntry;

    Iterator(const NodeId* node, const double* weight)
        : node_(node), weight_(weight) {}

    NeighborEntry operator*() const { return NeighborEntry{*node_, *weight_}; }
    NeighborEntry operator[](difference_type i) const {
      return NeighborEntry{node_[i], weight_[i]};
    }

    Iterator& operator++() {
      ++node_;
      ++weight_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++*this;
      return tmp;
    }
    Iterator& operator--() {
      --node_;
      --weight_;
      return *this;
    }
    Iterator operator--(int) {
      Iterator tmp = *this;
      --*this;
      return tmp;
    }
    Iterator& operator+=(difference_type n) {
      node_ += n;
      weight_ += n;
      return *this;
    }
    Iterator& operator-=(difference_type n) { return *this += -n; }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator+(difference_type n, Iterator it) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return a.node_ - b.node_;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.node_ == b.node_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.node_ != b.node_;
    }
    friend bool operator<(const Iterator& a, const Iterator& b) {
      return a.node_ < b.node_;
    }
    friend bool operator>(const Iterator& a, const Iterator& b) {
      return b < a;
    }
    friend bool operator<=(const Iterator& a, const Iterator& b) {
      return !(b < a);
    }
    friend bool operator>=(const Iterator& a, const Iterator& b) {
      return !(a < b);
    }

   private:
    const NodeId* node_;
    const double* weight_;
  };

  NeighborRange(const NodeId* nodes, const double* weights, int64_t size)
      : nodes_(nodes), weights_(weights), size_(size) {}

  Iterator begin() const { return Iterator(nodes_, weights_); }
  Iterator end() const { return Iterator(nodes_ + size_, weights_ + size_); }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NeighborEntry operator[](int64_t i) const {
    return NeighborEntry{nodes_[i], weights_[i]};
  }

  // Raw SoA pointers (size() entries each), for SIMD-friendly scans.
  const NodeId* nodes() const { return nodes_; }
  const double* weights() const { return weights_; }

 private:
  const NodeId* nodes_;
  const double* weights_;
  int64_t size_;
};

class GraphView;

// Owning CSR graph. Immutable after construction except through the
// Status-returning single-edge mutators.
class Graph {
 public:
  // Compatibility alias; NeighborRange lives at namespace scope so
  // GraphView can return the same type.
  using NeighborRange = ::qsc::NeighborRange;

  Graph() = default;

  // Builds a graph from arc triples.
  //
  // If `undirected` is true, each input edge {u,v} with u != v is stored as
  // the two arcs (u,v) and (v,u); self-loops are stored once. Duplicate
  // arcs are coalesced by summing weights; arcs whose aggregate weight is
  // exactly zero are dropped (paper convention: edge exists iff w != 0).
  static Graph FromEdges(NodeId num_nodes, const std::vector<EdgeTriple>& edges,
                         bool undirected);

  // Builds a graph from already-materialized arcs, i.e. the inverse of
  // Arcs(): no mirroring is applied even when `undirected` is true, so
  // FromArcs(g.num_nodes(), g.Arcs(), g.undirected()) == g for every graph
  // whose stored arc weights are exactly symmetric. (FromEdges would
  // re-mirror an undirected arc list and double every non-loop weight.)
  // Duplicate arcs are coalesced like in FromEdges; with `undirected` set,
  // the coalesced arc set must be symmetric up to rounding residue of
  // duplicate summation — ulp-skewed mirror weights are canonicalized onto
  // the (min,max)-direction value, and near-zero one-sided residues are
  // dropped; genuinely one-sided arcs abort.
  static Graph FromArcs(NodeId num_nodes, const std::vector<EdgeTriple>& arcs,
                        bool undirected);

  // Number of nodes |V|.
  NodeId num_nodes() const { return num_nodes_; }

  // Number of stored directed arcs (for undirected graphs, twice the number
  // of non-loop edges plus the number of loops).
  int64_t num_arcs() const { return static_cast<int64_t>(out_dst_.size()); }

  // Number of logical edges: arcs for directed graphs; for undirected
  // graphs, symmetric arc pairs count once.
  int64_t num_edges() const;

  // True when the graph stores a symmetric arc set addressed as edges.
  bool undirected() const { return undirected_; }

  // Out-adjacency of u, sorted by endpoint id.
  NeighborRange OutNeighbors(NodeId u) const {
    QSC_DCHECK(u >= 0 && u < num_nodes_);
    return NeighborRange(out_dst_.data() + out_offsets_[u],
                         out_w_.data() + out_offsets_[u],
                         out_offsets_[u + 1] - out_offsets_[u]);
  }
  // In-adjacency of u, sorted by source id.
  NeighborRange InNeighbors(NodeId u) const {
    QSC_DCHECK(u >= 0 && u < num_nodes_);
    return NeighborRange(in_src_.data() + in_offsets_[u],
                         in_w_.data() + in_offsets_[u],
                         in_offsets_[u + 1] - in_offsets_[u]);
  }

  // Arc counts of one node's rows.
  int64_t OutDegree(NodeId u) const { return OutNeighbors(u).size(); }
  int64_t InDegree(NodeId u) const { return InNeighbors(u).size(); }

  // Total outgoing / incoming weight of a node, i.e. w({u}, X) and
  // w(X, {u}) in the paper's notation (1).
  double OutWeight(NodeId u) const { return out_weight_[u]; }
  double InWeight(NodeId u) const { return in_weight_[u]; }

  // Sum of all arc weights.
  double TotalWeight() const { return total_weight_; }

  // True iff the arc (u,v) is present. O(log deg(u)).
  bool HasArc(NodeId u, NodeId v) const;

  // Weight of arc (u,v); 0 when absent. O(log deg(u)).
  double ArcWeight(NodeId u, NodeId v) const;

  // Materializes all stored arcs (src, dst, weight).
  std::vector<EdgeTriple> Arcs() const;

  // Heap footprint of the owned arrays plus the object itself.
  int64_t MemoryBytes() const;

  // In-place single-edge mutators (the dynamic-graph substrate,
  // docs/DYNAMIC.md). On an undirected graph each call addresses the
  // logical edge {u,v} and keeps both stored arcs in sync. A mutated
  // graph is bit-identical (all fields, including the cached weight
  // aggregates) to FromArcs() over the mutated arc list, so downstream
  // consumers cannot tell a mutation from a rebuild.
  //
  // Rejections: out-of-range endpoint or a non-finite / zero weight (the
  // paper convention is that an arc exists iff its weight is nonzero)
  // => kInvalidArgument; AddEdge of a present arc => kInvalidArgument
  // (use SetWeight); RemoveEdge/SetWeight of an absent arc => kNotFound.
  // On any error the graph is unchanged. Each call is O(num_arcs).
  Status AddEdge(NodeId u, NodeId v, double weight);
  Status RemoveEdge(NodeId u, NodeId v);
  Status SetWeight(NodeId u, NodeId v, double weight);

  // Structural equality: same node count, directedness, and arc multiset
  // (weights compared exactly).
  friend bool operator==(const Graph& a, const Graph& b);
  friend bool operator!=(const Graph& a, const Graph& b) { return !(a == b); }

 private:
  // Aliases the SoA arrays zero-copy (qsc/graph/graph_view.h).
  friend class GraphView;

  // Shared tail of FromEdges/FromArcs: `arcs` must already be coalesced
  // (sorted by (src, dst), duplicates summed, exact zeros dropped).
  static Graph FromCoalescedArcs(NodeId num_nodes, std::vector<EdgeTriple> arcs,
                                 bool undirected);

  // Single-arc CSR surgery for the mutators above. Each touches exactly
  // one out-row and one in-row and shifts the offset tables; the caller
  // is responsible for mirroring on undirected graphs and for restoring
  // the weight aggregates via RecomputeWeightCaches.
  void InsertArcInPlace(NodeId u, NodeId v, double weight);
  void EraseArcInPlace(NodeId u, NodeId v);
  void SetArcWeightInPlace(NodeId u, NodeId v, double weight);

  // Recomputes out_weight_[u], in_weight_[v], and total_weight_ in the
  // same accumulation order FromCoalescedArcs uses (row order for node
  // sums, global (src, dst) order for the total), so a mutated graph
  // matches a rebuild bit for bit.
  void RecomputeWeightCaches(NodeId u, NodeId v);

  NodeId num_nodes_ = 0;
  bool undirected_ = false;
  int64_t num_edges_ = 0;

  // Out-CSR, sorted by (src, dst): offsets over parallel id/weight arrays.
  std::vector<int64_t> out_offsets_;  // size num_nodes_ + 1
  std::vector<NodeId> out_dst_;
  std::vector<double> out_w_;

  // In-CSR, rows sorted by source id.
  std::vector<int64_t> in_offsets_;
  std::vector<NodeId> in_src_;
  std::vector<double> in_w_;

  std::vector<double> out_weight_;
  std::vector<double> in_weight_;
  double total_weight_ = 0.0;
};

}  // namespace qsc

#endif  // QSC_GRAPH_GRAPH_H_
