#include "qsc/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace qsc {
namespace {

// Sorts arcs by (src, dst), sums duplicates, drops zero-weight aggregates.
std::vector<EdgeTriple> Coalesce(std::vector<EdgeTriple> arcs) {
  std::sort(arcs.begin(), arcs.end(), [](const EdgeTriple& a,
                                         const EdgeTriple& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  std::vector<EdgeTriple> out;
  out.reserve(arcs.size());
  for (const EdgeTriple& arc : arcs) {
    if (!out.empty() && out.back().src == arc.src &&
        out.back().dst == arc.dst) {
      out.back().weight += arc.weight;
    } else {
      out.push_back(arc);
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const EdgeTriple& a) { return a.weight == 0.0; }),
            out.end());
  return out;
}

}  // namespace

Graph Graph::FromEdges(NodeId num_nodes, const std::vector<EdgeTriple>& edges,
                       bool undirected) {
  QSC_CHECK_GE(num_nodes, 0);
  std::vector<EdgeTriple> arcs;
  arcs.reserve(undirected ? 2 * edges.size() : edges.size());
  for (const EdgeTriple& e : edges) {
    QSC_CHECK(e.src >= 0 && e.src < num_nodes);
    QSC_CHECK(e.dst >= 0 && e.dst < num_nodes);
    arcs.push_back(e);
    if (undirected && e.src != e.dst) {
      arcs.push_back({e.dst, e.src, e.weight});
    }
  }
  return FromCoalescedArcs(num_nodes, Coalesce(std::move(arcs)), undirected);
}

Graph Graph::FromArcs(NodeId num_nodes, const std::vector<EdgeTriple>& arcs,
                      bool undirected) {
  QSC_CHECK_GE(num_nodes, 0);
  for (const EdgeTriple& a : arcs) {
    QSC_CHECK(a.src >= 0 && a.src < num_nodes);
    QSC_CHECK(a.dst >= 0 && a.dst < num_nodes);
  }
  std::vector<EdgeTriple> coalesced = Coalesce(arcs);
  if (undirected) {
    // The stored representation of an undirected graph is a symmetric arc
    // set, which summing duplicates in unspecified order can miss by a
    // rounding residue (or drop one direction entirely when it cancels to
    // exactly zero while its mirror keeps an ulp). Symmetrize by
    // construction: both directions take the (min,max)-direction sum;
    // genuinely one-sided arcs — no mirror and a weight too large to be
    // rounding residue — are rejected.
    const auto mirror_of = [&coalesced](const EdgeTriple& a) {
      const auto it = std::lower_bound(
          coalesced.begin(), coalesced.end(), EdgeTriple{a.dst, a.src, 0.0},
          [](const EdgeTriple& x, const EdgeTriple& y) {
            if (x.src != y.src) return x.src < y.src;
            return x.dst < y.dst;
          });
      return it != coalesced.end() && it->src == a.dst && it->dst == a.src
                 ? &*it
                 : nullptr;
    };
    std::vector<EdgeTriple> symmetric;
    symmetric.reserve(coalesced.size());
    for (const EdgeTriple& a : coalesced) {
      if (a.src == a.dst) {
        symmetric.push_back(a);
        continue;
      }
      if (const EdgeTriple* m = mirror_of(a)) {
        QSC_CHECK(std::abs(m->weight - a.weight) <=
                  1e-9 * std::max(1.0, std::abs(a.weight)));
        symmetric.push_back(
            {a.src, a.dst, a.src < a.dst ? a.weight : m->weight});
      } else {
        QSC_CHECK(std::abs(a.weight) <= 1e-9);  // residue of a cancelled edge
      }
    }
    coalesced = std::move(symmetric);
  }
  return FromCoalescedArcs(num_nodes, std::move(coalesced), undirected);
}

Graph Graph::FromCoalescedArcs(NodeId num_nodes, std::vector<EdgeTriple> arcs,
                               bool undirected) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.undirected_ = undirected;

  g.out_offsets_.assign(num_nodes + 1, 0);
  g.in_offsets_.assign(num_nodes + 1, 0);
  for (const EdgeTriple& a : arcs) {
    ++g.out_offsets_[a.src + 1];
    ++g.in_offsets_[a.dst + 1];
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }

  g.out_dst_.resize(arcs.size());
  g.out_w_.resize(arcs.size());
  g.in_src_.resize(arcs.size());
  g.in_w_.resize(arcs.size());
  g.out_weight_.assign(num_nodes, 0.0);
  g.in_weight_.assign(num_nodes, 0.0);

  std::vector<int64_t> out_pos(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
  std::vector<int64_t> in_pos(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const EdgeTriple& a : arcs) {
    g.out_dst_[out_pos[a.src]] = a.dst;
    g.out_w_[out_pos[a.src]] = a.weight;
    ++out_pos[a.src];
    g.in_src_[in_pos[a.dst]] = a.src;
    g.in_w_[in_pos[a.dst]] = a.weight;
    ++in_pos[a.dst];
    g.out_weight_[a.src] += a.weight;
    g.in_weight_[a.dst] += a.weight;
    g.total_weight_ += a.weight;
  }
  // Arcs were globally sorted by (src, dst), so out-adjacency is sorted; the
  // in-adjacency inherits sortedness by src because insertion order is by
  // src within each dst bucket.

  int64_t loops = 0;
  for (const EdgeTriple& a : arcs) {
    if (a.src == a.dst) ++loops;
  }
  g.num_edges_ = undirected
                     ? (static_cast<int64_t>(arcs.size()) - loops) / 2 + loops
                     : static_cast<int64_t>(arcs.size());
  return g;
}

int64_t Graph::num_edges() const { return num_edges_; }

bool operator==(const Graph& a, const Graph& b) {
  return a.num_nodes_ == b.num_nodes_ && a.undirected_ == b.undirected_ &&
         a.out_offsets_ == b.out_offsets_ && a.out_dst_ == b.out_dst_ &&
         a.out_w_ == b.out_w_;
}

bool Graph::HasArc(NodeId u, NodeId v) const {
  QSC_DCHECK(u >= 0 && u < num_nodes_);
  return std::binary_search(out_dst_.begin() + out_offsets_[u],
                            out_dst_.begin() + out_offsets_[u + 1], v);
}

double Graph::ArcWeight(NodeId u, NodeId v) const {
  QSC_DCHECK(u >= 0 && u < num_nodes_);
  const auto row_begin = out_dst_.begin() + out_offsets_[u];
  const auto row_end = out_dst_.begin() + out_offsets_[u + 1];
  const auto it = std::lower_bound(row_begin, row_end, v);
  if (it != row_end && *it == v) return out_w_[it - out_dst_.begin()];
  return 0.0;
}

namespace {

std::string ArcName(NodeId u, NodeId v) {
  return "(" + std::to_string(u) + ", " + std::to_string(v) + ")";
}

Status CheckEndpoints(NodeId u, NodeId v, NodeId num_nodes) {
  if (u < 0 || u >= num_nodes) {
    return Status::InvalidArgument(
        "source node " + std::to_string(u) + " out of range [0, " +
        std::to_string(num_nodes) + ")");
  }
  if (v < 0 || v >= num_nodes) {
    return Status::InvalidArgument(
        "destination node " + std::to_string(v) + " out of range [0, " +
        std::to_string(num_nodes) + ")");
  }
  return Status::Ok();
}

Status CheckWeight(double weight) {
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

}  // namespace

Status Graph::AddEdge(NodeId u, NodeId v, double weight) {
  QSC_RETURN_IF_ERROR(CheckEndpoints(u, v, num_nodes_));
  QSC_RETURN_IF_ERROR(CheckWeight(weight));
  if (HasArc(u, v)) {
    return Status::InvalidArgument("arc " + ArcName(u, v) +
                                   " already present; use SetWeight");
  }
  InsertArcInPlace(u, v, weight);
  if (undirected_ && u != v) InsertArcInPlace(v, u, weight);
  ++num_edges_;
  RecomputeWeightCaches(u, v);
  return Status::Ok();
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  QSC_RETURN_IF_ERROR(CheckEndpoints(u, v, num_nodes_));
  if (!HasArc(u, v)) {
    return Status::NotFound("no arc " + ArcName(u, v) + " in the graph");
  }
  EraseArcInPlace(u, v);
  if (undirected_ && u != v) EraseArcInPlace(v, u);
  --num_edges_;
  RecomputeWeightCaches(u, v);
  return Status::Ok();
}

Status Graph::SetWeight(NodeId u, NodeId v, double weight) {
  QSC_RETURN_IF_ERROR(CheckEndpoints(u, v, num_nodes_));
  QSC_RETURN_IF_ERROR(CheckWeight(weight));
  if (!HasArc(u, v)) {
    return Status::NotFound("no arc " + ArcName(u, v) + " in the graph");
  }
  SetArcWeightInPlace(u, v, weight);
  if (undirected_ && u != v) SetArcWeightInPlace(v, u, weight);
  RecomputeWeightCaches(u, v);
  return Status::Ok();
}

void Graph::InsertArcInPlace(NodeId u, NodeId v, double weight) {
  const auto out_it = std::lower_bound(out_dst_.begin() + out_offsets_[u],
                                       out_dst_.begin() + out_offsets_[u + 1],
                                       v);
  const int64_t out_pos = out_it - out_dst_.begin();
  out_dst_.insert(out_it, v);
  out_w_.insert(out_w_.begin() + out_pos, weight);
  for (NodeId w = u + 1; w <= num_nodes_; ++w) ++out_offsets_[w];

  const auto in_it = std::lower_bound(in_src_.begin() + in_offsets_[v],
                                      in_src_.begin() + in_offsets_[v + 1], u);
  const int64_t in_pos = in_it - in_src_.begin();
  in_src_.insert(in_it, u);
  in_w_.insert(in_w_.begin() + in_pos, weight);
  for (NodeId w = v + 1; w <= num_nodes_; ++w) ++in_offsets_[w];
}

void Graph::EraseArcInPlace(NodeId u, NodeId v) {
  const auto out_it = std::lower_bound(out_dst_.begin() + out_offsets_[u],
                                       out_dst_.begin() + out_offsets_[u + 1],
                                       v);
  QSC_CHECK(out_it != out_dst_.end() && *out_it == v);
  out_w_.erase(out_w_.begin() + (out_it - out_dst_.begin()));
  out_dst_.erase(out_it);
  for (NodeId w = u + 1; w <= num_nodes_; ++w) --out_offsets_[w];

  const auto in_it = std::lower_bound(in_src_.begin() + in_offsets_[v],
                                      in_src_.begin() + in_offsets_[v + 1], u);
  QSC_CHECK(in_it != in_src_.end() && *in_it == u);
  in_w_.erase(in_w_.begin() + (in_it - in_src_.begin()));
  in_src_.erase(in_it);
  for (NodeId w = v + 1; w <= num_nodes_; ++w) --in_offsets_[w];
}

void Graph::SetArcWeightInPlace(NodeId u, NodeId v, double weight) {
  const auto out_it = std::lower_bound(out_dst_.begin() + out_offsets_[u],
                                       out_dst_.begin() + out_offsets_[u + 1],
                                       v);
  QSC_CHECK(out_it != out_dst_.end() && *out_it == v);
  out_w_[out_it - out_dst_.begin()] = weight;

  const auto in_it = std::lower_bound(in_src_.begin() + in_offsets_[v],
                                      in_src_.begin() + in_offsets_[v + 1], u);
  QSC_CHECK(in_it != in_src_.end() && *in_it == u);
  in_w_[in_it - in_src_.begin()] = weight;
}

void Graph::RecomputeWeightCaches(NodeId u, NodeId v) {
  // Row sums in row order and the total in global (src, dst) order — the
  // exact accumulation order of FromCoalescedArcs, so the caches of a
  // mutated graph match a rebuild bit for bit. Undirected mutations touch
  // the rows of both endpoints in both directions.
  for (const NodeId x : {u, v}) {
    double out_sum = 0.0;
    for (const NeighborEntry e : OutNeighbors(x)) out_sum += e.weight;
    out_weight_[x] = out_sum;
    double in_sum = 0.0;
    for (const NeighborEntry e : InNeighbors(x)) in_sum += e.weight;
    in_weight_[x] = in_sum;
  }
  double total = 0.0;
  for (const double w : out_w_) total += w;
  total_weight_ = total;
}

int64_t Graph::MemoryBytes() const {
  const auto bytes = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  return static_cast<int64_t>(sizeof(Graph)) + bytes(out_offsets_) +
         bytes(out_dst_) + bytes(out_w_) + bytes(in_offsets_) +
         bytes(in_src_) + bytes(in_w_) + bytes(out_weight_) +
         bytes(in_weight_);
}

std::vector<EdgeTriple> Graph::Arcs() const {
  std::vector<EdgeTriple> arcs;
  arcs.reserve(num_arcs());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const NeighborEntry e : OutNeighbors(u)) {
      arcs.push_back({u, e.node, e.weight});
    }
  }
  return arcs;
}

}  // namespace qsc
