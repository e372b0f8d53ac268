#include "qsc/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

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

// One net arc change of an edit batch, addressed as (row, col) of the CSR
// direction it is merged into. weight == 0 erases the arc; `delta` is the
// row-length change (+1 insert, -1 erase, 0 reweight).
struct ArcChange {
  NodeId row;
  NodeId col;
  double weight;
  int delta;
};

// Merges `changes` — sorted by (row, col), at most one per arc — into the
// CSR (offsets, cols, weights), writing fresh arrays: untouched stretches
// are copied in bulk, each change inserts, erases or rewrites one entry.
void MergeCsr(const std::vector<int64_t>& offsets,
              const std::vector<NodeId>& cols,
              const std::vector<double>& weights,
              const std::vector<ArcChange>& changes,
              std::vector<int64_t>* new_offsets, std::vector<NodeId>* new_cols,
              std::vector<double>* new_weights) {
  const size_t num_rows = offsets.size() - 1;
  new_offsets->resize(offsets.size());
  int64_t shift = 0;
  size_t c = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    (*new_offsets)[r] = offsets[r] + shift;
    for (; c < changes.size() && static_cast<size_t>(changes[c].row) == r;
         ++c) {
      shift += changes[c].delta;
    }
  }
  (*new_offsets)[num_rows] = offsets[num_rows] + shift;

  const int64_t size = offsets[num_rows] + shift;
  new_cols->clear();
  new_weights->clear();
  new_cols->reserve(size);
  new_weights->reserve(size);
  int64_t from = 0;
  for (const ArcChange& change : changes) {
    const auto row_end = cols.begin() + offsets[change.row + 1];
    const auto it =
        std::lower_bound(cols.begin() + offsets[change.row], row_end,
                         change.col);
    const int64_t at = it - cols.begin();
    new_cols->insert(new_cols->end(), cols.begin() + from, it);
    new_weights->insert(new_weights->end(), weights.begin() + from,
                        weights.begin() + at);
    from = at;
    if (it != row_end && *it == change.col) ++from;  // replaced or erased
    if (change.weight != 0.0) {
      new_cols->push_back(change.col);
      new_weights->push_back(change.weight);
    }
  }
  new_cols->insert(new_cols->end(), cols.begin() + from, cols.end());
  new_weights->insert(new_weights->end(), weights.begin() + from,
                      weights.end());
  QSC_DCHECK(static_cast<int64_t>(new_cols->size()) == size);
}

}  // namespace

StatusOr<Graph> Graph::WithEdits(const std::vector<EdgeEdit>& edits,
                                 size_t* failed_edit) const {
  // Validation, in order, against an overlay of the batch's earlier
  // edits: the current weight of every arc the batch touched, keyed by its
  // canonical (min, max) orientation on undirected graphs (0 = absent).
  std::unordered_map<uint64_t, double> overlay;
  overlay.reserve(edits.size());
  const auto key_of = [this](NodeId u, NodeId v) {
    if (undirected_ && u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
  };
  const auto validate = [&](const EdgeEdit& e) -> Status {
    if (e.kind != EdgeEditKind::kInsertEdge &&
        e.kind != EdgeEditKind::kDeleteEdge &&
        e.kind != EdgeEditKind::kUpdateWeight) {
      return Status::InvalidArgument("unknown edit kind");
    }
    QSC_RETURN_IF_ERROR(CheckEndpoints(e.src, e.dst, num_nodes_));
    if (e.kind != EdgeEditKind::kDeleteEdge) {
      QSC_RETURN_IF_ERROR(CheckWeight(e.weight));
    }
    const auto seen = overlay.find(key_of(e.src, e.dst));
    const bool present = seen != overlay.end() ? seen->second != 0.0
                                               : HasArc(e.src, e.dst);
    if (e.kind == EdgeEditKind::kInsertEdge && present) {
      return Status::InvalidArgument("arc " + ArcName(e.src, e.dst) +
                                     " already present; use SetWeight");
    }
    if (e.kind != EdgeEditKind::kInsertEdge && !present) {
      return Status::NotFound("no arc " + ArcName(e.src, e.dst) +
                              " in the graph");
    }
    return Status::Ok();
  };
  for (size_t i = 0; i < edits.size(); ++i) {
    const EdgeEdit& e = edits[i];
    const Status s = validate(e);
    if (!s.ok()) {
      if (failed_edit != nullptr) *failed_edit = i;
      return s;
    }
    overlay[key_of(e.src, e.dst)] =
        e.kind == EdgeEditKind::kDeleteEdge ? 0.0 : e.weight;
  }

  // The batch's net arc changes against this graph, in both CSR
  // directions; mirrored on undirected graphs.
  std::vector<ArcChange> out_changes;
  int64_t edge_delta = 0;
  for (const auto& [key, weight] : overlay) {
    const NodeId u = static_cast<NodeId>(key >> 32);
    const NodeId v = static_cast<NodeId>(static_cast<uint32_t>(key));
    const bool was_present = HasArc(u, v);
    if (!was_present && weight == 0.0) continue;  // inserted, then deleted
    const int delta = !was_present ? 1 : weight == 0.0 ? -1 : 0;
    edge_delta += delta;
    out_changes.push_back({u, v, weight, delta});
    if (undirected_ && u != v) out_changes.push_back({v, u, weight, delta});
  }
  std::vector<ArcChange> in_changes = out_changes;
  for (ArcChange& change : in_changes) std::swap(change.row, change.col);
  const auto by_row_col = [](const ArcChange& a, const ArcChange& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  std::sort(out_changes.begin(), out_changes.end(), by_row_col);
  std::sort(in_changes.begin(), in_changes.end(), by_row_col);

  Graph g;
  g.num_nodes_ = num_nodes_;
  g.undirected_ = undirected_;
  g.num_edges_ = num_edges_ + edge_delta;
  MergeCsr(out_offsets_, out_dst_, out_w_, out_changes, &g.out_offsets_,
           &g.out_dst_, &g.out_w_);
  MergeCsr(in_offsets_, in_src_, in_w_, in_changes, &g.in_offsets_,
           &g.in_src_, &g.in_w_);

  // Weight aggregates: every endpoint of every edit has its row sums
  // recomputed in row order, and the total is re-summed in global
  // (src, dst) order — the accumulation order of FromCoalescedArcs — so
  // the batch equals edit-by-edit application (and a rebuild) bit for bit.
  g.out_weight_ = out_weight_;
  g.in_weight_ = in_weight_;
  g.total_weight_ = total_weight_;
  if (edits.empty()) return g;
  std::vector<NodeId> touched;
  touched.reserve(2 * edits.size());
  for (const EdgeEdit& e : edits) {
    touched.push_back(e.src);
    touched.push_back(e.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const NodeId x : touched) {
    double out_sum = 0.0;
    for (const NeighborEntry e : g.OutNeighbors(x)) out_sum += e.weight;
    g.out_weight_[x] = out_sum;
    double in_sum = 0.0;
    for (const NeighborEntry e : g.InNeighbors(x)) in_sum += e.weight;
    g.in_weight_[x] = in_sum;
  }
  double total = 0.0;
  for (const double w : g.out_w_) total += w;
  g.total_weight_ = total;
  return g;
}

Status Graph::ApplyInPlace(const EdgeEdit& edit) {
  StatusOr<Graph> edited = WithEdits({edit});
  if (!edited.ok()) return edited.status();
  *this = std::move(edited).value();
  return Status::Ok();
}

Status Graph::AddEdge(NodeId u, NodeId v, double weight) {
  return ApplyInPlace({EdgeEditKind::kInsertEdge, u, v, weight});
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  return ApplyInPlace({EdgeEditKind::kDeleteEdge, u, v, 0.0});
}

Status Graph::SetWeight(NodeId u, NodeId v, double weight) {
  return ApplyInPlace({EdgeEditKind::kUpdateWeight, u, v, weight});
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
