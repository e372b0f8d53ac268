#include "qsc/centrality/brandes.h"

#include <algorithm>

namespace qsc {
namespace {

// Software-prefetch distances, in queue positions. A pass walks the BFS
// queue in order (forward, then reversed), so the nodes it will touch next
// are known; loading their adjacency rows, and then their per-node slots,
// ahead of use hides the cache misses of a graph larger than the LLC. The
// row is fetched first (further ahead) because the row's own address needs
// the node's offset to be loaded. Prefetches change no arithmetic.
constexpr size_t kRowAhead = 16;
constexpr size_t kSlotAhead = 8;

}  // namespace

BrandesWorkspace::BrandesWorkspace(const GraphView& g)
    : graph_(g),
      dist_(g.num_nodes()),
      sigma_(g.num_nodes()),
      delta_(g.num_nodes()) {
  order_.reserve(g.num_nodes());
}

void BrandesWorkspace::AccumulateDependencies(NodeId s, double scale,
                                              std::vector<double>& scores) {
  const GraphView& g = graph_;
  const NodeId n = g.num_nodes();
  QSC_CHECK_EQ(static_cast<NodeId>(scores.size()), n);
  std::fill(dist_.begin(), dist_.end(), -1);
  std::fill(sigma_.begin(), sigma_.end(), 0.0);
  order_.clear();

  // BFS shortest-path DAG from s; order_ doubles as the queue.
  dist_[s] = 0;
  sigma_[s] = 1.0;
  order_.push_back(s);
  for (size_t head = 0; head < order_.size(); ++head) {
    if (head + kRowAhead < order_.size()) {
      __builtin_prefetch(g.OutNeighbors(order_[head + kRowAhead]).nodes());
    }
    if (head + kSlotAhead < order_.size()) {
      const NodeId x = order_[head + kSlotAhead];
      __builtin_prefetch(&dist_[x]);
      __builtin_prefetch(&sigma_[x]);
    }
    const NodeId u = order_[head];
    for (const NeighborEntry& e : g.OutNeighbors(u)) {
      const NodeId v = e.node;
      if (dist_[v] == -1) {
        dist_[v] = dist_[u] + 1;
        order_.push_back(v);
      }
      if (dist_[v] == dist_[u] + 1) sigma_[v] += sigma_[u];
    }
  }

  // Dependency accumulation in reverse BFS order. A predecessor of w on
  // the DAG is an in-neighbor u with dist(u) = dist(w) - 1.
  std::fill(delta_.begin(), delta_.end(), 0.0);
  for (size_t idx = order_.size(); idx-- > 0;) {
    if (idx >= kRowAhead) {
      __builtin_prefetch(g.InNeighbors(order_[idx - kRowAhead]).nodes());
    }
    if (idx >= kSlotAhead) {
      const NodeId x = order_[idx - kSlotAhead];
      __builtin_prefetch(&dist_[x]);
      __builtin_prefetch(&sigma_[x]);
      __builtin_prefetch(&delta_[x]);
    }
    const NodeId w = order_[idx];
    const double coeff = (1.0 + delta_[w]) / sigma_[w];
    for (const NeighborEntry& e : g.InNeighbors(w)) {
      const NodeId u = e.node;
      if (dist_[u] != -1 && dist_[u] + 1 == dist_[w]) {
        delta_[u] += sigma_[u] * coeff;
      }
    }
    if (w != s) scores[w] += scale * delta_[w];
  }
}

std::vector<double> BetweennessExact(const GraphView& g) {
  std::vector<double> scores(g.num_nodes(), 0.0);
  BrandesWorkspace workspace(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    workspace.AccumulateDependencies(s, 1.0, scores);
  }
  return scores;
}

}  // namespace qsc
