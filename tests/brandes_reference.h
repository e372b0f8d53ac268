// A frozen copy of the Brandes dependency pass and the color-pivot
// estimator as they were before the pass gained software prefetches. The
// production kernel (centrality/brandes.cc) may change how it touches
// memory but never which floating-point operations it performs or their
// order; tests compare it against this copy bitwise.

#ifndef QSC_TESTS_BRANDES_REFERENCE_H_
#define QSC_TESTS_BRANDES_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/graph/graph_view.h"
#include "qsc/util/random.h"

namespace qsc {
namespace testing_reference {

// delta_s(v) for every v, accumulated as `scale * delta_s(v)` into
// `scores` (v != s), exactly as BrandesWorkspace::AccumulateDependencies.
inline void ReferenceAccumulateDependencies(const GraphView& g, NodeId s,
                                            double scale,
                                            std::vector<double>& scores) {
  const NodeId n = g.num_nodes();
  std::vector<int32_t> dist(n, -1);
  std::vector<double> sigma(n, 0.0);
  std::vector<double> delta(n, 0.0);
  std::vector<NodeId> order;
  order.reserve(n);

  dist[s] = 0;
  sigma[s] = 1.0;
  order.push_back(s);
  for (size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    for (const NeighborEntry& e : g.OutNeighbors(u)) {
      const NodeId v = e.node;
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        order.push_back(v);
      }
      if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
    }
  }

  for (size_t idx = order.size(); idx-- > 0;) {
    const NodeId w = order[idx];
    const double coeff = (1.0 + delta[w]) / sigma[w];
    for (const NeighborEntry& e : g.InNeighbors(w)) {
      const NodeId u = e.node;
      if (dist[u] != -1 && dist[u] + 1 == dist[w]) {
        delta[u] += sigma[u] * coeff;
      }
    }
    if (w != s) scores[w] += scale * delta[w];
  }
}

// ColorPivotScores, sequential: the same pivot draw, one reference pass
// per pivot, accumulated in pivot order.
inline std::vector<double> ReferenceColorPivotScores(
    const GraphView& g, const Partition& coloring, int32_t pivots_per_color,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> scores(g.num_nodes(), 0.0);
  for (ColorId c = 0; c < coloring.num_colors(); ++c) {
    const std::vector<NodeId>& members = coloring.Members(c);
    const int32_t count = std::min<int32_t>(
        pivots_per_color, static_cast<int32_t>(members.size()));
    const double scale =
        static_cast<double>(members.size()) / static_cast<double>(count);
    for (int64_t idx : rng.SampleWithoutReplacement(members.size(), count)) {
      ReferenceAccumulateDependencies(g, members[idx], scale, scores);
    }
  }
  return scores;
}

}  // namespace testing_reference
}  // namespace qsc

#endif  // QSC_TESTS_BRANDES_REFERENCE_H_
