#include "qsc/coloring/q_error.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "qsc/coloring/witness_spread.h"

namespace qsc {

QErrorStats ComputeQError(const GraphView& g, const Partition& p) {
  QSC_CHECK_EQ(g.num_nodes(), p.num_nodes());
  QErrorStats stats;
  double total_spread = 0.0;
  const auto visit = [&](int, ColorId, int64_t size, ColorId,
                         const WitnessStats& s) {
    const double spread = s.Spread(size);
    stats.max_q = std::max(stats.max_q, spread);
    total_spread += spread;
    ++stats.num_active_entries;
    return true;
  };
  ScanWitnessPairs(g, p, visit);
  if (stats.num_active_entries > 0) {
    stats.mean_q = total_spread / static_cast<double>(stats.num_active_entries);
  }
  return stats;
}

double ComputeRelativeError(const GraphView& g, const Partition& p) {
  QSC_CHECK_EQ(g.num_nodes(), p.num_nodes());
  // Every arc is some node's out-arc, so this covers both directions.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NeighborEntry& e : g.OutNeighbors(v)) {
      QSC_CHECK_GE(e.weight, 0.0);
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double max_eps = 0.0;
  const auto visit = [&](int, ColorId, int64_t size, ColorId,
                         const WitnessStats& s) {
    // A member without an edge has weight 0, which is only similar to 0
    // itself; mixed zero / nonzero makes the pair unsatisfiable.
    if (s.count < size || s.min_w <= 0.0) {
      max_eps = kInf;
      return false;
    }
    max_eps = std::max(max_eps, std::log(s.max_w / s.min_w));
    return true;
  };
  ScanWitnessPairs(g, p, visit);
  return max_eps;
}

Partition BisimulationColoring(const GraphView& g) {
  // The ≡ relation (both zero or both nonzero) only observes *presence* of
  // edges toward each color — unlike stable coloring, the counts may
  // differ. Refine by the set of distinct out-/in-neighbor colors until
  // fixpoint; ≡ is a congruence for non-negative weights, so the coarsest
  // such coloring is unique (Theorem 12(1)).
  const NodeId n = g.num_nodes();
  std::vector<ColorId> color(n, 0);
  ColorId num_colors = n > 0 ? 1 : 0;
  while (true) {
    using Signature = std::tuple<ColorId, std::vector<ColorId>,
                                 std::vector<ColorId>>;
    std::map<Signature, ColorId> sig_to_color;
    std::vector<ColorId> next(n);
    for (NodeId v = 0; v < n; ++v) {
      std::vector<ColorId> out_set, in_set;
      for (const NeighborEntry& e : g.OutNeighbors(v)) {
        out_set.push_back(color[e.node]);
      }
      for (const NeighborEntry& e : g.InNeighbors(v)) {
        in_set.push_back(color[e.node]);
      }
      std::sort(out_set.begin(), out_set.end());
      out_set.erase(std::unique(out_set.begin(), out_set.end()),
                    out_set.end());
      std::sort(in_set.begin(), in_set.end());
      in_set.erase(std::unique(in_set.begin(), in_set.end()), in_set.end());
      const auto [it, inserted] = sig_to_color.try_emplace(
          Signature{color[v], std::move(out_set), std::move(in_set)},
          static_cast<ColorId>(sig_to_color.size()));
      next[v] = it->second;
    }
    const ColorId next_colors = static_cast<ColorId>(sig_to_color.size());
    if (next_colors == num_colors) break;
    color.swap(next);
    num_colors = next_colors;
  }
  return Partition::FromColorIds(color);
}

}  // namespace qsc
