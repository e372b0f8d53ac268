// The witness spread of paper Definition 1, defined once for every
// refiner and q-error check. For a color P_i and a target color P_j, each
// member v of P_i has the witness weight w(v, P_j): the total weight of
// v's arcs into P_j (out direction) or out of P_j (in direction). A member
// with no such arc weighs 0. The spread of the pair is max - min of w over
// all |P_i| members, so absent members pull the range toward 0.
//
// WitnessStats is the O(1) aggregate the spread needs; Rothko's engine,
// which drives every backend, keeps one per pair incrementally.
// ScanWitnessPairs rebuilds every pair from scratch and serves only the
// q-error references (ComputeQError, ComputeRelativeError): the
// independent check on every engine's CurrentMaxError.

#ifndef QSC_COLORING_WITNESS_SPREAD_H_
#define QSC_COLORING_WITNESS_SPREAD_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "qsc/coloring/partition.h"
#include "qsc/graph/graph_view.h"

namespace qsc {

// Max, min and presence count of the witness weights of one (color,
// target, direction) pair.
struct WitnessStats {
  double max_w = 0.0;
  double min_w = 0.0;
  int64_t count = 0;  // members with at least one arc toward the target

  void Merge(double w) {
    if (count == 0) {
      max_w = min_w = w;
      count = 1;
    } else {
      max_w = std::max(max_w, w);
      min_w = std::min(min_w, w);
      ++count;
    }
  }

  // The spread over all `color_size` members, absent members weighing 0.
  double Spread(int64_t color_size) const {
    double hi = max_w;
    double lo = min_w;
    if (count < color_size) {
      hi = std::max(hi, 0.0);
      lo = std::min(lo, 0.0);
    }
    return hi - lo;
  }
};

// Calls visit(pass, color, color_size, target, stats) for every witness
// pair of `p` with at least one arc: pass 0 aggregates the members'
// out-weights, pass 1 (directed graphs only) their in-weights. Colors are
// visited in ascending order, targets in hash-map order, so a caller
// whose result depends on the order must break ties itself. A visitor
// returning false stops the scan. A template, not std::function: the
// visitor inlines into the scan loop.
template <typename Visitor>
void ScanWitnessPairs(const GraphView& g, const Partition& p, Visitor&& visit) {
  const int num_passes = g.undirected() ? 1 : 2;
  for (int pass = 0; pass < num_passes; ++pass) {
    for (ColorId c = 0; c < p.num_colors(); ++c) {
      std::unordered_map<ColorId, WitnessStats> per_target;
      std::unordered_map<ColorId, double> node_weight;
      for (NodeId v : p.Members(c)) {
        node_weight.clear();
        const auto neighbors =
            pass == 0 ? g.OutNeighbors(v) : g.InNeighbors(v);
        for (const NeighborEntry& e : neighbors) {
          node_weight[p.ColorOf(e.node)] += e.weight;
        }
        for (const auto& [target, w] : node_weight) {
          per_target[target].Merge(w);
        }
      }
      const int64_t size = p.ColorSize(c);
      for (const auto& [target, stats] : per_target) {
        if (!visit(pass, c, size, target, stats)) return;
      }
    }
  }
}

}  // namespace qsc

#endif  // QSC_COLORING_WITNESS_SPREAD_H_
