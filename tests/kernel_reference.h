// Independent references for the Compressor's MaxFlow, SolveLp and
// Centrality queries: the kernels underneath the session, composed by
// hand with no cache, registry or session in between. Tests compare
// session results against these bitwise, so a session-layer regression
// cannot hide behind a reference that is itself a session.

#ifndef QSC_TESTS_KERNEL_REFERENCE_H_
#define QSC_TESTS_KERNEL_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "qsc/api/coloring_cache.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/rothko.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/flow/uniform_flow.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"

namespace qsc {
namespace testing_reference {

struct FlowReference {
  Partition coloring;
  double upper_bound = 0.0;
  double lower_bound = 0.0;  // 0 unless requested
};

// Theorem 6 by hand: Rothko (alpha = beta = 0) from the terminal-pinned
// initial partition, push-relabel on the c^2 (kSum) reduced graph, and,
// when asked, on the c^1 graph of one MaxUniformFlow per reduced arc.
inline FlowReference ReferenceMaxFlow(const Graph& g, NodeId source,
                                      NodeId sink, ColorId max_colors,
                                      bool compute_lower_bound = false,
                                      double uniform_flow_tol = 1e-6) {
  ColoringSpec spec;
  spec.pinned = {source, sink};
  RothkoOptions options;
  options.max_colors = max_colors;
  FlowReference out;
  out.coloring =
      RothkoColoring(g, InitialPartition(spec, g.num_nodes()), options);
  const Partition& p = out.coloring;
  const Graph reduced = BuildReducedGraph(g, p, ReducedWeight::kSum);
  out.upper_bound =
      MaxFlowPushRelabel(reduced, p.ColorOf(source), p.ColorOf(sink));
  if (compute_lower_bound) {
    std::vector<EdgeTriple> arcs;
    for (const EdgeTriple& a : reduced.Arcs()) {
      if (a.src == a.dst) continue;
      const double c1 = MaxUniformFlow(g, p.Members(a.src), p.Members(a.dst),
                                       uniform_flow_tol);
      if (c1 > 0.0) arcs.push_back({a.src, a.dst, c1});
    }
    const Graph lower =
        Graph::FromEdges(p.num_colors(), arcs, /*undirected=*/false);
    out.lower_bound =
        MaxFlowPushRelabel(lower, p.ColorOf(source), p.ColorOf(sink));
  }
  return out;
}

struct LpReference {
  ReducedLp reduced;
  LpResult solution;
  std::vector<double> lifted_x;  // empty unless the solve is optimal
};

// Sec 4.1 by hand: Rothko (alpha = 1, beta = 0) on the LP's matrix graph
// from its four-color base partition, the reduced LP of `variant`, the
// simplex on it, and the lift.
inline LpReference ReferenceSolveLp(const LpProblem& lp, ColorId max_colors,
                                    LpReduction variant =
                                        LpReduction::kSqrtNormalized) {
  LpMatrixGraph matrix = BuildLpMatrixGraph(lp);
  RothkoOptions options;
  options.max_colors = max_colors;
  options.alpha = 1.0;
  const Partition coloring = RothkoColoring(
      matrix.graph, InitialPartition(ColoringSpec{}, matrix.initial), options);
  LpReference out;
  out.reduced = ExtractReducedLp(lp, coloring, variant);
  out.solution = SolveSimplex(out.reduced.lp);
  if (out.solution.status == LpStatus::kOptimal) {
    out.lifted_x = LiftSolution(out.reduced, out.solution.x);
  }
  return out;
}

struct CentralityReference {
  Partition coloring;
  std::vector<double> scores;
};

// The color-pivot estimator by hand: Rothko (alpha = beta = 1) from the
// trivial partition, then ColorPivotScores over that coloring.
inline CentralityReference ReferenceCentrality(const Graph& g,
                                               ColorId max_colors,
                                               int32_t pivots_per_color,
                                               uint64_t seed) {
  RothkoOptions options;
  options.max_colors = max_colors;
  options.alpha = 1.0;
  options.beta = 1.0;
  CentralityReference out;
  out.coloring = RothkoColoring(g, options);
  out.scores = ColorPivotScores(g, out.coloring, pivots_per_color, seed);
  return out;
}

}  // namespace testing_reference
}  // namespace qsc

#endif  // QSC_TESTS_KERNEL_REFERENCE_H_
