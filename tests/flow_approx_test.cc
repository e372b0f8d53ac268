// The Theorem-6 max-flow approximation as served by qsc::Compressor:
// each case runs one cold query on a fresh session.

#include <gtest/gtest.h>

#include <memory>

#include "qsc/api/compressor.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/stable.h"
#include "qsc/flow/dinic.h"
#include "qsc/flow/uniform_flow.h"
#include "qsc/graph/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

// One cold MaxFlow query: a fresh session over the caller's graph.
FlowQueryResult ApproximateFlow(const Graph& g, NodeId source, NodeId sink,
                                const QueryOptions& query) {
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  StatusOr<FlowQueryResult> result = session.MaxFlow(source, sink, query);
  QSC_CHECK_OK(result);
  return *std::move(result);
}

TEST(ApproxFlowTest, UpperBoundHolds) {
  Rng rng(1);
  const FlowInstance inst = GridFlowNetwork(10, 6, 10, 20, rng);
  const double exact = MaxFlowDinic(inst.graph, inst.source, inst.sink);
  QueryOptions options;
  options.max_colors = 12;
  const FlowQueryResult approx =
      ApproximateFlow(inst.graph, inst.source, inst.sink, options);
  EXPECT_GE(approx.upper_bound, exact - 1e-6);
}

TEST(ApproxFlowTest, LowerBoundHolds) {
  Rng rng(2);
  const FlowInstance inst = GridFlowNetwork(6, 4, 8, 10, rng);
  const double exact = MaxFlowDinic(inst.graph, inst.source, inst.sink);
  QueryOptions options;
  options.max_colors = 10;
  options.compute_lower_bound = true;
  const FlowQueryResult approx =
      ApproximateFlow(inst.graph, inst.source, inst.sink, options);
  EXPECT_LE(approx.lower_bound, exact + 1e-4);
  EXPECT_LE(approx.lower_bound, approx.upper_bound + 1e-4);
}

TEST(ApproxFlowTest, TerminalsPinnedToSingletons) {
  Rng rng(3);
  const FlowInstance inst = GridFlowNetwork(8, 5, 10, 10, rng);
  QueryOptions options;
  options.max_colors = 8;
  const FlowQueryResult approx =
      ApproximateFlow(inst.graph, inst.source, inst.sink, options);
  const Partition& p = *approx.coloring;
  EXPECT_EQ(p.ColorSize(p.ColorOf(inst.source)), 1);
  EXPECT_EQ(p.ColorSize(p.ColorOf(inst.sink)), 1);
  EXPECT_EQ(approx.num_colors, 8);
}

TEST(ApproxFlowTest, ExactWhenColoringIsDiscrete) {
  // With enough colors the coloring refines to singletons and the reduced
  // graph is the original: the bound becomes exact.
  Rng rng(4);
  const FlowInstance inst = GridFlowNetwork(4, 3, 6, 8, rng);
  const double exact = MaxFlowDinic(inst.graph, inst.source, inst.sink);
  QueryOptions options;
  options.max_colors = inst.graph.num_nodes();
  const FlowQueryResult approx =
      ApproximateFlow(inst.graph, inst.source, inst.sink, options);
  EXPECT_NEAR(approx.upper_bound, exact, 1e-6);
}

TEST(ApproxFlowTest, StableColoringBoundsCoincide) {
  // Corollary 9(2): on a stable coloring c^1 = c^2, so the lower and upper
  // bounds agree and equal the true max-flow. Build a network whose
  // stable coloring is coarse: layered complete-bipartite blocks.
  std::vector<EdgeTriple> arcs;
  // s(8) -> layer A {0..2} -> layer B {3..6} -> t(9), complete between
  // consecutive layers, unit capacities.
  for (NodeId a = 0; a < 3; ++a) arcs.push_back({8, a, 1.0});
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 3; b < 7; ++b) arcs.push_back({a, b, 1.0});
  }
  for (NodeId b = 3; b < 7; ++b) arcs.push_back({b, 9, 1.0});
  const Graph g = Graph::FromEdges(10, arcs, false);
  const double exact = MaxFlowDinic(g, 8, 9);
  EXPECT_DOUBLE_EQ(exact, 3.0);

  QueryOptions options;
  options.max_colors = 64;  // refine to stable (q = 0)
  options.q_tolerance = 0.0;
  options.compute_lower_bound = true;
  const FlowQueryResult approx = ApproximateFlow(g, 8, 9, options);
  EXPECT_NEAR(approx.upper_bound, exact, 1e-5);
  EXPECT_NEAR(approx.lower_bound, exact, 1e-5);
}

TEST(ApproxFlowTest, PathologicalGapExample7) {
  // Figure 4: the layer coloring is q-stable with q = 1, yet its c^2 upper
  // bound is ~layer_width while the true flow is 2 and the uniform-flow
  // lower bound collapses to 0 between layers.
  const int32_t layers = 5;
  const int32_t width = layers + 1;
  const FlowInstance inst = LayeredDiagonalNetwork(layers, width);
  const double exact = MaxFlowDinic(inst.graph, inst.source, inst.sink);
  EXPECT_DOUBLE_EQ(exact, 2.0);

  // The layer coloring (paper Figure 4): source, layers, sink.
  std::vector<int32_t> labels(inst.graph.num_nodes());
  for (int32_t layer = 0; layer < layers; ++layer) {
    for (int32_t i = 0; i < width; ++i) {
      labels[layer * width + i] = layer + 1;
    }
  }
  labels[inst.source] = 0;
  labels[inst.sink] = layers + 1;
  const Partition p = Partition::FromColorIds(labels);
  EXPECT_LE(ComputeQError(inst.graph, p).max_q, 1.0);

  // c^2 upper bound: the reduced graph bottleneck is width - 1 >> 2.
  const Graph reduced =
      BuildReducedGraph(inst.graph, p, ReducedWeight::kSum);
  const double upper = MaxFlowDinic(reduced, p.ColorOf(inst.source),
                                    p.ColorOf(inst.sink));
  EXPECT_DOUBLE_EQ(upper, width - 1.0);

  // c^1 lower bound: maxUFlow between consecutive layers is 0, so the
  // lower-bound network is disconnected.
  const double c1 = MaxUniformFlow(
      inst.graph, p.Members(1), p.Members(2), 1e-6);
  EXPECT_NEAR(c1, 0.0, 1e-4);
}

TEST(ApproxFlowTest, MoreColorsTightenUpperBound) {
  Rng rng(6);
  const FlowInstance inst = GridFlowNetwork(12, 6, 10, 14, rng);
  const double exact = MaxFlowDinic(inst.graph, inst.source, inst.sink);
  double prev_err = 1e18;
  for (ColorId k : {4, 16, 64}) {
    QueryOptions options;
    options.max_colors = k;
    const FlowQueryResult approx =
      ApproximateFlow(inst.graph, inst.source, inst.sink, options);
    const double err = approx.upper_bound / exact;
    EXPECT_GE(err, 1.0 - 1e-9);
    EXPECT_LE(err, prev_err * 1.25 + 1e-9) << "k=" << k;
    prev_err = err;
  }
}

}  // namespace
}  // namespace qsc
