// Cross-cutting property sweeps over generated instances: invariants that
// must hold for every workload, independent of the specific numbers the
// benches report. Uses the umbrella header as an include smoke test.

#include <gtest/gtest.h>

#include <cmath>

#include "qsc/qsc.h"

namespace qsc {
namespace {

// --- Max-flow invariants over segmentation instances -----------------

class FlowPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FlowPropertyTest, SolversAgreeAndBoundsHold) {
  Rng rng(GetParam());
  const FlowInstance inst = SegmentationGridNetwork(24, 14, 2, rng);
  const double ek = MaxFlowEdmondsKarp(inst.graph, inst.source, inst.sink);
  const double dinic = MaxFlowDinic(inst.graph, inst.source, inst.sink);
  const double pr = MaxFlowPushRelabel(inst.graph, inst.source, inst.sink);
  EXPECT_NEAR(ek, dinic, 1e-6);
  EXPECT_NEAR(ek, pr, 1e-6);

  // The min cut certifies the flow (strong duality).
  const MinCutResult cut = MinCut(inst.graph, inst.source, inst.sink);
  EXPECT_NEAR(cut.value, ek, 1e-6);

  // Theorem-6 sandwich at a coarse budget.
  QueryOptions options;
  options.max_colors = 12;
  options.compute_lower_bound = true;
  Compressor session(Graph{inst.graph});
  const StatusOr<FlowQueryResult> approx =
      session.MaxFlow(inst.source, inst.sink, options);
  ASSERT_TRUE(approx.ok());
  EXPECT_GE(approx->upper_bound, ek - 1e-6);
  EXPECT_LE(approx->lower_bound, ek + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlowPropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6));

// --- LP reduction invariants ------------------------------------------

class LpPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(LpPropertyTest, ReductionInvariants) {
  const LpProblem lp = MakeQapLikeLp(4, GetParam());
  const LpResult exact = SolveSimplex(lp);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);
  for (ColorId k : {8, 24}) {
    LpReduceOptions options;
    options.max_colors = k;
    const ReducedLp reduced = ReduceLp(lp, options);
    // Dimensions shrink and block sums are conserved: the reduced LP's
    // total (denormalized) matrix mass equals the original's.
    EXPECT_LE(reduced.lp.num_rows + reduced.lp.num_cols + 2, k + 1);
    double original_mass = 0.0;
    for (const LpEntry& e : lp.entries) original_mass += e.value;
    double reduced_mass = 0.0;
    for (const LpEntry& e : reduced.lp.entries) {
      reduced_mass +=
          e.value * std::sqrt(
                        static_cast<double>(
                            reduced.row_color_size[e.row]) *
                        static_cast<double>(reduced.col_color_size[e.col]));
    }
    EXPECT_NEAR(reduced_mass, original_mass,
                1e-6 * (1.0 + std::abs(original_mass)));
    // Lifted solutions reproduce the reduced objective.
    const LpResult red = SolveSimplex(reduced.lp);
    ASSERT_EQ(red.status, LpStatus::kOptimal);
    const auto lifted = LiftSolution(reduced, red.x);
    EXPECT_NEAR(Objective(lp, lifted), red.objective,
                1e-6 * (1.0 + std::abs(red.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpPropertyTest,
                         testing::Values(21, 22, 23, 24));

// --- Coloring invariants under perturbation and relabeling ------------

class ColoringPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ColoringPropertyTest, PerturbationOnlyGrowsQuasiStableMildly) {
  Rng rng(GetParam());
  const Graph base = BlockBiregularGraph(20, 8, 40, rng);
  const Graph noisy = AddRandomEdges(base, 20, rng);
  RothkoOptions options;
  options.max_colors = 1000;
  options.q_tolerance = 4.0;
  const ColorId before = RothkoColoring(base, options).num_colors();
  const ColorId after = RothkoColoring(noisy, options).num_colors();
  // Stable coloring blows up; the q-coloring stays within a small factor.
  EXPECT_LE(after, 3 * before + 10);
  EXPECT_GT(StableColoring(noisy).num_colors(), after);
}

TEST_P(ColoringPropertyTest, QErrorMatchesToleranceContract) {
  Rng rng(GetParam() + 100);
  const Graph g = PowerLawGraph(400, 2400, 2.6, rng);
  for (double q : {16.0, 4.0}) {
    RothkoOptions options;
    options.max_colors = g.num_nodes();
    options.q_tolerance = q;
    const Partition p = RothkoColoring(g, options);
    EXPECT_LE(ComputeQError(g, p).max_q, q + 1e-9);
  }
}

TEST_P(ColoringPropertyTest, StableRefinesEveryRothkoColoring) {
  Rng rng(GetParam() + 200);
  const Graph g = ErdosRenyiGnm(120, 400, rng);
  const Partition stable = StableColoring(g);
  RothkoOptions options;
  options.max_colors = 30;
  const Partition quasi = RothkoColoring(g, options);
  // Rothko only ever splits, so its coloring is a coarsening of some
  // sequence from the trivial partition; the exact stable coloring need
  // not refine it — but the discrete partition refines both, and both
  // refine the trivial one.
  EXPECT_TRUE(Partition::Discrete(120).IsRefinementOf(quasi));
  EXPECT_TRUE(quasi.IsRefinementOf(Partition::Trivial(120)));
  EXPECT_TRUE(stable.IsRefinementOf(Partition::Trivial(120)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ColoringPropertyTest,
                         testing::Values(31, 32, 33));

// --- Centrality estimator invariants -----------------------------------

TEST(CentralityPropertyTest, EstimateIsUnbiasedAtFullSampling) {
  // pivots_per_color = n guarantees every node is a pivot: the estimate
  // equals exact betweenness for any coloring.
  Rng rng(77);
  const Graph g = ErdosRenyiGnm(40, 120, rng);
  const auto exact = BetweennessExact(g);
  RothkoOptions rothko;
  rothko.max_colors = 5;
  const Partition p = RothkoColoring(g, rothko);
  const std::vector<double> scores = ColorPivotScores(
      g, p, /*pivots_per_color=*/40, /*seed=*/17);  // clipped to color size
  for (NodeId v = 0; v < 40; ++v) {
    EXPECT_NEAR(scores[v], exact[v], 1e-8);
  }
}

}  // namespace
}  // namespace qsc
