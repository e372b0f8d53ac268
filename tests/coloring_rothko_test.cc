#include "qsc/coloring/rothko.h"

#include <gtest/gtest.h>

#include <vector>

#include "qsc/coloring/q_error.h"
#include "qsc/coloring/stable.h"
#include "qsc/graph/datasets.h"
#include "qsc/graph/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

TEST(RothkoTest, RespectsMaxColors) {
  Rng rng(1);
  const Graph g = ErdosRenyiGnm(100, 400, rng);
  RothkoOptions options;
  options.max_colors = 10;
  const Partition p = RothkoColoring(g, options);
  EXPECT_EQ(p.num_colors(), 10);
}

TEST(RothkoTest, StopsAtStableColoring) {
  // With unlimited colors and zero tolerance, the refinement must reach a
  // coloring with q-error 0 (a stable coloring).
  Rng rng(2);
  const Graph g = ErdosRenyiGnm(30, 80, rng);
  RothkoOptions options;
  options.max_colors = 1000;
  const Partition p = RothkoColoring(g, options);
  EXPECT_DOUBLE_EQ(ComputeQError(g, p).max_q, 0.0);
}

TEST(RothkoTest, QToleranceStopsEarly) {
  Rng rng(3);
  const Graph g = BarabasiAlbert(200, 3, rng);
  RothkoOptions options;
  options.max_colors = 1000;
  options.q_tolerance = 4.0;
  const Partition p = RothkoColoring(g, options);
  const QErrorStats stats = ComputeQError(g, p);
  EXPECT_LE(stats.max_q, 4.0);
  // It should stop well short of refining everything.
  EXPECT_LT(p.num_colors(), 200);
}

TEST(RothkoTest, ErrorDecreasesWithMoreColors) {
  Rng rng(4);
  const Graph g = BarabasiAlbert(300, 3, rng);
  double prev = 1e18;
  for (ColorId k : {2, 8, 32, 128}) {
    RothkoOptions options;
    options.max_colors = k;
    const Partition p = RothkoColoring(g, options);
    const double q = ComputeQError(g, p).max_q;
    EXPECT_LE(q, prev * 1.5)  // allow mild non-monotonicity
        << "k=" << k;
    prev = q;
  }
}

TEST(RothkoTest, RefinerErrorMatchesComputeQError) {
  Rng rng(5);
  const Graph g = ErdosRenyiGnm(60, 200, rng);
  RothkoOptions options;
  RothkoRefiner refiner(g, Partition::Trivial(60), options);
  for (int i = 0; i < 20; ++i) {
    if (!refiner.Step()) break;
    EXPECT_NEAR(refiner.CurrentMaxError(),
                ComputeQError(g, refiner.partition()).max_q, 1e-9)
        << "step " << i;
  }
}

// The split's witness error is the spread of its members' weights into
// the witness color, a member with no such edge counting as 0, and the
// mean cut ejects the members above the mean.
TEST(RothkoTest, WitnessErrorIsTheMemberWeightSpread) {
  // A weighted star on nodes 0-3 plus the isolated node 4: degrees
  // 6, 2, 2, 2, 0 (mean 2.4), so only the hub leaves the trivial color.
  const Graph g = Graph::FromEdges(
      5, {{0, 1, 2.0}, {0, 2, 2.0}, {0, 3, 2.0}}, /*undirected=*/true);
  RothkoOptions options;
  RothkoRefiner refiner(g, Partition::Trivial(5), options);
  EXPECT_EQ(refiner.CurrentMaxError(), 6.0);
  ASSERT_TRUE(refiner.Step());
  ASSERT_EQ(refiner.history().size(), 1u);
  const RothkoStep& first = refiner.history().front();
  EXPECT_EQ(first.split_color, 0);
  EXPECT_EQ(first.witness_error, 6.0);
  EXPECT_EQ(first.num_colors, 2);
  const Partition& p = refiner.partition();
  EXPECT_EQ(p.ColorOf(0), first.new_color);
  EXPECT_EQ(p.ColorSize(first.new_color), 1);
  // The rest keep weights 2, 2, 2, 0 into the hub.
  EXPECT_EQ(refiner.CurrentMaxError(), 2.0);
}

TEST(RothkoTest, StepReturnsFalseOnDiscretePartition) {
  const Graph g = CompleteGraph(4);
  RothkoOptions options;
  RothkoRefiner refiner(g, Partition::Discrete(4), options);
  EXPECT_FALSE(refiner.Step());
}

TEST(RothkoTest, RegularGraphNeedsNoSplit) {
  const Graph g = CycleGraph(10);
  RothkoOptions options;
  options.max_colors = 100;
  const Partition p = RothkoColoring(g, options);
  EXPECT_EQ(p.num_colors(), 1);
}

TEST(RothkoTest, PreservesPinnedSingletons) {
  Rng rng(6);
  const Graph g = ErdosRenyiGnm(50, 150, rng);
  std::vector<int32_t> labels(50, 2);
  labels[7] = 0;
  labels[13] = 1;
  RothkoOptions options;
  options.max_colors = 12;
  const Partition p =
      RothkoColoring(g, Partition::FromColorIds(labels), options);
  EXPECT_EQ(p.ColorSize(p.ColorOf(7)), 1);
  EXPECT_EQ(p.ColorSize(p.ColorOf(13)), 1);
  EXPECT_NE(p.ColorOf(7), p.ColorOf(13));
}

TEST(RothkoTest, RefinesInitialPartition) {
  Rng rng(7);
  const Graph g = ErdosRenyiGnm(40, 100, rng);
  std::vector<int32_t> labels(40);
  for (int i = 0; i < 40; ++i) labels[i] = i % 2;
  const Partition initial = Partition::FromColorIds(labels);
  RothkoOptions options;
  options.max_colors = 8;
  const Partition p = RothkoColoring(g, initial, options);
  EXPECT_TRUE(p.IsRefinementOf(initial));
}

TEST(RothkoTest, KarateQ3NeedsFewColors) {
  // Paper Figure 1(b): with q = 3, six colors suffice. Rothko is a
  // heuristic; we check it finds a small coloring with q <= 3.
  const Graph g = KarateClub();
  RothkoOptions options;
  options.max_colors = 1000;
  options.q_tolerance = 3.0;
  const Partition p = RothkoColoring(g, options);
  EXPECT_LE(ComputeQError(g, p).max_q, 3.0);
  EXPECT_LE(p.num_colors(), 10);
}

TEST(RothkoTest, HistoryRecordsSplits) {
  Rng rng(8);
  const Graph g = ErdosRenyiGnm(50, 150, rng);
  RothkoOptions options;
  options.max_colors = 6;
  RothkoRefiner refiner(g, Partition::Trivial(50), options);
  refiner.Run();
  const auto& history = refiner.history();
  ASSERT_EQ(history.size(), 5u);  // 1 -> 6 colors = 5 splits
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].num_colors, static_cast<ColorId>(i + 2));
    EXPECT_GT(history[i].witness_error, 0.0);
    if (i > 0) {
      EXPECT_GE(history[i].elapsed_seconds, history[i - 1].elapsed_seconds);
    }
  }
}

TEST(RothkoTest, DeterministicAcrossRuns) {
  Rng rng(9);
  const Graph g = BarabasiAlbert(150, 2, rng);
  RothkoOptions options;
  options.max_colors = 20;
  const Partition a = RothkoColoring(g, options);
  const Partition b = RothkoColoring(g, options);
  EXPECT_TRUE(a == b);
}

TEST(RothkoTest, GeometricSplitWorksOnScaleFree) {
  Rng rng(10);
  const Graph g = BarabasiAlbert(400, 3, rng);
  RothkoOptions options;
  options.max_colors = 20;
  options.split_mean = RothkoOptions::SplitMean::kGeometric;
  const Partition p = RothkoColoring(g, options);
  EXPECT_EQ(p.num_colors(), 20);
  // Geometric splits should be less unbalanced: the largest color should
  // not swallow almost everything.
  EXPECT_LT(p.ColorSizes()[0], 400);
}

TEST(RothkoTest, NegativeWeightsHandled) {
  const Graph g = Graph::FromEdges(
      6,
      {{0, 3, -5.0}, {1, 3, 2.0}, {2, 3, 2.0}, {0, 4, 1.0}, {1, 4, 1.0},
       {2, 5, 1.0}},
      false);
  RothkoOptions options;
  options.max_colors = 100;
  const Partition p = RothkoColoring(g, options);
  EXPECT_DOUBLE_EQ(ComputeQError(g, p).max_q, 0.0);
}

TEST(RothkoTest, WeightedWitnessAlphaBeta) {
  // alpha=beta=1 weights big color pairs; the run must still terminate
  // with the requested number of colors and valid telemetry.
  Rng rng(11);
  const Graph g = BarabasiAlbert(300, 3, rng);
  RothkoOptions options;
  options.max_colors = 15;
  options.alpha = 1.0;
  options.beta = 1.0;
  const Partition p = RothkoColoring(g, options);
  EXPECT_EQ(p.num_colors(), 15);
}

TEST(RothkoTest, DirectedGraphBothDirections) {
  // In-direction witness required: sources 0,1 send identical totals but
  // targets receive different amounts.
  const Graph g = Graph::FromEdges(
      4, {{0, 2, 1.0}, {1, 2, 1.0}}, false);
  std::vector<int32_t> labels{0, 0, 1, 1};
  RothkoOptions options;
  options.max_colors = 10;
  const Partition p =
      RothkoColoring(g, Partition::FromColorIds(labels), options);
  // Nodes 2 (in-weight 2) and 3 (in-weight 0) must separate.
  EXPECT_NE(p.ColorOf(2), p.ColorOf(3));
  EXPECT_DOUBLE_EQ(ComputeQError(g, p).max_q, 0.0);
}

// Property sweep: on every generated graph and budget, the refinement (a)
// never exceeds the budget, (b) reports its own q-error exactly, (c) only
// splits (refines) the trivial partition.
class RothkoPropertyTest
    : public testing::TestWithParam<std::tuple<int, ColorId>> {};

TEST_P(RothkoPropertyTest, InvariantsHold) {
  const auto [seed, max_colors] = GetParam();
  Rng rng(seed);
  const Graph g =
      seed % 2 == 0 ? BarabasiAlbert(150, 2, rng) : ErdosRenyiGnm(150, 500, rng);
  RothkoOptions options;
  options.max_colors = max_colors;
  RothkoRefiner refiner(g, Partition::Trivial(150), options);
  refiner.Run();
  const Partition& p = refiner.partition();
  EXPECT_LE(p.num_colors(), max_colors);
  EXPECT_NEAR(refiner.CurrentMaxError(), ComputeQError(g, p).max_q, 1e-9);
  // Colors partition the nodes.
  int64_t total = 0;
  for (ColorId c = 0; c < p.num_colors(); ++c) total += p.ColorSize(c);
  EXPECT_EQ(total, 150);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RothkoPropertyTest,
    testing::Combine(testing::Values(1, 2, 3, 4, 5),
                     testing::Values(ColorId{4}, ColorId{16}, ColorId{64})));

}  // namespace
}  // namespace qsc
