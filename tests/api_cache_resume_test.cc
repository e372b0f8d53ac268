// The coloring cache's anytime-resume contract, proven over the shared
// 56-graph Rothko property corpus (tests/rothko_corpus.h): continuing a
// cached refiner to a larger color budget yields a partition bit-identical
// to a fresh Rothko run at that budget, with and without pinned terminals.
// This is what lets qsc::Compressor serve a 256-color query by *resuming*
// a cached 64-color refinement instead of recomputing.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kernel_reference.h"
#include "qsc/api/coloring_cache.h"
#include "qsc/api/compressor.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/util/random.h"
#include "rothko_corpus.h"

namespace qsc {
namespace {

using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;

const std::vector<RothkoOptions::SplitMean> kSplitMeans = {
    RothkoOptions::SplitMean::kArithmetic,
    RothkoOptions::SplitMean::kGeometric};

std::string CellName(uint64_t seed, bool directed,
                     RothkoOptions::SplitMean split_mean) {
  return "seed=" + std::to_string(seed) +
         (directed ? " directed" : " undirected") +
         (split_mean == RothkoOptions::SplitMean::kGeometric ? " geometric"
                                                             : " arithmetic");
}

// Every corpus cell: sweep ascending budgets through one session and
// check each against a fresh run at that budget.
TEST(CacheResumeTest, AscendingBudgetsMatchFreshRunsOverCorpus) {
  const std::vector<ColorId> budgets = {6, 12, 24, 48};
  for (const uint64_t seed : CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      for (const RothkoOptions::SplitMean split_mean : kSplitMeans) {
        const Graph g = CorpusGraph(seed, directed);
        Compressor session(Graph{g});
        for (const ColorId budget : budgets) {
          QueryOptions query;
          query.max_colors = budget;
          query.split_mean = split_mean;
          const auto resumed = session.Coloring(query);
          ASSERT_TRUE(resumed.ok());

          RothkoOptions fresh_options;
          fresh_options.max_colors = budget;
          fresh_options.split_mean = split_mean;
          const Partition fresh = RothkoColoring(g, fresh_options);
          ASSERT_EQ(resumed->coloring->color_of(), fresh.color_of())
              << CellName(seed, directed, split_mean) << " budget " << budget;
        }
      }
    }
  }
}

// The issue's literal scenario on a graph big enough for both budgets: a
// 64-color refinement continued to 256 colors is bit-identical to a fresh
// 256-color run.
TEST(CacheResumeTest, Resume64To256MatchesFresh256) {
  Rng rng(1234);
  const Graph g = BarabasiAlbert(2000, 3, rng);
  Compressor session(Graph{g});

  QueryOptions query;
  query.max_colors = 64;
  ASSERT_TRUE(session.Coloring(query).ok());

  query.max_colors = 256;
  const auto resumed = session.Coloring(query);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->telemetry.coloring_cache_hit);
  EXPECT_EQ(resumed->coloring->num_colors(), 256);

  RothkoOptions fresh_options;
  fresh_options.max_colors = 256;
  const Partition fresh = RothkoColoring(g, fresh_options);
  EXPECT_EQ(resumed->coloring->color_of(), fresh.color_of());
}

// Saturation: on 60-node corpus graphs a 64-color budget converges early;
// resuming to 256 must be a no-op that still matches the fresh 256 run.
TEST(CacheResumeTest, SaturatedResumeMatchesFreshOverCorpus) {
  for (const uint64_t seed : CorpusSeeds()) {
    const Graph g = CorpusGraph(seed, /*directed=*/true);
    Compressor session(Graph{g});
    QueryOptions query;
    query.max_colors = 64;
    ASSERT_TRUE(session.Coloring(query).ok());
    query.max_colors = 256;
    const auto resumed = session.Coloring(query);
    ASSERT_TRUE(resumed.ok());

    RothkoOptions fresh_options;
    fresh_options.max_colors = 256;
    const Partition fresh = RothkoColoring(g, fresh_options);
    ASSERT_EQ(resumed->coloring->color_of(), fresh.color_of())
        << "seed " << seed;
  }
}

// Pinned-terminal specs (the max-flow path) resume identically too: the
// session's ladder of MaxFlow budgets reproduces, at every budget and over
// the directed corpus, the colorings and bounds of the kernels composed by
// hand from scratch (kernel_reference.h).
TEST(CacheResumeTest, PinnedFlowResumeMatchesColdOverCorpus) {
  const std::vector<ColorId> budgets = {8, 16, 32};
  for (const uint64_t seed : CorpusSeeds()) {
    const Graph g = CorpusGraph(seed, /*directed=*/true);
    const NodeId source = 0;
    const NodeId sink = g.num_nodes() - 1;
    Compressor session(Graph{g});
    for (const ColorId budget : budgets) {
      QueryOptions query;
      query.max_colors = budget;
      const auto resumed = session.MaxFlow(source, sink, query);
      ASSERT_TRUE(resumed.ok());

      const testing_reference::FlowReference fresh =
          testing_reference::ReferenceMaxFlow(g, source, sink, budget);
      ASSERT_EQ(resumed->upper_bound, fresh.upper_bound)
          << "seed " << seed << " budget " << budget;
      ASSERT_EQ(resumed->coloring->color_of(), fresh.coloring.color_of())
          << "seed " << seed << " budget " << budget;
    }
  }
}

// The cache layer directly: InitialPartition reproduces the terminal
// pinning of Compressor::MaxFlow, and a shared handle is returned without
// refinement when the budget is already met.
TEST(ColoringCacheTest, InitialPartitionPinsInOrder) {
  ColoringSpec spec;
  spec.pinned = {5, 2};
  const Partition p = InitialPartition(spec, 8);
  EXPECT_EQ(p.num_colors(), 3);
  EXPECT_EQ(p.ColorSize(p.ColorOf(5)), 1);
  EXPECT_EQ(p.ColorSize(p.ColorOf(2)), 1);
  EXPECT_NE(p.ColorOf(5), p.ColorOf(2));
  EXPECT_EQ(p.ColorOf(0), p.ColorOf(7));

  // No pins: the trivial partition.
  const Partition trivial = InitialPartition(ColoringSpec{}, 4);
  EXPECT_EQ(trivial.num_colors(), 1);
}

TEST(ColoringCacheTest, RefineSharesSnapshotsAcrossEqualBudgets) {
  Rng rng(3);
  auto g = std::make_shared<const Graph>(ErdosRenyiGnm(80, 240, rng));
  ColoringCache cache(g);
  ColoringSpec spec;
  const auto a = cache.Refine(spec, 12);
  const auto b = cache.Refine(spec, 12);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.partition.get(), b.partition.get());
  EXPECT_EQ(b.splits, 0);
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(cache.stats().lookups, 2);
}

}  // namespace
}  // namespace qsc
