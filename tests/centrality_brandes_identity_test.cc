// Bit-identity gate for the Brandes dependency pass: ColorPivotScores,
// sequential and on 2- and 8-thread pools, must equal the frozen pass of
// tests/brandes_reference.h bit for bit over the shared 56-graph corpus
// and a directed 2k-node Barabasi-Albert graph. The production pass may
// reorder memory traffic (prefetches), never arithmetic.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "brandes_reference.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"
#include "rothko_corpus.h"

namespace qsc {
namespace {

using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;
using testing_reference::ReferenceColorPivotScores;

Partition CentralityColoring(const Graph& g, ColorId max_colors,
                             RothkoOptions::SplitMean split_mean) {
  RothkoOptions options;
  options.max_colors = max_colors;
  options.alpha = 1.0;
  options.beta = 1.0;
  options.split_mean = split_mean;
  return RothkoColoring(g, options);
}

// Sequential, 2-thread and 8-thread ColorPivotScores all equal the frozen
// reference bitwise.
void ExpectMatchesReference(const Graph& g, const Partition& coloring,
                            int32_t pivots_per_color, uint64_t seed,
                            ThreadPool& pool2, ThreadPool& pool8) {
  const std::vector<double> want =
      ReferenceColorPivotScores(g, coloring, pivots_per_color, seed);
  EXPECT_EQ(ColorPivotScores(g, coloring, pivots_per_color, seed), want);
  EXPECT_EQ(ColorPivotScores(g, coloring, pivots_per_color, seed, &pool2),
            want);
  EXPECT_EQ(ColorPivotScores(g, coloring, pivots_per_color, seed, &pool8),
            want);
}

TEST(BrandesIdentityTest, ParallelColorPivotScoresMatchFrozenPassOnCorpus) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (const uint64_t seed : CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      const Graph g = CorpusGraph(seed, directed);
      for (const auto mean : {RothkoOptions::SplitMean::kArithmetic,
                              RothkoOptions::SplitMean::kGeometric}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " directed=" + std::to_string(directed) +
                     " geometric=" +
                     std::to_string(mean ==
                                    RothkoOptions::SplitMean::kGeometric));
        const Partition coloring = CentralityColoring(g, 12, mean);
        ExpectMatchesReference(g, coloring, /*pivots_per_color=*/2,
                               /*seed=*/seed + 100, pool2, pool8);
      }
    }
  }
}

TEST(BrandesIdentityTest, ParallelColorPivotScoresMatchFrozenPassOnBa2k) {
  Rng rng(2026);
  const Graph ba = BarabasiAlbert(2000, 3, rng);
  const Graph g =
      Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const Partition coloring =
      CentralityColoring(g, 16, RothkoOptions::SplitMean::kArithmetic);
  ExpectMatchesReference(g, coloring, /*pivots_per_color=*/2, /*seed=*/17,
                         pool2, pool8);
}

}  // namespace
}  // namespace qsc
