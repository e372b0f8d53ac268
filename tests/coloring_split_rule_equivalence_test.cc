// Scan-vs-engine equivalence for the `lp-rounding` and `bucket` backends:
// run as split rules on Rothko's incremental engine, they must make
// bit-identical split decisions to the frozen scan-based driver they were
// defined with (split_rule_reference.h). Compared over the shared
// 56-graph property corpus, step by step: the maximum q-error before each
// step, whether the step ran, and the partition after it, color ids
// included.
//
// Every corpus point also runs at pool sizes 1, 2 and 8 (the engine
// scores on the pool; the split sequence must not depend on it) and at
// the pair weightings (alpha, beta) = (0, 0) and (1, 1) (the size-weighted
// tie order and score). The corpus has integer weights, so the engine's
// incremental sums and the reference's from-scratch sums agree exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/partition.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/thread_pool.h"
#include "rothko_corpus.h"
#include "split_rule_reference.h"

namespace qsc {
namespace {

using reference::ScanSplitReference;

class SplitRuleEquivalenceTest
    : public testing::TestWithParam<std::tuple<
          ScanSplitReference::Kernel, uint64_t, bool, SplitMean, int, bool>> {};

TEST_P(SplitRuleEquivalenceTest, StepsMatchTheScanReference) {
  const auto [kernel, seed, directed, split_mean, threads, weighted] =
      GetParam();
  const Graph g = testing_corpus::CorpusGraph(seed, directed);

  ThreadPool pool(threads);
  ColoringParams params;
  params.split_mean = split_mean;
  params.alpha = weighted ? 1.0 : 0.0;
  params.beta = weighted ? 1.0 : 0.0;
  params.pool = &pool;

  const std::string name =
      kernel == ScanSplitReference::Kernel::kLpRounding ? "lp-rounding"
                                                        : "bucket";
  const std::unique_ptr<RothkoRefiner> engine =
      MakeRefiner(name, g, Partition::Trivial(g.num_nodes()), params);
  ScanSplitReference ref(g, Partition::Trivial(g.num_nodes()), params,
                         kernel);

  // Drive both to stability step by step so a divergence is pinned to
  // the exact step.
  for (int step = 0;; ++step) {
    ASSERT_EQ(engine->CurrentMaxError(), ref.CurrentMaxError())
        << "max q-error diverged before step " << step;
    const bool engine_more = engine->Step();
    const bool ref_more = ref.Step();
    ASSERT_EQ(engine_more, ref_more) << "termination diverged at step " << step;
    ASSERT_EQ(engine->partition().color_of(), ref.partition().color_of())
        << "partition diverged at step " << step;
    if (!engine_more) break;
  }
  EXPECT_EQ(engine->CurrentMaxError(), 0.0);
}

std::string SplitRuleParamName(
    const testing::TestParamInfo<SplitRuleEquivalenceTest::ParamType>& info) {
  const auto& [kernel, seed, directed, split_mean, threads, weighted] =
      info.param;
  return std::string(kernel == ScanSplitReference::Kernel::kLpRounding
                         ? "lprounding"
                         : "bucket") +
         "_seed" + std::to_string(seed) +
         (directed ? "_directed_" : "_undirected_") +
         (split_mean == SplitMean::kGeometric ? "geometric" : "arithmetic") +
         "_threads" + std::to_string(threads) + (weighted ? "_ab11" : "_ab00");
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SplitRuleEquivalenceTest,
    testing::Combine(testing::Values(ScanSplitReference::Kernel::kLpRounding,
                                     ScanSplitReference::Kernel::kBucket),
                     testing::ValuesIn(testing_corpus::CorpusSeeds()),
                     testing::Bool(),
                     testing::Values(SplitMean::kArithmetic,
                                     SplitMean::kGeometric),
                     testing::Values(1, 2, 8), testing::Bool()),
    SplitRuleParamName);

}  // namespace
}  // namespace qsc
