// Old-vs-new Rothko equivalence: the flat sparse-row refiner
// (qsc/coloring/rothko.cc) must make bit-identical split decisions to the
// frozen pre-optimization implementation (rothko_reference.h). Compared
// over the shared 56-graph property corpus: the full history() trace
// (split color, new color, witness error, color count — everything except
// wall-clock), the final partition, and the error trajectory. Every corpus
// point runs from each CorpusStart partition: trivial, a max-flow spec's
// pinned source and sink, and a three-color base partition.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph.h"
#include "rothko_corpus.h"
#include "rothko_reference.h"

namespace qsc {
namespace {

class RothkoEquivalenceTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, bool, RothkoOptions::SplitMean,
                     testing_corpus::CorpusStart>> {};

TEST_P(RothkoEquivalenceTest, SplitHistoryMatchesReferenceImplementation) {
  const auto [seed, directed, split_mean, start] = GetParam();
  const Graph g = testing_corpus::CorpusGraph(seed, directed);
  const Partition initial =
      testing_corpus::CorpusStartPartition(start, g.num_nodes());

  RothkoOptions options;
  options.split_mean = split_mean;
  options.max_colors = g.num_nodes();  // run all the way to stability

  RothkoRefiner optimized(g, initial, options);
  reference::ReferenceRefiner ref(g, initial, options);

  // Drive both step by step so a divergence is pinned to the exact split.
  for (int step = 0;; ++step) {
    ASSERT_EQ(optimized.CurrentMaxError(), ref.CurrentMaxError())
        << "max q-error diverged before step " << step;
    const bool opt_more = optimized.Step();
    const bool ref_more = ref.Step();
    ASSERT_EQ(opt_more, ref_more) << "termination diverged at step " << step;
    if (!opt_more) break;
  }

  const std::vector<RothkoStep>& opt_hist = optimized.history();
  const std::vector<RothkoStep>& ref_hist = ref.history();
  ASSERT_EQ(opt_hist.size(), ref_hist.size());
  for (size_t i = 0; i < opt_hist.size(); ++i) {
    EXPECT_EQ(opt_hist[i].split_color, ref_hist[i].split_color)
        << "split " << i;
    EXPECT_EQ(opt_hist[i].new_color, ref_hist[i].new_color) << "split " << i;
    // Bitwise: both implementations must aggregate the same doubles in the
    // same order.
    EXPECT_EQ(opt_hist[i].witness_error, ref_hist[i].witness_error)
        << "split " << i;
    EXPECT_EQ(opt_hist[i].num_colors, ref_hist[i].num_colors) << "split " << i;
  }

  EXPECT_TRUE(optimized.partition() == ref.partition());
}

std::string EquivalenceParamName(
    const testing::TestParamInfo<RothkoEquivalenceTest::ParamType>& info) {
  return "seed" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_directed_" : "_undirected_") +
         (std::get<2>(info.param) == RothkoOptions::SplitMean::kGeometric
              ? "geometric"
              : "arithmetic") +
         "_" + testing_corpus::CorpusStartName(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RothkoEquivalenceTest,
    testing::Combine(testing::ValuesIn(testing_corpus::CorpusSeeds()),
                     testing::Bool(),
                     testing::Values(RothkoOptions::SplitMean::kArithmetic,
                                     RothkoOptions::SplitMean::kGeometric),
                     testing::ValuesIn(testing_corpus::CorpusStarts())),
    EquivalenceParamName);

}  // namespace
}  // namespace qsc
