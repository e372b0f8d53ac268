// Tests for the qsc/eval workload layer: registry contents and lookup,
// pipeline record shape per application area, budget overrides, seed
// reproducibility, and JSON serialization of results.

#include "qsc/eval/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "qsc/eval/json.h"
#include "qsc/eval/pipelines.h"
#include "qsc/eval/suites.h"

namespace qsc {
namespace eval {
namespace {

TEST(WorkloadRegistryTest, BuiltinsCoverEveryApplicationArea) {
  RegisterBuiltinWorkloads();
  RegisterBuiltinWorkloads();  // idempotent
  const auto workloads = WorkloadRegistry::Global().List();
  EXPECT_GE(workloads.size(), 9u);
  std::set<Application> areas;
  std::set<std::string> names;
  for (const Workload* w : workloads) {
    areas.insert(w->area());
    EXPECT_TRUE(names.insert(w->name()).second) << "duplicate " << w->name();
    EXPECT_FALSE(w->info().default_budgets.empty()) << w->name();
    // Names follow the "<area>/<scenario>" convention.
    EXPECT_EQ(w->name().rfind(std::string(ApplicationName(w->area())) + "/", 0),
              0u)
        << w->name();
  }
  EXPECT_EQ(areas.size(), 3u);
}

TEST(WorkloadRegistryTest, FindIsExactAndMissReturnsNull) {
  RegisterBuiltinWorkloads();
  EXPECT_NE(WorkloadRegistry::Global().Find("maxflow/seg-grid"), nullptr);
  EXPECT_EQ(WorkloadRegistry::Global().Find("maxflow/nope"), nullptr);
  EXPECT_EQ(WorkloadRegistry::Global().Find("maxflow"), nullptr);
}

TEST(WorkloadRunTest, FlowRecordsHaveFlowMetrics) {
  RegisterBuiltinWorkloads();
  const Workload* w = WorkloadRegistry::Global().Find("maxflow/grid");
  ASSERT_NE(w, nullptr);
  EvalOptions options;
  options.seed = 3;
  options.color_budgets = {6, 12};
  const WorkloadResult result = w->Run(options);
  EXPECT_EQ(result.workload, "maxflow/grid");
  EXPECT_EQ(result.seed, 3u);
  ASSERT_EQ(result.runs.size(), 2u);  // budget override respected
  for (const RunMetrics& m : result.runs) {
    EXPECT_GT(m.exact_value, 0.0);
    EXPECT_GE(m.approx_value, m.exact_value - 1e-6);  // upper bound
    EXPECT_GE(m.relative_error, 1.0);
    EXPECT_TRUE(std::isnan(m.rank_correlation));  // not a centrality run
    EXPECT_LE(m.num_colors, m.color_budget);
    EXPECT_GE(m.max_q, 0.0);
  }
  // Budgets are swept ascending regardless of input order.
  EXPECT_LT(result.runs[0].color_budget, result.runs[1].color_budget);
}

TEST(WorkloadRunTest, CentralityRecordsHaveRankCorrelation) {
  RegisterBuiltinWorkloads();
  const Workload* w = WorkloadRegistry::Global().Find("centrality/karate");
  ASSERT_NE(w, nullptr);
  const WorkloadResult result = w->Run(EvalOptions{});
  ASSERT_FALSE(result.runs.empty());
  for (const RunMetrics& m : result.runs) {
    EXPECT_TRUE(std::isnan(m.exact_value));
    EXPECT_GE(m.rank_correlation, -1.0 - 1e-9);
    EXPECT_LE(m.rank_correlation, 1.0 + 1e-9);
  }
}

TEST(WorkloadRunTest, LpRecordsTrackReducedDimensions) {
  RegisterBuiltinWorkloads();
  const Workload* w = WorkloadRegistry::Global().Find("lp/block");
  ASSERT_NE(w, nullptr);
  EvalOptions options;
  options.seed = 5;
  options.lp_oracle = LpOracle::kSimplex;
  const WorkloadResult result = w->Run(options);
  ASSERT_FALSE(result.runs.empty());
  for (const RunMetrics& m : result.runs) {
    EXPECT_TRUE(std::isfinite(m.exact_value));
    EXPECT_TRUE(std::isfinite(m.approx_value));
    EXPECT_GE(m.relative_error, 1.0);
    EXPECT_LE(m.num_colors, m.color_budget);
  }
}

TEST(WorkloadRunTest, SameSeedReproducesMetricsDifferentSeedDoesNot) {
  RegisterBuiltinWorkloads();
  const Workload* w = WorkloadRegistry::Global().Find("maxflow/seg-grid");
  ASSERT_NE(w, nullptr);
  EvalOptions options;
  options.seed = 77;
  const WorkloadResult a = w->Run(options);
  const WorkloadResult b = w->Run(options);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_TRUE(MetricsEquivalent(a.runs[i], b.runs[i]));
  }

  options.seed = 78;
  const WorkloadResult c = w->Run(options);
  bool any_difference = false;
  for (size_t i = 0; i < a.runs.size(); ++i) {
    any_difference = any_difference || !MetricsEquivalent(a.runs[i], c.runs[i]);
  }
  EXPECT_TRUE(any_difference);  // the seed actually drives the instance
}

TEST(WorkloadJsonTest, ResultSerializesWithMetricsAndTiming) {
  RegisterBuiltinWorkloads();
  const Workload* w = WorkloadRegistry::Global().Find("lp/qap");
  ASSERT_NE(w, nullptr);
  EvalOptions options;
  options.color_budgets = {8};
  const WorkloadResult result = w->Run(options);

  JsonWriter json;
  WriteResultJson(result, json);
  const std::string& text = json.str();
  EXPECT_NE(text.find("\"workload\":\"lp/qap\""), std::string::npos);
  EXPECT_NE(text.find("\"area\":\"lp\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\":1"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(text.find("\"timing\":{"), std::string::npos);
  EXPECT_NE(text.find("\"relative_error\":"), std::string::npos);
  // Flow-only fields serialize as null for LP runs.
  EXPECT_NE(text.find("\"lower_bound\":null"), std::string::npos);

  // Serialization of the metric fields is itself reproducible: strip the
  // timing objects and compare against a second run.
  JsonWriter json2;
  WriteResultJson(w->Run(options), json2);
  auto strip_timing = [](std::string s) {
    for (size_t at = s.find("\"timing\":{"); at != std::string::npos;
         at = s.find("\"timing\":{", at + 1)) {
      const size_t end = s.find('}', at);
      s.erase(at, end - at + 1);
    }
    return s;
  };
  EXPECT_EQ(strip_timing(text), strip_timing(json2.str()));
}

TEST(PipelineTest, SortsAndDeduplicatesBudgets) {
  RegisterBuiltinWorkloads();
  Rng rng(9);
  const FlowInstance inst = GridFlowNetwork(8, 5, 6, 15, rng);
  const auto runs = RunMaxFlowPipeline(inst, EvalOptions{}, {20, 5, 20, 10});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].color_budget, 5);
  EXPECT_EQ(runs[1].color_budget, 10);
  EXPECT_EQ(runs[2].color_budget, 20);
}

TEST(SuitesTest, DatasetSuitesMatchTheBenchIndex) {
  // The bench experiment index (names + paper names) must stay stable;
  // the bench binaries draw their datasets from these suites.
  const auto general = GeneralGraphSuite();
  ASSERT_EQ(general.size(), 3u);
  EXPECT_EQ(general[0].name, "karate");
  EXPECT_TRUE(general[0].real);
  EXPECT_EQ(general[0].graph.num_nodes(), 34);

  const auto lps = LpSuite();
  ASSERT_EQ(lps.size(), 4u);
  EXPECT_EQ(lps[0].paper_name, "qap15");
  EXPECT_GT(lps[0].lp.num_cols, lps[0].lp.num_rows);  // cols outnumber rows
}

}  // namespace
}  // namespace eval
}  // namespace qsc
