// Compressor::SolveLp over its per-LP coloring caches: every answer equals
// a cold ReduceLp + SolveSimplex at the same options (whatever budgets the
// session served before), the reduction variant shares the cached
// coloring, telemetry is per request, and the session byte budget bounds
// each LP's colorings without changing an answer.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qsc/api/compressor.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"

namespace qsc {
namespace {

struct NamedLp {
  std::string name;
  LpProblem lp;
};

std::vector<NamedLp> TableLps() {
  return {{"qap", MakeQapLikeLp(5, 17)},
          {"nugent", MakeNugentLikeLp(4, 13)},
          {"wide", MakeWideSupportLp(4, 11)},
          {"figure3", Figure3Lp()}};
}

// Up, repeat, down (unmemoized), down (memoized), up past every budget.
constexpr ColorId kBudgets[] = {8, 24, 24, 12, 8, 40};

void ExpectSameAnswer(const LpQueryResult& a, const LpQueryResult& b,
                      const std::string& where) {
  EXPECT_EQ(a.reduced.row_color, b.reduced.row_color) << where;
  EXPECT_EQ(a.reduced.col_color, b.reduced.col_color) << where;
  EXPECT_EQ(a.reduced.max_q, b.reduced.max_q) << where;
  EXPECT_EQ(a.solution.status, b.solution.status) << where;
  EXPECT_EQ(a.solution.objective, b.solution.objective) << where;
  EXPECT_EQ(a.lifted_x, b.lifted_x) << where;
}

TEST(SolveLpTableTest, EveryAnswerEqualsColdReduceLp) {
  for (const NamedLp& named : TableLps()) {
    for (const char* backend : {"rothko", "lp-rounding", "bucket"}) {
      Compressor session;
      int64_t lookups = 0;
      for (const ColorId budget : kBudgets) {
        for (const LpReduction variant :
             {LpReduction::kSqrtNormalized, LpReduction::kGrohe}) {
          const std::string where =
              named.name + "/" + backend + "/" + std::to_string(budget) +
              (variant == LpReduction::kGrohe ? "/grohe" : "/sqrt");
          QueryOptions query;
          query.max_colors = budget;
          query.backend = backend;
          query.lp_variant = variant;
          const StatusOr<LpQueryResult> served =
              session.SolveLp(named.lp, query);
          ASSERT_TRUE(served.ok()) << where << served.status().ToString();
          ++lookups;

          LpReduceOptions cold_options;
          cold_options.max_colors = budget;
          cold_options.backend = backend;
          cold_options.variant = variant;
          const ReducedLp cold = ReduceLp(named.lp, cold_options);
          const LpResult cold_solve = SolveSimplex(cold.lp);
          EXPECT_EQ(served->reduced.row_color, cold.row_color) << where;
          EXPECT_EQ(served->reduced.col_color, cold.col_color) << where;
          EXPECT_EQ(served->reduced.max_q, cold.max_q) << where;
          EXPECT_EQ(served->solution.status, cold_solve.status) << where;
          EXPECT_EQ(served->solution.objective, cold_solve.objective)
              << where;

          // The variant only shapes the extraction: the second variant at
          // a budget reuses the first one's coloring.
          if (variant == LpReduction::kGrohe) {
            EXPECT_TRUE(served->telemetry.coloring_cache_hit) << where;
            EXPECT_EQ(served->telemetry.coloring_splits, 0) << where;
          }
        }
      }
      const CompressorStats stats = session.stats();
      EXPECT_EQ(stats.lp_lookups, lookups);
      EXPECT_EQ(stats.lp_misses, 1) << named.name << "/" << backend;
      EXPECT_EQ(stats.lp_hits + stats.lp_misses + stats.lp_recolorings,
                stats.lp_lookups);
    }
  }
}

TEST(SolveLpValidationTest, RejectsOutOfRangeLpVariant) {
  Compressor session;
  QueryOptions query;
  query.lp_variant = static_cast<LpReduction>(7);
  const StatusOr<LpQueryResult> result = session.SolveLp(Figure3Lp(), query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("lp_variant"), std::string::npos);
  EXPECT_EQ(session.stats().lp_misses, 0);  // no LP entry made
}

TEST(SolveLpTelemetryTest, SplitsAndSecondsArePerRequest) {
  const LpProblem lp = MakeQapLikeLp(6, 3);
  Compressor session;
  QueryOptions query;
  const auto solve = [&](ColorId budget) {
    query.max_colors = budget;
    StatusOr<LpQueryResult> result = session.SolveLp(lp, query);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->reduced.coloring_seconds,
              result->telemetry.coloring_seconds);
    EXPECT_GT(result->telemetry.solve_seconds, 0.0);
    return std::move(result).value();
  };

  const LpQueryResult miss = solve(8);
  EXPECT_FALSE(miss.telemetry.coloring_cache_hit);
  EXPECT_GT(miss.telemetry.coloring_splits, 0);
  const LpQueryResult up = solve(24);
  EXPECT_TRUE(up.telemetry.coloring_cache_hit);
  EXPECT_GT(up.telemetry.coloring_splits, 0);
  const LpQueryResult same = solve(24);
  EXPECT_TRUE(same.telemetry.coloring_cache_hit);
  EXPECT_EQ(same.telemetry.coloring_splits, 0);
  // 8 was served before, so the down-budget query reuses its snapshot.
  const LpQueryResult down = solve(8);
  EXPECT_TRUE(down.telemetry.coloring_cache_hit);
  EXPECT_EQ(down.telemetry.coloring_splits, 0);
  EXPECT_EQ(down.reduced.col_color, miss.reduced.col_color);
  EXPECT_EQ(session.stats().lp_recolorings, 0);
}

TEST(SolveLpByteBudgetTest, BudgetedSessionAnswersLikeAnUnbudgetedOne) {
  // One byte is below any entry's footprint, so every request evicts the
  // coloring it used and the next query of the LP recomputes it.
  CompressorOptions tight;
  tight.coloring_cache_byte_budget = 1;
  Compressor budgeted(std::shared_ptr<const Graph>(), nullptr, tight);
  Compressor unbudgeted;
  for (const NamedLp& named : TableLps()) {
    for (const ColorId budget : kBudgets) {
      QueryOptions query;
      query.max_colors = budget;
      const StatusOr<LpQueryResult> a = budgeted.SolveLp(named.lp, query);
      const StatusOr<LpQueryResult> b = unbudgeted.SolveLp(named.lp, query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectSameAnswer(*a, *b, named.name + "/" + std::to_string(budget));
    }
  }
  const CompressorStats stats = budgeted.stats();
  EXPECT_GT(stats.lp_misses, static_cast<int64_t>(TableLps().size()));
  EXPECT_EQ(stats.lp_hits + stats.lp_misses + stats.lp_recolorings,
            stats.lp_lookups);
  EXPECT_EQ(unbudgeted.stats().lp_misses,
            static_cast<int64_t>(TableLps().size()));
}

}  // namespace
}  // namespace qsc
