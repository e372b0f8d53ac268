// Tests for the baseline comparator's gate logic (median slowdown
// tolerance, exact counter/param matching, missing scenarios, the noise
// floor). The JSON parser it reads reports with is tested in
// util_json_test.cc.

#include "qsc/bench/compare.h"

#include <gtest/gtest.h>

#include <string>

namespace qsc {
namespace bench {
namespace {

JsonValue Parse(const std::string& text) {
  JsonValue value;
  const Status status = ParseJson(text, &value);
  EXPECT_TRUE(status.ok()) << status.message();
  return value;
}

std::string ReportDoc(double median, double counter,
                      const char* name = "coloring/x", int schema = 1) {
  return std::string("{\"schema_version\": ") + std::to_string(schema) +
         ", \"scenarios\": [{\"name\": \"" + name +
         "\", \"params\": {\"nodes\": 100}, \"counters\": {\"m\": " +
         std::to_string(counter) +
         "}, \"timing\": {\"median_s\": " + std::to_string(median) + "}}]}";
}

TEST(CompareTest, IdenticalReportsPass) {
  const JsonValue doc = Parse(ReportDoc(0.5, 7.0));
  const CompareReport r = CompareBenchReports(doc, doc, CompareOptions());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 1);
}

TEST(CompareTest, SlowdownBeyondToleranceFails) {
  const JsonValue base = Parse(ReportDoc(0.5, 7.0));
  const JsonValue slower = Parse(ReportDoc(1.2, 7.0));
  CompareOptions options;
  options.max_slowdown = 2.0;
  const CompareReport r = CompareBenchReports(base, slower, options);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].scenario, "coloring/x");
}

TEST(CompareTest, SlowdownWithinToleranceAndAnySpeedupPass) {
  const JsonValue base = Parse(ReportDoc(0.5, 7.0));
  EXPECT_TRUE(
      CompareBenchReports(base, Parse(ReportDoc(0.9, 7.0)), CompareOptions())
          .ok());
  EXPECT_TRUE(
      CompareBenchReports(base, Parse(ReportDoc(0.01, 7.0)), CompareOptions())
          .ok());
}

TEST(CompareTest, TinyBaselineMediansAreNotGated) {
  // 1ms baseline: far below the default 10ms floor; even a 100x "slowdown"
  // must be skipped (it is measurement noise at this scale).
  const JsonValue base = Parse(ReportDoc(0.001, 7.0));
  const JsonValue slower = Parse(ReportDoc(0.1, 7.0));
  const CompareReport r = CompareBenchReports(base, slower, CompareOptions());
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.notes.size(), 1u);
}

TEST(CompareTest, UlpLevelCounterDriftIsTolerated) {
  // Baselines recorded under a different glibc/compiler can differ by
  // ~1 ulp on libm-derived counters; the gate must not flake on that.
  const JsonValue base = Parse(ReportDoc(0.5, 0.819814341011425));
  const JsonValue drifted = Parse(ReportDoc(0.5, 0.819814341011426));
  EXPECT_TRUE(CompareBenchReports(base, drifted, CompareOptions()).ok());
}

TEST(CompareTest, CounterDriftFailsEvenWhenTimingIsFine) {
  const JsonValue base = Parse(ReportDoc(0.5, 7.0));
  const JsonValue drifted = Parse(ReportDoc(0.5, 8.0));
  const CompareReport r = CompareBenchReports(base, drifted, CompareOptions());
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].detail.find("counters.m"), std::string::npos);
}

// Counter-identity mode: the scenario sets must match exactly, and a
// mismatch is ONE aggregate violation naming every offender in both
// directions plus the baseline-update pointer — not a per-scenario drip.
TEST(CompareTest, CountersOnlyScenarioSetMismatchAggregatesOneViolation) {
  const auto doc = [](const char* first, const char* second) {
    return Parse(std::string("{\"schema_version\": 1, \"scenarios\": [") +
                 "{\"name\": \"" + first +
                 "\", \"params\": {}, \"counters\": {\"m\": 1}}, " +
                 "{\"name\": \"" + second +
                 "\", \"params\": {}, \"counters\": {\"m\": 1}}]}");
  };
  CompareOptions options;
  options.counters_only = true;

  // Identical sets: clean pass, both scenarios compared.
  EXPECT_TRUE(CompareBenchReports(doc("shared/x", "dynamic/a"),
                                  doc("shared/x", "dynamic/a"), options)
                  .ok());

  const CompareReport r = CompareBenchReports(
      doc("shared/x", "dynamic/a"), doc("shared/x", "dynamic/b"), options);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_TRUE(r.violations[0].scenario.empty());
  const std::string& detail = r.violations[0].detail;
  EXPECT_NE(detail.find("only in baseline: dynamic/a"), std::string::npos)
      << detail;
  EXPECT_NE(detail.find("only in current: dynamic/b"), std::string::npos)
      << detail;
  EXPECT_EQ(detail.find("shared/x"), std::string::npos) << detail;
  EXPECT_NE(detail.find("BENCHMARKING.md"), std::string::npos) << detail;
}

TEST(CompareTest, MissingScenarioFailsNewScenarioIsNoted) {
  const JsonValue base = Parse(ReportDoc(0.5, 7.0, "coloring/old"));
  const JsonValue current = Parse(ReportDoc(0.5, 7.0, "coloring/new"));
  const CompareReport r = CompareBenchReports(base, current, CompareOptions());
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].scenario, "coloring/old");
  ASSERT_EQ(r.notes.size(), 1u);
  EXPECT_NE(r.notes[0].find("coloring/new"), std::string::npos);
}

TEST(CompareTest, SchemaVersionMismatchFailsFast) {
  const JsonValue base = Parse(ReportDoc(0.5, 7.0, "coloring/x", 1));
  const JsonValue current = Parse(ReportDoc(0.5, 7.0, "coloring/x", 2));
  const CompareReport r = CompareBenchReports(base, current, CompareOptions());
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_TRUE(r.violations[0].scenario.empty());
}

TEST(CompareTest, NullCountersCompareEqual) {
  // JsonNumber renders NaN as null; two NaN counters must not flag drift.
  const std::string doc =
      "{\"schema_version\": 1, \"scenarios\": [{\"name\": \"x\", "
      "\"counters\": {\"m\": null}, \"timing\": {\"median_s\": 0.5}}]}";
  EXPECT_TRUE(
      CompareBenchReports(Parse(doc), Parse(doc), CompareOptions()).ok());
}

TEST(CompareTest, ReadFileErrorsOnMissingPath) {
  std::string contents;
  EXPECT_FALSE(ReadFile("/nonexistent-qsc/b.json", &contents).ok());
}

}  // namespace
}  // namespace bench
}  // namespace qsc
