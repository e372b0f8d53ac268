// qsc_bench: the machine-readable performance harness (docs/BENCHMARKING.md).
//
// Run mode executes registered perf scenarios (steady-clock timing with
// warmup/repeat and median/MAD stats, peak-RSS sampling) and either prints
// human tables or, with --json, writes one schema-versioned artifact per
// scenario group (BENCH_coloring.json, BENCH_pipelines.json, ...,
// BENCH_paper.json). A scenario with a detail table (the paper/* figure
// and table reproductions) prints it, followed by its counters.
//
//   qsc_bench --list
//   qsc_bench --suite smoke --json          # the CI benchmark job
//   qsc_bench --scenario coloring/rothko-ba-100k-c256 --repeats 9
//   qsc_bench --scenario paper/fig1-karate  # one paper figure's table
//
// Compare mode gates a fresh run against a committed baseline: counters
// must match exactly, medians within a noise tolerance.
//
//   qsc_bench --compare bench/baselines/BENCH_coloring.json
//             BENCH_coloring.json --tolerance 2.0   (one command line)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "qsc/bench/compare.h"
#include "qsc/bench/report.h"
#include "qsc/bench/scenario.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/flags.h"
#include "qsc/util/json.h"
#include "qsc/util/table.h"

namespace qsc {
namespace bench {
namespace {

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "usage: qsc_bench [options]\n"
      "run mode (default):\n"
      "  --list                 list registered scenarios and exit\n"
      "  --suite=smoke|full     scenario selection (default smoke)\n"
      "  --scenario=NAME        run NAME (repeatable; overrides --suite)\n"
      "  --seed=N               uint64 instance seed (default 1)\n"
      "  --threads=N            worker threads (counters are identical for\n"
      "                         any N; only timings change; default 1)\n"
      "  --warmup=N             un-timed runs per scenario (default 1)\n"
      "  --repeats=N            timed runs per scenario (default 5)\n"
      "  --json                 write BENCH_<group>.json artifacts\n"
      "  --out-dir=DIR          artifact directory (default .)\n"
      "  --compact              single-line JSON artifacts\n"
      "compare mode:\n"
      "  --compare BASE CURRENT gate CURRENT against committed BASE\n"
      "  --compare-counters A B gate counter identity only (no timings;\n"
      "                         scenario sets must match exactly)\n"
      "  --tolerance=X          max median slowdown (default 2.0)\n"
      "  --min-median=S         timing-gate floor in seconds (default 0.01)\n"
      "flags accept both --flag=value and --flag value forms\n");
}

int ListScenarios() {
  for (const Scenario* s : ScenarioRegistry::Global().List()) {
    std::printf("%-36s %-6s %s\n", s->name().c_str(),
                s->info().smoke ? "smoke" : "full",
                s->info().description.c_str());
  }
  return 0;
}

int RunCompare(const std::string& baseline_path,
               const std::string& current_path,
               const CompareOptions& options) {
  std::string baseline_text, current_text;
  Status status = ReadFile(baseline_path, &baseline_text);
  if (status.ok()) status = ReadFile(current_path, &current_text);
  JsonValue baseline, current;
  if (status.ok()) status = ParseJson(baseline_text, &baseline);
  if (status.ok()) status = ParseJson(current_text, &current);
  if (!status.ok()) {
    std::fprintf(stderr, "qsc_bench: %s\n", status.message().c_str());
    return 2;
  }

  const CompareReport report = CompareBenchReports(baseline, current, options);
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const CompareViolation& v : report.violations) {
    std::printf("FAIL %s%s%s\n", v.scenario.c_str(),
                v.scenario.empty() ? "" : ": ", v.detail.c_str());
  }
  std::printf("%s: compared %d scenario(s) against %s: %zu violation(s)\n",
              report.ok() ? "OK" : "FAILED", report.compared,
              baseline_path.c_str(), report.violations.size());
  return report.ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  RegisterBuiltinScenarios();

  BenchContext context;
  std::string suite = "smoke";
  std::vector<std::string> names;
  std::string out_dir = ".";
  bool list = false, json = false, pretty = true;
  bool compare = false;
  std::string baseline_path, current_path;
  CompareOptions compare_options;

  const FlagParser flags("qsc_bench", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--compact") == 0) {
      pretty = false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (std::strcmp(arg, "--compare") == 0 ||
               std::strcmp(arg, "--compare-counters") == 0) {
      if (i + 2 >= argc) {
        flags.Fail(std::string(arg) + " needs BASELINE and CURRENT");
      }
      compare = true;
      compare_options.counters_only =
          std::strcmp(arg, "--compare-counters") == 0;
      baseline_path = argv[++i];
      current_path = argv[++i];
    } else if (flags.Match(&i, "--suite", &value)) {
      if (value != "smoke" && value != "full") {
        flags.Fail("unknown suite '" + value + "'");
      }
      suite = value;
    } else if (flags.Match(&i, "--scenario", &value)) {
      names.push_back(value);
    } else if (flags.Match(&i, "--seed", &value)) {
      context.seed = flags.ParseSeed(value);
    } else if (flags.Match(&i, "--threads", &value)) {
      context.threads = flags.ParseInt(value, "--threads", 1);
    } else if (flags.Match(&i, "--warmup", &value)) {
      context.measure.warmup = flags.ParseInt(value, "--warmup", 0);
    } else if (flags.Match(&i, "--repeats", &value)) {
      context.measure.repeats = flags.ParseInt(value, "--repeats", 1);
    } else if (flags.Match(&i, "--out-dir", &value)) {
      out_dir = value;
    } else if (flags.Match(&i, "--tolerance", &value)) {
      compare_options.max_slowdown = flags.ParseDouble(value, "--tolerance");
    } else if (flags.Match(&i, "--min-median", &value)) {
      compare_options.min_median_seconds =
          flags.ParseDouble(value, "--min-median");
    } else {
      std::fprintf(stderr, "qsc_bench: unknown argument '%s'\n", arg);
      PrintUsage(stderr);
      return 2;
    }
  }

  if (list) return ListScenarios();
  if (compare) {
    return RunCompare(baseline_path, current_path, compare_options);
  }

  // Size the process pool before any scenario runs; the parallel
  // scenarios pick it up via DefaultPool().
  SetDefaultPoolThreads(context.threads);

  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  std::vector<const Scenario*> selected;
  if (!names.empty()) {
    suite = "custom";
    for (const std::string& name : names) {
      const Scenario* s = registry.Find(name);
      if (s == nullptr) {
        flags.Fail("unknown scenario '" + name + "' (try --list)");
      }
      selected.push_back(s);
    }
  } else {
    for (const Scenario* s : registry.List()) {
      if (suite == "full" || s->info().smoke) selected.push_back(s);
    }
  }

  BenchReport report;
  report.suite = suite;
  report.seed = context.seed;
  report.threads = context.threads;
  report.measure = context.measure;
  for (size_t i = 0; i < selected.size(); ++i) {
    std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1, selected.size(),
                 selected[i]->name().c_str());
    report.results.push_back(selected[i]->Run(context));
    std::fprintf(stderr, "         median %s over %lld repeat(s)\n",
                 FormatSeconds(report.results.back().timing.seconds.median)
                     .c_str(),
                 static_cast<long long>(
                     report.results.back().timing.seconds.count));
  }

  if (json) {
    for (const std::string& group : ReportGroups(report)) {
      const std::string path = out_dir + "/" + BenchFileName(group);
      const Status status =
          WriteFile(path, ReportGroupJson(report, group, pretty) + "\n");
      if (!status.ok()) flags.Fail(status.message());
      std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  }

  for (const std::string& group : ReportGroups(report)) {
    std::printf("=== %s (suite: %s, seed: %llu) ===\n", group.c_str(),
                suite.c_str(), static_cast<unsigned long long>(report.seed));
    TablePrinter table(
        {"scenario", "median", "mad", "min", "repeats", "peak rss"});
    for (const ScenarioResult& r : report.results) {
      if (r.group != group) continue;
      table.AddRow({r.name, FormatSeconds(r.timing.seconds.median),
                    FormatSeconds(r.timing.seconds.mad),
                    FormatSeconds(r.timing.seconds.min),
                    std::to_string(r.timing.seconds.count),
                    FormatDouble(r.timing.peak_rss_mib, 1) + " MiB"});
    }
    table.Print(stdout);
    std::printf("\n");
    for (const ScenarioResult& r : report.results) {
      if (r.group != group || r.table_rows.empty()) continue;
      std::printf("--- %s ---\n", r.name.c_str());
      TablePrinter detail(r.table_header);
      for (const auto& row : r.table_rows) detail.AddRow(row);
      detail.Print(stdout);
      // The scalar results beside the table (e.g. a figure's headline
      // color count); the JSON report carries them at full precision.
      for (const auto& [name, value] : r.counters) {
        std::printf("%s = %.10g\n", name.c_str(), value);
      }
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qsc

int main(int argc, char** argv) { return qsc::bench::Main(argc, argv); }
