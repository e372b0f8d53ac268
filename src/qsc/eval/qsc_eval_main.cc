// qsc_eval: the unified evaluation CLI. Runs registered workloads through
// the shared "instance -> coloring -> application -> error vs. exact"
// pipelines and emits one JSON document with per-run metrics, so benchmark
// trajectories and regression baselines all come from one tool.
//
//   qsc_eval --list                      # registered workloads
//   qsc_eval                             # default trio, one per area
//   qsc_eval --all --seed=7 --check      # everything + invariant checks
//   qsc_eval --workload=lp/qap --colors=8,16,32 --lp-oracle=simplex
//
// Re-running with the same --seed reproduces identical metric values;
// only the "timing" objects differ between runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qsc/coloring/backend.h"

#include "qsc/eval/differential.h"
#include "qsc/eval/json.h"
#include "qsc/eval/suites.h"
#include "qsc/eval/workload.h"
#include "qsc/parallel/thread_pool.h"

namespace qsc {
namespace eval {
namespace {

constexpr const char* kDefaultWorkloads[] = {"maxflow/seg-grid", "lp/qap",
                                             "centrality/powerlaw"};

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "usage: qsc_eval [options]\n"
      "  --list                 list registered workloads and exit\n"
      "  --all                  run every registered workload\n"
      "  --workload=NAME        run NAME (repeatable); default: %s %s %s\n"
      "  --seed=N               uint64 instance seed (default 1)\n"
      "  --colors=A,B,C         color-budget sweep (default: per workload)\n"
      "  --flow-solver=S        dinic | edmonds-karp | push-relabel\n"
      "  --lp-oracle=S          simplex | interior-point\n"
      "  --split-mean=S         arithmetic | geometric\n"
      "  --backend=A,B,C        coloring backends to sweep (registered\n"
      "                         names; default: rothko). Each backend runs\n"
      "                         every selected workload and gets its own\n"
      "                         Pareto front in the output\n"
      "  --threads=N            worker threads (metrics are identical for\n"
      "                         any N; default 1)\n"
      "  --flow-lower-bound     also compute the Theorem-6 c^1 bound\n"
      "  --check                run the differential invariant suite too\n"
      "  --compact              single-line JSON (default: pretty)\n",
      kDefaultWorkloads[0], kDefaultWorkloads[1], kDefaultWorkloads[2]);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

std::vector<ColorId> ParseColorList(const std::string& csv) {
  std::vector<ColorId> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string token = csv.substr(pos, comma - pos);
    char* end = nullptr;
    const long value = std::strtol(token.c_str(), &end, 10);
    // A budget above the node count just refines to stability, but one
    // that cannot survive the ColorId cast (or trailing junk) is an error,
    // not something to truncate silently.
    if (token.empty() || *end != '\0' || value < 2 ||
        value > std::numeric_limits<ColorId>::max()) {
      std::fprintf(stderr, "qsc_eval: bad color budget '%s'\n", token.c_str());
      std::exit(2);
    }
    out.push_back(static_cast<ColorId>(value));
    pos = comma + 1;
  }
  if (out.empty()) {
    // An empty --colors= (e.g. from an unset shell variable) must not
    // silently fall back to the default sweep.
    std::fprintf(stderr, "qsc_eval: --colors needs at least one budget\n");
    std::exit(2);
  }
  return out;
}

std::vector<std::string> ParseBackendList(const std::string& csv) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

// Canonicalizes and validates --backend values against the backend names;
// exits like the other flag parsers on a name that cannot run.
std::vector<std::string> ResolveBackends(std::vector<std::string> raw) {
  if (raw.empty()) raw.push_back("");
  std::vector<std::string> out;
  for (const std::string& name : raw) {
    const StatusOr<std::string> canonical = CanonicalBackendName(name);
    if (!canonical.ok() || !IsBackendName(*canonical)) {
      std::string known;
      for (const std::string& n : BackendNames()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      std::fprintf(stderr, "qsc_eval: unknown backend '%s' (registered: %s)\n",
                   name.c_str(), known.c_str());
      std::exit(2);
    }
    if (std::find(out.begin(), out.end(), *canonical) == out.end()) {
      out.push_back(*canonical);
    }
  }
  return out;
}

int ListWorkloads() {
  for (const Workload* w : WorkloadRegistry::Global().List()) {
    std::string budgets;
    for (const ColorId b : w->info().default_budgets) {
      if (!budgets.empty()) budgets += ",";
      budgets += std::to_string(b);
    }
    std::printf("%-22s %-11s colors=[%s]  %s\n", w->name().c_str(),
                ApplicationName(w->area()), budgets.c_str(),
                w->info().description.c_str());
  }
  return 0;
}

void WriteReportJson(const DifferentialReport& report,
                     const std::string& backend, JsonWriter& w) {
  w.BeginObject();
  w.KV("workload", report.workload);
  w.KV("area", ApplicationName(report.area));
  w.KV("backend", backend);
  w.KV("seed", report.seed);
  w.KV("checks", report.checks);
  w.KV("ok", report.ok());
  w.Key("violations");
  w.BeginArray();
  for (const InvariantViolation& v : report.violations) {
    w.BeginObject();
    w.KV("invariant", v.invariant);
    w.KV("detail", v.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

int Main(int argc, char** argv) {
  RegisterBuiltinWorkloads();

  EvalOptions options;
  std::vector<std::string> names;
  std::vector<std::string> backends;
  bool list = false, all = false, run_checks = false, pretty = true;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--all") == 0) {
      all = true;
    } else if (std::strcmp(arg, "--check") == 0) {
      run_checks = true;
    } else if (std::strcmp(arg, "--compact") == 0) {
      pretty = false;
    } else if (std::strcmp(arg, "--flow-lower-bound") == 0) {
      options.compute_flow_lower_bound = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (ParseFlag(arg, "--workload", &value)) {
      names.push_back(value);
    } else if (ParseFlag(arg, "--seed", &value)) {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      // strtoull wraps a leading '-' instead of failing; treat it as bad.
      if (value.empty() || value[0] == '-' || *end != '\0') {
        // A silently-misparsed seed would betray the reproducibility
        // contract; reject it like a bad color budget.
        std::fprintf(stderr, "qsc_eval: bad seed '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--colors", &value)) {
      options.color_budgets = ParseColorList(value);
    } else if (ParseFlag(arg, "--backend", &value)) {
      const std::vector<std::string> parsed = ParseBackendList(value);
      backends.insert(backends.end(), parsed.begin(), parsed.end());
    } else if (ParseFlag(arg, "--threads", &value)) {
      char* end = nullptr;
      const long threads = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || threads < 1) {
        std::fprintf(stderr, "qsc_eval: bad --threads '%s'\n", value.c_str());
        return 2;
      }
      SetDefaultPoolThreads(static_cast<int>(threads));
      options.pool = DefaultPool();
    } else if (ParseFlag(arg, "--flow-solver", &value)) {
      if (value == "dinic") {
        options.flow_solver = FlowSolver::kDinic;
      } else if (value == "edmonds-karp") {
        options.flow_solver = FlowSolver::kEdmondsKarp;
      } else if (value == "push-relabel") {
        options.flow_solver = FlowSolver::kPushRelabel;
      } else {
        std::fprintf(stderr, "qsc_eval: unknown flow solver '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--lp-oracle", &value)) {
      if (value == "simplex") {
        options.lp_oracle = LpOracle::kSimplex;
      } else if (value == "interior-point") {
        options.lp_oracle = LpOracle::kInteriorPoint;
      } else {
        std::fprintf(stderr, "qsc_eval: unknown LP oracle '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--split-mean", &value)) {
      if (value == "arithmetic") {
        options.split_mean = RothkoOptions::SplitMean::kArithmetic;
      } else if (value == "geometric") {
        options.split_mean = RothkoOptions::SplitMean::kGeometric;
      } else {
        std::fprintf(stderr, "qsc_eval: unknown split mean '%s'\n",
                     value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "qsc_eval: unknown argument '%s'\n", arg);
      PrintUsage(stderr);
      return 2;
    }
  }

  if (list) return ListWorkloads();

  backends = ResolveBackends(std::move(backends));

  const WorkloadRegistry& registry = WorkloadRegistry::Global();
  std::vector<const Workload*> selected;
  if (all) {
    selected = registry.List();
  } else {
    if (names.empty()) {
      names.assign(std::begin(kDefaultWorkloads), std::end(kDefaultWorkloads));
    }
    for (const std::string& name : names) {
      const Workload* w = registry.Find(name);
      if (w == nullptr) {
        std::fprintf(stderr,
                     "qsc_eval: unknown workload '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(w);
    }
  }

  JsonWriter json(pretty);
  json.BeginObject();
  json.KV("tool", "qsc_eval");
  json.KV("seed", options.seed);
  json.Key("options");
  json.BeginObject();
  json.KV("flow_solver", FlowSolverName(options.flow_solver));
  json.KV("lp_oracle", LpOracleName(options.lp_oracle));
  json.KV("split_mean",
          options.split_mean == RothkoOptions::SplitMean::kGeometric
              ? "geometric"
              : "arithmetic");
  json.KV("flow_lower_bound", options.compute_flow_lower_bound);
  json.Key("backends");
  json.BeginArray();
  for (const std::string& backend : backends) json.Value(backend);
  json.EndArray();
  json.EndObject();

  // Every (backend, workload) pair runs once; the flat "results" array
  // keeps the legacy per-run shape (each record carries its backend) and
  // "pareto" regroups the same sweeps as per-backend quality/cost fronts.
  std::vector<std::pair<std::string, std::vector<WorkloadResult>>> swept;
  json.Key("results");
  json.BeginArray();
  for (const std::string& backend : backends) {
    options.backend = backend;
    std::vector<WorkloadResult> results;
    results.reserve(selected.size());
    for (const Workload* w : selected) {
      results.push_back(w->Run(options));
      WriteResultJson(results.back(), json);
    }
    swept.emplace_back(backend, std::move(results));
  }
  json.EndArray();

  json.Key("pareto");
  json.BeginArray();
  for (const auto& [backend, results] : swept) {
    json.BeginObject();
    json.KV("backend", backend);
    json.Key("fronts");
    json.BeginArray();
    for (const WorkloadResult& r : results) {
      json.BeginObject();
      json.KV("workload", r.workload);
      json.KV("area", ApplicationName(r.area));
      json.Key("points");
      json.BeginArray();
      for (const RunMetrics& m : r.runs) {
        json.BeginObject();
        json.KV("colors", m.num_colors);
        json.KV("max_q", m.max_q);
        json.KV("relative_error", m.relative_error);
        json.KV("rank_correlation", m.rank_correlation);
        json.KV("approx_seconds", m.approx_seconds);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  bool checks_ok = true;
  if (run_checks) {
    // The runner re-instantiates each workload and re-runs the oracles
    // rather than reusing the results above — deliberate: the invariant
    // suite stays usable without a prior Run(), and the builtin scenarios
    // are small enough that the duplicated work is negligible.
    json.Key("differential");
    json.BeginArray();
    for (const std::string& backend : backends) {
      options.backend = backend;
      DifferentialRunner runner(options);
      for (const Workload* w : selected) {
        const DifferentialReport report = runner.Check(*w);
        checks_ok = checks_ok && report.ok();
        WriteReportJson(report, backend, json);
      }
    }
    json.EndArray();
  }
  json.EndObject();

  std::printf("%s\n", json.str().c_str());
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace eval
}  // namespace qsc

int main(int argc, char** argv) { return qsc::eval::Main(argc, argv); }
