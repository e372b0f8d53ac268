// The "paper" group: one scenario per figure or table of the paper's
// evaluation (docs/REPRODUCING.md maps each to its section, with the
// paper's reference values). Every scenario fills one detail table that
// `qsc_bench --scenario paper/<name>` prints. Values that do not depend on
// the wall clock are counters; timings, and anything a timeout can cut,
// are gauges. Instances come from the qsc/eval dataset suites at their
// canonical seeds, so the --seed flag changes nothing here.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/bench/scenario.h"
#include "qsc/centrality/brandes.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/centrality/path_sampling.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/eval/pipelines.h"
#include "qsc/eval/suites.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/datasets.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/perturb.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/random.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace bench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr MeasureOptions kSingleShot{/*warmup=*/0, /*repeats=*/1};

using Body = std::function<void(ScenarioResult&)>;

// Registers paper/<name>, whose body fills one table with its counters and
// gauges. Smoke scenarios are sub-second and honor --warmup/--repeats; the
// others run once, since their exact baselines dominate.
void RegisterPaper(const char* name, bool smoke, const char* description,
                   Body body) {
  Scenario::Info info;
  info.name = std::string("paper/") + name;
  info.group = "paper";
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [smoke, body](const BenchContext& ctx) {
        ScenarioResult r;
        const Measurement timing =
            MeasureSeconds(smoke ? ctx.measure : kSingleShot, [&] {
              r = ScenarioResult();
              body(r);
            });
        r.timing = timing;
        return r;
      }));
}

// A cold session over a caller-owned graph (aliasing shared_ptr: the
// session dies before the graph).
std::shared_ptr<const Graph> Borrow(const Graph& g) {
  return std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g);
}

std::string SecondsOrX(double seconds) {
  return std::isnan(seconds) ? "x" : FormatSeconds(seconds);
}

// --- figures -------------------------------------------------------------

void RegisterFigure1() {
  RegisterPaper(
      "fig1-karate", /*smoke=*/true,
      "Figure 1: stable vs quasi-stable colorings of the karate club",
      [](ScenarioResult& r) {
        const Graph g = KarateClub();
        r.params = {{"nodes", static_cast<double>(g.num_nodes())}};
        r.counters.push_back(
            {"stable_colors",
             static_cast<double>(StableColoring(g).num_colors())});
        r.table_header = {"max colors", "measured q", "mean q",
                          "leader color size"};
        for (ColorId k : {4, 5, 6, 7, 8}) {
          RothkoOptions options;
          options.max_colors = k;
          const Partition p = RothkoColoring(g, options);
          const QErrorStats stats = ComputeQError(g, p);
          // Node "34", the strongest club leader.
          const int64_t leader = p.ColorSize(p.ColorOf(33));
          const std::string key = "c" + std::to_string(k) + "_";
          r.counters.push_back({key + "max_q", stats.max_q});
          r.counters.push_back({key + "mean_q", stats.mean_q});
          r.counters.push_back(
              {key + "leader_color_size", static_cast<double>(leader)});
          r.table_rows.push_back({std::to_string(k),
                                  FormatDouble(stats.max_q, 1),
                                  FormatDouble(stats.mean_q, 2),
                                  std::to_string(leader)});
        }
        RothkoOptions q3;
        q3.max_colors = 64;
        q3.q_tolerance = 3.0;
        r.counters.push_back(
            {"q3_colors",
             static_cast<double>(RothkoColoring(g, q3).num_colors())});
      });
}

void RegisterFigure2() {
  RegisterPaper(
      "fig2-robustness", /*smoke=*/true,
      "Figure 2: stable vs q=4 colors as random edges perturb a 1000-node "
      "graph with 100 stable colors",
      [](ScenarioResult& r) {
        Rng rng(777);
        const Graph base = BlockBiregularGraph(100, 10, 216, rng);
        r.params = {{"nodes", static_cast<double>(base.num_nodes())},
                    {"edges", static_cast<double>(base.num_edges())}};
        r.table_header = {"edges added", "% perturbed", "stable colors",
                          "stable ratio", "q=4 colors", "q=4 ratio"};
        for (int added : {0, 54, 108, 162, 216, 270, 324}) {
          const Graph noisy =
              added == 0 ? base : AddRandomEdges(base, added, rng);
          const ColorId stable = StableColoring(noisy).num_colors();
          RothkoOptions options;
          options.max_colors = 1001;
          options.q_tolerance = 4.0;
          const ColorId quasi = RothkoColoring(noisy, options).num_colors();
          const std::string key = "added" + std::to_string(added) + "_";
          r.counters.push_back(
              {key + "stable_colors", static_cast<double>(stable)});
          r.counters.push_back({key + "q4_colors", static_cast<double>(quasi)});
          r.table_rows.push_back(
              {std::to_string(added),
               FormatDouble(100.0 * added / base.num_edges(), 2),
               std::to_string(stable), FormatRatio(1000.0 / stable),
               std::to_string(quasi), FormatRatio(1000.0 / quasi)});
        }
      });
}

void RegisterFigure3() {
  RegisterPaper(
      "fig3-lp-example", /*smoke=*/true,
      "Figure 3: the worked 5x3 LP, its q-stable block partition and the "
      "reduced 2x2 LP",
      [](ScenarioResult& r) {
        const LpProblem lp = Figure3Lp();
        LpReduceOptions options;
        options.max_colors = 6;
        const ReducedLp reduced = ReduceLp(lp, options);
        r.counters = {{"exact_objective", SolveSimplex(lp).objective},
                      {"max_q", reduced.max_q},
                      {"reduced_objective",
                       SolveSimplex(reduced.lp).objective}};
        for (int32_t i = 0; i < lp.num_rows; ++i) {
          r.counters.push_back({"row_color_" + std::to_string(i),
                                static_cast<double>(reduced.row_color[i])});
        }
        for (int32_t j = 0; j < lp.num_cols; ++j) {
          r.counters.push_back({"col_color_" + std::to_string(j),
                                static_cast<double>(reduced.col_color[j])});
        }
        const auto entry = [&reduced](int32_t row, int32_t col) {
          for (const LpEntry& e : reduced.lp.entries) {
            if (e.row == row && e.col == col) return e.value;
          }
          return 0.0;
        };
        const int32_t r0 = reduced.row_color[0];
        const int32_t r1 = reduced.row_color[3];
        const int32_t s0 = reduced.col_color[0];
        const int32_t s1 = reduced.col_color[2];
        const std::pair<const char*, double> blocks[] = {
            {"A(0,0)", entry(r0, s0)}, {"A(0,1)", entry(r0, s1)},
            {"A(1,0)", entry(r1, s0)}, {"A(1,1)", entry(r1, s1)},
            {"b(0)", reduced.lp.b[r0]}, {"b(1)", reduced.lp.b[r1]},
            {"c(0)", reduced.lp.c[s0]}, {"c(1)", reduced.lp.c[s1]}};
        r.table_header = {"block", "value"};
        for (const auto& [block, value] : blocks) {
          r.counters.push_back({block, value});
          r.table_rows.push_back({block, FormatDouble(value, 4)});
        }
      });
}

// Figure 7: the speed-accuracy sweeps over the whole Table-2/3 suites.
void RegisterFigure7() {
  RegisterPaper(
      "fig7-maxflow", /*smoke=*/false,
      "Figure 7(a): max-flow speed-accuracy sweep over the Table-2 flow "
      "suite",
      [](ScenarioResult& r) {
        r.table_header = {"dataset", "exact flow", "exact time", "colors",
                          "approx",  "rel.err",    "time",       "% of exact"};
        const eval::EvalOptions options;  // push-relabel oracle
        std::vector<double> errors_at_35;
        for (const auto& dataset : eval::FlowSuite()) {
          for (const eval::RunMetrics& m : eval::RunMaxFlowPipeline(
                   dataset.instance, options, {5, 10, 20, 35})) {
            if (m.color_budget == 35) {
              errors_at_35.push_back(m.relative_error);
              r.counters.push_back(
                  {dataset.name + "_b35_rel_err", m.relative_error});
            }
            r.table_rows.push_back(
                {dataset.name, FormatDouble(m.exact_value, 0),
                 FormatSeconds(m.exact_seconds),
                 std::to_string(m.color_budget),
                 FormatDouble(m.approx_value, 0),
                 FormatDouble(m.relative_error, 3),
                 FormatSeconds(m.approx_seconds),
                 FormatDouble(100.0 * m.approx_seconds / m.exact_seconds, 1)});
          }
        }
        r.counters.push_back(
            {"geomean_rel_err_b35", GeometricMean(errors_at_35)});
      });
  RegisterPaper(
      "fig7-lp", /*smoke=*/false,
      "Figure 7(b): LP speed-accuracy sweep over the Table-3 LP suite",
      [](ScenarioResult& r) {
        r.table_header = {"dataset", "exact obj", "exact time", "colors",
                          "approx obj", "rel.err", "time", "% of exact"};
        const eval::EvalOptions options;  // interior-point oracle
        std::vector<double> errors_at_100;
        for (const auto& dataset : eval::LpSuite()) {
          for (const eval::RunMetrics& m :
               eval::RunLpPipeline(dataset.lp, options, {10, 25, 50, 100})) {
            if (m.color_budget == 100) {
              errors_at_100.push_back(m.relative_error);
              r.counters.push_back(
                  {dataset.name + "_b100_rel_err", m.relative_error});
            }
            r.table_rows.push_back(
                {dataset.name, FormatDouble(m.exact_value, 1),
                 FormatSeconds(m.exact_seconds),
                 std::to_string(m.color_budget),
                 FormatDouble(m.approx_value, 1),
                 FormatDouble(m.relative_error, 3),
                 FormatSeconds(m.approx_seconds),
                 FormatDouble(100.0 * m.approx_seconds / m.exact_seconds, 2)});
          }
        }
        r.counters.push_back(
            {"geomean_rel_err_b100", GeometricMean(errors_at_100)});
      });
  RegisterPaper(
      "fig7-centrality", /*smoke=*/false,
      "Figure 7(c): betweenness-centrality sweep over the Table-2 "
      "centrality suite",
      [](ScenarioResult& r) {
        r.table_header = {"dataset", "exact time", "colors",
                          "spearman", "time",       "% of exact"};
        eval::EvalOptions options;
        options.seed = 17;  // pivot-sampling seed
        std::vector<double> rho_at_50;
        for (const auto& dataset : eval::CentralityGraphSuite()) {
          for (const eval::RunMetrics& m : eval::RunCentralityPipeline(
                   dataset.graph, options, {10, 25, 50, 100})) {
            if (m.color_budget == 50) {
              rho_at_50.push_back(m.rank_correlation);
              r.counters.push_back(
                  {dataset.name + "_b50_rho", m.rank_correlation});
            }
            r.table_rows.push_back(
                {dataset.name, FormatSeconds(m.exact_seconds),
                 std::to_string(m.color_budget),
                 FormatDouble(m.rank_correlation, 3),
                 FormatSeconds(m.approx_seconds),
                 FormatDouble(100.0 * m.approx_seconds / m.exact_seconds, 1)});
          }
        }
        r.counters.push_back({"mean_rho_b50", Mean(rho_at_50)});
      });
}

// Figure 8: accuracy vs color budget, one dataset and one pipeline driver
// per task.
const std::vector<ColorId> kFigure8Budgets = {5, 10, 20, 40, 80, 150};

void Figure8Table(const std::vector<eval::RunMetrics>& runs, bool rho,
                  ScenarioResult& r) {
  r.table_header = {"colors", rho ? "spearman" : "rel.err"};
  for (const eval::RunMetrics& m : runs) {
    const double value = rho ? m.rank_correlation : m.relative_error;
    r.counters.push_back({"b" + std::to_string(m.color_budget) +
                              (rho ? "_rho" : "_rel_err"),
                          value});
    r.table_rows.push_back(
        {std::to_string(m.color_budget), FormatDouble(value, 3)});
  }
}

void RegisterFigure8() {
  RegisterPaper("fig8-maxflow", /*smoke=*/false,
                "Figure 8(a): max-flow relative error vs colors on "
                "venus0-sim",
                [](ScenarioResult& r) {
                  Figure8Table(eval::RunMaxFlowPipeline(
                                   eval::FlowSuite()[2].instance,
                                   eval::EvalOptions(), kFigure8Budgets),
                               /*rho=*/false, r);
                });
  RegisterPaper("fig8-lp", /*smoke=*/false,
                "Figure 8(b): LP relative error vs colors on qap15-sim "
                "(may be non-monotone)",
                [](ScenarioResult& r) {
                  Figure8Table(
                      eval::RunLpPipeline(eval::LpSuite()[0].lp,
                                          eval::EvalOptions(), kFigure8Budgets),
                      /*rho=*/false, r);
                });
  RegisterPaper("fig8-centrality", /*smoke=*/false,
                "Figure 8(c): centrality Spearman rho vs colors on "
                "astroph-sim",
                [](ScenarioResult& r) {
                  eval::EvalOptions options;
                  options.seed = 17;  // the default QueryOptions::seed
                  Figure8Table(eval::RunCentralityPipeline(
                                   eval::CentralityGraphSuite()[0].graph,
                                   options, kFigure8Budgets),
                               /*rho=*/true, r);
                });
}

// --- Table 1: runtime to reach a target accuracy --------------------------

constexpr double kRhoTargets[] = {0.90, 0.95, 0.97};
constexpr double kCentralityTimeout = 120.0;  // seconds per dataset

// Smallest cumulative time at which the anytime color-pivot estimator
// reaches each target rho (NaN: not reached). The budget ladder first
// grows the coloring, then the pivots per color (variance decays with the
// total number of dependency passes). The reported time is the anytime
// cost: all coloring so far plus this checkpoint's solve.
std::vector<double> OursCentralityTimes(const Graph& g,
                                        const std::vector<double>& exact) {
  struct Checkpoint {
    ColorId colors;
    int32_t pivots;
  };
  static constexpr Checkpoint kLadder[] = {
      {10, 1},  {20, 1},  {35, 1},  {50, 1},  {100, 1},
      {200, 1}, {200, 2}, {200, 4}, {200, 8}, {200, 16},
  };
  std::vector<double> times(std::size(kRhoTargets), kNaN);
  WallTimer timer;
  RothkoOptions rothko;
  rothko.alpha = 1.0;
  rothko.beta = 1.0;
  rothko.split_mean = RothkoOptions::SplitMean::kGeometric;
  rothko.max_colors = 400;
  RothkoRefiner refiner(g, Partition::Trivial(g.num_nodes()), rothko);
  double coloring_seconds = 0.0;
  for (const Checkpoint& checkpoint : kLadder) {
    WallTimer step_timer;
    while (refiner.partition().num_colors() < checkpoint.colors) {
      if (!refiner.Step(checkpoint.colors)) break;
    }
    coloring_seconds += step_timer.ElapsedSeconds();
    step_timer.Reset();
    const std::vector<double> scores = ColorPivotScores(
        g, refiner.partition(), checkpoint.pivots, /*seed=*/17);
    const double cumulative = coloring_seconds + step_timer.ElapsedSeconds();
    const double rho = SpearmanCorrelation(scores, exact);
    for (size_t t = 0; t < times.size(); ++t) {
      if (std::isnan(times[t]) && rho >= kRhoTargets[t]) times[t] = cumulative;
    }
    if (!std::isnan(times.back())) break;
    if (timer.ElapsedSeconds() > kCentralityTimeout) break;
  }
  return times;
}

// The Riondato-Kornaropoulos baseline: tighten epsilon until each target
// rho is met, charged only for the first successful run (the
// practitioner's retry loop; this favors RK).
std::vector<double> RkTimes(const Graph& g, const std::vector<double>& exact) {
  std::vector<double> times(std::size(kRhoTargets), kNaN);
  for (double eps : {0.1, 0.05, 0.02, 0.01}) {
    RkOptions options;
    options.epsilon = eps;
    WallTimer timer;
    const RkResult result = BetweennessRk(g, options);
    const double seconds = timer.ElapsedSeconds();
    const double rho = SpearmanCorrelation(result.scores, exact);
    for (size_t t = 0; t < times.size(); ++t) {
      if (std::isnan(times[t]) && rho >= kRhoTargets[t]) times[t] = seconds;
    }
    if (!std::isnan(times.back())) break;
    if (seconds > kCentralityTimeout) break;
  }
  return times;
}

constexpr double kLpTargets[] = {3.0, 2.0, 1.5};

// Anytime co-routine: the session keeps the LP's coloring between
// budgets, so each checkpoint continues the last one's refinement.
std::vector<double> OursLpTimes(const LpProblem& lp, double exact_obj) {
  std::vector<double> times(std::size(kLpTargets), kNaN);
  double cumulative = 0.0;
  Compressor session;
  QueryOptions query;
  for (ColorId colors : {8, 15, 25, 40, 60, 100, 150}) {
    query.max_colors = colors;
    WallTimer timer;
    const StatusOr<LpQueryResult> result = session.SolveLp(lp, query);
    cumulative += timer.ElapsedSeconds();
    QSC_CHECK_OK(result);
    if (result->solution.status != LpStatus::kOptimal) continue;
    const double rel = RelativeError(exact_obj, result->solution.objective);
    for (size_t t = 0; t < times.size(); ++t) {
      if (std::isnan(times[t]) && rel <= kLpTargets[t]) times[t] = cumulative;
    }
    if (!std::isnan(times.back())) break;
  }
  return times;
}

// The early-stopping baseline: the IPM runs until its certified relative
// duality gap reaches the target.
std::vector<double> EarlyStopTimes(const LpProblem& lp) {
  std::vector<double> times(std::size(kLpTargets), kNaN);
  for (size_t t = 0; t < times.size(); ++t) {
    IpmOptions options;
    options.early_stop_rel_gap = kLpTargets[t];
    WallTimer timer;
    if (SolveInteriorPoint(lp, options).status == LpStatus::kOptimal) {
      times[t] = timer.ElapsedSeconds();
    }
  }
  return times;
}

// One Table-1 row: ours and prior per target, then the exact time. Every
// cell is a timing, so each is a gauge (NaN: target not reached).
void Table1Row(const std::string& dataset, const char* const targets[],
               const std::vector<double>& ours,
               const std::vector<double>& prior, double exact_seconds,
               ScenarioResult& r) {
  std::vector<std::string> row = {dataset};
  for (size_t t = 0; t < ours.size(); ++t) {
    r.gauges.push_back({dataset + "_ours_" + targets[t] + "_s", ours[t]});
    r.gauges.push_back({dataset + "_prior_" + targets[t] + "_s", prior[t]});
    row.push_back(SecondsOrX(ours[t]));
    row.push_back(SecondsOrX(prior[t]));
  }
  r.gauges.push_back({dataset + "_exact_s", exact_seconds});
  row.push_back(FormatSeconds(exact_seconds));
  r.table_rows.push_back(std::move(row));
}

void RegisterTable1() {
  RegisterPaper(
      "table1-centrality", /*smoke=*/false,
      "Table 1 (top): time to reach Spearman rho 0.90/0.95/0.97, color "
      "pivots vs Riondato-Kornaropoulos sampling vs exact Brandes",
      [](ScenarioResult& r) {
        static const char* const kTargets[] = {"0.90", "0.95", "0.97"};
        r.table_header = {"dataset",   "ours 0.90", "prior 0.90",
                          "ours 0.95", "prior 0.95", "ours 0.97",
                          "prior 0.97", "exact"};
        for (const auto& dataset : eval::CentralityGraphSuite()) {
          WallTimer timer;
          const std::vector<double> exact = BetweennessExact(dataset.graph);
          const double exact_seconds = timer.ElapsedSeconds();
          Table1Row(dataset.name, kTargets,
                    OursCentralityTimes(dataset.graph, exact),
                    RkTimes(dataset.graph, exact), exact_seconds, r);
        }
      });
  RegisterPaper(
      "table1-lp", /*smoke=*/false,
      "Table 1 (bottom): time to reach LP relative error 3.0/2.0/1.5, "
      "anytime coloring vs early-stopping interior point vs exact",
      [](ScenarioResult& r) {
        static const char* const kTargets[] = {"3.0", "2.0", "1.5"};
        r.table_header = {"dataset",  "ours 3.0", "prior 3.0",
                          "ours 2.0", "prior 2.0", "ours 1.5",
                          "prior 1.5", "exact"};
        for (const auto& dataset : eval::LpSuite()) {
          WallTimer timer;
          const IpmResult exact = SolveInteriorPoint(dataset.lp);
          const double exact_seconds = timer.ElapsedSeconds();
          r.counters.push_back(
              {dataset.name + "_exact_objective", exact.objective});
          Table1Row(dataset.name, kTargets,
                    OursLpTimes(dataset.lp, exact.objective),
                    EarlyStopTimes(dataset.lp), exact_seconds, r);
        }
      });
}

// --- Tables 2-6 ----------------------------------------------------------

void RegisterTable2() {
  RegisterPaper(
      "table2-datasets", /*smoke=*/true,
      "Table 2: the evaluation graphs (synthetic stand-ins plus the real "
      "karate club)",
      [](ScenarioResult& r) {
        r.table_header = {"block", "name",    "paper dataset", "vertices",
                          "edges", "real/sim", "kind"};
        const auto add = [&r](const char* block, const std::string& name,
                              const std::string& paper_name, const Graph& g,
                              int64_t edges, bool real, const char* kind) {
          r.counters.push_back(
              {name + "_vertices", static_cast<double>(g.num_nodes())});
          r.counters.push_back({name + "_edges", static_cast<double>(edges)});
          r.table_rows.push_back({block, name, paper_name,
                                  FormatCount(g.num_nodes()),
                                  FormatCount(edges), real ? "R" : "S",
                                  kind});
        };
        const auto add_suite = [&add](const char* block,
                                      const std::vector<eval::NamedGraph>& s) {
          for (const auto& d : s) {
            add(block, d.name, d.paper_name, d.graph, d.graph.num_edges(),
                d.real, d.graph.undirected() ? "undirected" : "directed");
          }
        };
        add_suite("general", eval::GeneralGraphSuite());
        add_suite("centrality", eval::CentralityGraphSuite());
        for (const auto& d : eval::FlowSuite()) {
          add("max-flow", d.name, d.paper_name, d.instance.graph,
              d.instance.graph.num_arcs(), /*real=*/false, "flow network");
        }
      });
}

void RegisterTable3() {
  RegisterPaper(
      "table3-lps", /*smoke=*/false,
      "Table 3: the evaluation LPs (stand-ins) with their exact "
      "interior-point solve time",
      [](ScenarioResult& r) {
        r.table_header = {"name",     "paper dataset", "rows",
                          "cols",     "nonzeros",      "sol. time"};
        for (const auto& d : eval::LpSuite()) {
          WallTimer timer;
          const bool solved =
              SolveInteriorPoint(d.lp).status == LpStatus::kOptimal;
          const double seconds = solved ? timer.ElapsedSeconds() : kNaN;
          r.counters.push_back(
              {d.name + "_rows", static_cast<double>(d.lp.num_rows)});
          r.counters.push_back(
              {d.name + "_cols", static_cast<double>(d.lp.num_cols)});
          r.counters.push_back(
              {d.name + "_nonzeros", static_cast<double>(d.lp.NumNonzeros())});
          r.counters.push_back({d.name + "_solved", solved ? 1.0 : 0.0});
          r.gauges.push_back({d.name + "_solve_s", seconds});
          r.table_rows.push_back(
              {d.name, d.paper_name, FormatCount(d.lp.num_rows),
               FormatCount(d.lp.num_cols), FormatCount(d.lp.NumNonzeros()),
               SecondsOrX(seconds)});
        }
      });
}

void RegisterTable4() {
  RegisterPaper(
      "table4-compression", /*smoke=*/true,
      "Table 4: compression and runtime of q-stable colorings at q = "
      "64/32/16/8 vs the stable coloring",
      [](ScenarioResult& r) {
        r.table_header = {"dataset", "target",      "max q", "mean q",
                          "colors",  "compression", "time"};
        for (const auto& dataset : eval::GeneralGraphSuite()) {
          if (dataset.name == "karate") continue;  // Figure 1
          const Graph& g = dataset.graph;
          WallTimer timer;
          const Partition stable = StableColoring(g);
          const double stable_seconds = timer.ElapsedSeconds();
          r.counters.push_back({dataset.name + "_stable_colors",
                                static_cast<double>(stable.num_colors())});
          r.gauges.push_back({dataset.name + "_stable_s", stable_seconds});
          r.table_rows.push_back(
              {dataset.name, "stable (q=0)", "0", "0",
               FormatCount(stable.num_colors()),
               FormatRatio(stable.CompressionRatio()),
               FormatSeconds(stable_seconds)});
          for (int q : {64, 32, 16, 8}) {
            RothkoOptions options;
            options.max_colors = g.num_nodes();
            options.q_tolerance = q;
            options.split_mean = RothkoOptions::SplitMean::kGeometric;
            timer.Reset();
            const Partition p = RothkoColoring(g, options);
            const double seconds = timer.ElapsedSeconds();
            const QErrorStats stats = ComputeQError(g, p);
            const std::string key = dataset.name + "_q" + std::to_string(q);
            r.counters.push_back({key + "_max_q", stats.max_q});
            r.counters.push_back({key + "_mean_q", stats.mean_q});
            r.counters.push_back(
                {key + "_colors", static_cast<double>(p.num_colors())});
            r.gauges.push_back({key + "_s", seconds});
            r.table_rows.push_back(
                {dataset.name, "q = " + std::to_string(q),
                 FormatDouble(stats.max_q, 2), FormatDouble(stats.mean_q, 2),
                 FormatCount(p.num_colors()),
                 FormatRatio(p.CompressionRatio()), FormatSeconds(seconds)});
          }
        }
      });
}

void RegisterTable5() {
  RegisterPaper(
      "table5-lp-compression", /*smoke=*/false,
      "Table 5: reduced LP sizes, compression and relative error at 6/50/100 "
      "colors",
      [](ScenarioResult& r) {
        r.table_header = {"dataset",  "colors",      "rows",     "cols",
                          "nonzeros", "compression", "rel.error"};
        for (const auto& dataset : eval::LpSuite()) {
          const IpmResult exact = SolveInteriorPoint(dataset.lp);
          for (ColorId colors : {6, 50, 100}) {
            LpReduceOptions options;
            options.max_colors = colors;
            const ReducedLp reduced = ReduceLp(dataset.lp, options);
            const LpResult red = SolveSimplex(reduced.lp);
            const double rel =
                red.status == LpStatus::kOptimal
                    ? RelativeError(exact.objective, red.objective)
                    : std::numeric_limits<double>::infinity();
            const int64_t nnz = reduced.lp.NumNonzeros();
            const double compression =
                static_cast<double>(dataset.lp.NumNonzeros()) /
                std::max<int64_t>(1, nnz);
            const std::string key =
                dataset.name + "_c" + std::to_string(colors) + "_";
            r.counters.push_back(
                {key + "rows", static_cast<double>(reduced.lp.num_rows)});
            r.counters.push_back(
                {key + "cols", static_cast<double>(reduced.lp.num_cols)});
            r.counters.push_back({key + "nonzeros", static_cast<double>(nnz)});
            r.counters.push_back({key + "rel_err", rel});
            r.table_rows.push_back(
                {dataset.name, std::to_string(colors),
                 FormatCount(reduced.lp.num_rows),
                 FormatCount(reduced.lp.num_cols), FormatCount(nnz),
                 FormatRatio(compression),
                 std::isinf(rel) ? "inf" : FormatDouble(rel, 2)});
          }
        }
      });
}

// Table 6 row: mean time to first result (first split plus the first
// solve), mean time between new colors, and mean time to converge.
void Table6Row(const char* task, const std::vector<double>& first,
               const std::vector<double>& freq,
               const std::vector<double>& converge, ScenarioResult& r) {
  const std::string key = task;
  r.gauges.push_back({key + "_first_s", Mean(first)});
  r.gauges.push_back({key + "_update_s", Mean(freq)});
  r.gauges.push_back({key + "_converge_s", Mean(converge)});
  r.table_rows.push_back({task, FormatSeconds(Mean(first)),
                          FormatSeconds(Mean(freq)),
                          FormatSeconds(Mean(converge))});
}

// Runs `refiner` to its budget and adds its history to the Table-6 means;
// returns the number of splits.
double AddHistory(RothkoRefiner& refiner, std::vector<double>& first,
                  std::vector<double>& freq, std::vector<double>& converge) {
  refiner.Run();
  const std::vector<RothkoStep>& history = refiner.history();
  if (history.empty()) {
    first.push_back(0.0);
    freq.push_back(0.0);
    converge.push_back(0.0);
    return 0.0;
  }
  first.push_back(history.front().elapsed_seconds);
  converge.push_back(history.back().elapsed_seconds);
  freq.push_back(history.size() > 1
                     ? (history.back().elapsed_seconds -
                        history.front().elapsed_seconds) /
                           static_cast<double>(history.size() - 1)
                     : 0.0);
  return static_cast<double>(history.size());
}

void RegisterTable6() {
  RegisterPaper(
      "table6-responsiveness", /*smoke=*/false,
      "Table 6: anytime Rothko latency per task (first result, update "
      "cadence, convergence)",
      [](ScenarioResult& r) {
        r.table_header = {"task", "time-to-first-result", "update frequency",
                          "time to converge"};
        std::vector<double> first, freq, converge;
        for (const auto& ds : eval::LpSuite()) {
          LpReduceOptions options;
          options.max_colors = 100;
          const ReducedLp reduced = ReduceLp(ds.lp, options);
          WallTimer timer;
          (void)SolveSimplex(reduced.lp);
          // First result = first split + one tiny solve; the final solve
          // time stands in for the tiny solve (an upper bound).
          first.push_back(reduced.coloring_seconds / 96.0 +
                          timer.ElapsedSeconds());
          freq.push_back(reduced.coloring_seconds / 96.0);
          converge.push_back(reduced.coloring_seconds);
        }
        Table6Row("linear opt.", first, freq, converge, r);

        first.clear(), freq.clear(), converge.clear();
        double splits = 0.0;
        for (const auto& ds : eval::FlowSuite()) {
          std::vector<int32_t> labels(ds.instance.graph.num_nodes(), 2);
          labels[ds.instance.source] = 0;
          labels[ds.instance.sink] = 1;
          RothkoOptions options;
          options.max_colors = 35;
          RothkoRefiner refiner(ds.instance.graph,
                                Partition::FromColorIds(labels), options);
          splits += AddHistory(refiner, first, freq, converge);
        }
        r.counters.push_back({"maxflow_splits", splits});
        Table6Row("max-flow", first, freq, converge, r);

        first.clear(), freq.clear(), converge.clear();
        splits = 0.0;
        for (const auto& ds : eval::CentralityGraphSuite()) {
          RothkoOptions options;
          options.max_colors = 100;
          options.alpha = 1.0;
          options.beta = 1.0;
          RothkoRefiner refiner(
              ds.graph, Partition::Trivial(ds.graph.num_nodes()), options);
          splits += AddHistory(refiner, first, freq, converge);
        }
        r.counters.push_back({"centrality_splits", splits});
        Table6Row("centrality", first, freq, converge, r);
      });
}

// --- design ablations (paper Sec 5.2) -------------------------------------

void RegisterAblations() {
  RegisterPaper(
      "ablation-split", /*smoke=*/false,
      "Ablation (Sec 5.2): arithmetic vs geometric split threshold on a "
      "20k-node Barabasi-Albert graph",
      [](ScenarioResult& r) {
        Rng rng(71);
        const Graph g = BarabasiAlbert(20000, 3, rng);
        r.table_header = {"split", "target q", "colors", "largest color",
                          "max q"};
        for (const auto split : {RothkoOptions::SplitMean::kArithmetic,
                                 RothkoOptions::SplitMean::kGeometric}) {
          const char* split_name =
              split == RothkoOptions::SplitMean::kArithmetic ? "arithmetic"
                                                             : "geometric";
          for (int q : {32, 16, 8}) {
            RothkoOptions options;
            options.max_colors = g.num_nodes();
            options.q_tolerance = q;
            options.split_mean = split;
            const Partition p = RothkoColoring(g, options);
            int64_t largest = 0;
            for (int64_t s : p.ColorSizes()) largest = std::max(largest, s);
            const double max_q = ComputeQError(g, p).max_q;
            const std::string key =
                std::string(split_name) + "_q" + std::to_string(q) + "_";
            r.counters.push_back(
                {key + "colors", static_cast<double>(p.num_colors())});
            r.counters.push_back(
                {key + "largest_color", static_cast<double>(largest)});
            r.counters.push_back({key + "max_q", max_q});
            r.table_rows.push_back({split_name, std::to_string(q),
                                    FormatCount(p.num_colors()),
                                    FormatCount(largest),
                                    FormatDouble(max_q, 1)});
          }
        }
      });
  RegisterPaper(
      "ablation-weighting", /*smoke=*/false,
      "Ablation (Sec 5.2): witness weighting alpha/beta per task at a fixed "
      "color budget",
      [](ScenarioResult& r) {
        struct Weighting {
          const char* name;
          const char* key;
          double alpha;
          double beta;
        };
        static constexpr Weighting kWeightings[] = {{"a=0 b=0", "a0b0", 0, 0},
                                                    {"a=1 b=0", "a1b0", 1, 0},
                                                    {"a=1 b=1", "a1b1", 1, 1}};
        r.table_header = {"task", "paper choice", "weighting", "accuracy"};
        const auto add = [&r](const char* task, const char* paper_choice,
                              const std::string& key, const Weighting& w,
                              double value) {
          r.counters.push_back({key + w.key, value});
          r.table_rows.push_back({task, paper_choice, w.name,
                                  std::isnan(value) ? "x"
                                                    : FormatDouble(value, 3)});
        };

        // Max-flow: relative error, lower is better.
        const auto flow = eval::FlowSuite()[2];
        const double exact_flow = MaxFlowPushRelabel(
            flow.instance.graph, flow.instance.source, flow.instance.sink);
        for (const Weighting& w : kWeightings) {
          QueryOptions query;
          query.max_colors = 20;
          query.alpha = w.alpha;
          query.beta = w.beta;
          Compressor session(Borrow(flow.instance.graph));
          const auto approx =
              session.MaxFlow(flow.instance.source, flow.instance.sink, query);
          QSC_CHECK_OK(approx);
          add("max-flow (rel.err)", "a=0 b=0", "maxflow_rel_err_", w,
              RelativeError(exact_flow, approx->upper_bound));
        }

        // LP: relative error of the reduced optimum (NaN: not optimal).
        const auto lp = eval::LpSuite()[0];
        const IpmResult exact_lp = SolveInteriorPoint(lp.lp);
        for (const Weighting& w : kWeightings) {
          LpReduceOptions options;
          options.max_colors = 40;
          options.alpha = w.alpha;
          options.beta = w.beta;
          const LpResult red = SolveSimplex(ReduceLp(lp.lp, options).lp);
          add("LP (rel.err)", "a=1 b=0", "lp_rel_err_", w,
              red.status == LpStatus::kOptimal
                  ? RelativeError(exact_lp.objective, red.objective)
                  : kNaN);
        }

        // Centrality: Spearman rho, higher is better.
        const auto graph = eval::CentralityGraphSuite()[0];
        const std::vector<double> exact_scores = BetweennessExact(graph.graph);
        for (const Weighting& w : kWeightings) {
          QueryOptions query;
          query.max_colors = 50;
          query.alpha = w.alpha;
          query.beta = w.beta;
          Compressor session(Borrow(graph.graph));
          const auto approx = session.Centrality(query);
          QSC_CHECK_OK(approx);
          add("centrality (rho)", "a=1 b=1", "centrality_rho_", w,
              SpearmanCorrelation(approx->scores, exact_scores));
        }
      });
}

}  // namespace

void RegisterPaperScenarios() {
  RegisterFigure1();
  RegisterFigure2();
  RegisterFigure3();
  RegisterFigure7();
  RegisterFigure8();
  RegisterTable1();
  RegisterTable2();
  RegisterTable3();
  RegisterTable4();
  RegisterTable5();
  RegisterTable6();
  RegisterAblations();
}

}  // namespace bench
}  // namespace qsc
