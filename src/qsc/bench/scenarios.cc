// Builtin perf scenarios (see docs/BENCHMARKING.md for the registry
// contract). The groups defined here:
//
//  - "coloring": the refiner and its kernels on synthetic graphs at
//    10k-200k nodes. The headline scenario is rothko-ba-100k-c256 —
//    Rothko refinement of a 100k-node scale-free graph to 256 colors —
//    whose baseline records the flat sparse-row speedup.
//  - "pipelines": end-to-end instance -> coloring -> solve -> error runs
//    through qsc/eval, plus the solver kernels and the Compressor session
//    scenarios.
//
// The other groups live beside this file: "serving"
// (scenarios_serving.cc), "flow" (scenarios_flow.cc), "backends"
// (scenarios_backends.cc), "dynamic" (scenarios_dynamic.cc) and "paper",
// the figure and table reproductions (scenarios_paper.cc).
//
// Scenario counters are deterministic given the seed; instance
// construction happens outside the timed closure.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/bench/scenario.h"
#include "qsc/centrality/brandes.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/eval/pipelines.h"
#include "qsc/eval/suites.h"
#include "qsc/eval/workload.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/generators.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/simplex.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/check.h"
#include "qsc/util/random.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace bench {
namespace {

std::string BudgetKey(ColorId budget, const char* metric) {
  return "b" + std::to_string(budget) + "_" + metric;
}

// --- coloring group ------------------------------------------------------

// Registers a Rothko refinement scenario over `factory`'s graph. The
// per-scenario `salt` decorrelates instances that share a CLI seed.
void RegisterRothko(const char* name, bool smoke, const char* description,
                    Graph (*factory)(uint64_t seed), uint64_t salt,
                    ColorId max_colors,
                    RothkoOptions::SplitMean split_mean =
                        RothkoOptions::SplitMean::kArithmetic) {
  Scenario::Info info;
  info.name = name;
  info.group = "coloring";
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info),
      [factory, salt, max_colors, split_mean](const BenchContext& ctx) {
        const Graph g = factory(ctx.seed ^ salt);
        RothkoOptions options;
        options.max_colors = max_colors;
        options.split_mean = split_mean;
        ColorId num_colors = 0;
        double splits = 0.0, max_q = 0.0;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          RothkoRefiner refiner(g, Partition::Trivial(g.num_nodes()),
                                options);
          refiner.Run();
          num_colors = refiner.partition().num_colors();
          splits = static_cast<double>(refiner.history().size());
          max_q = refiner.CurrentMaxError();
        });
        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"max_colors", static_cast<double>(max_colors)}};
        r.counters = {{"num_colors", static_cast<double>(num_colors)},
                      {"splits", splits},
                      {"max_q", max_q}};
        return r;
      }));
}

Graph Ba10k(uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(10000, 3, rng);
}
Graph Ba100k(uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(100000, 3, rng);
}
Graph Ba200k(uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(200000, 3, rng);
}
Graph Er10k(uint64_t seed) {
  Rng rng(seed);
  return ErdosRenyiGnm(10000, 40000, rng);
}
Graph Er100k(uint64_t seed) {
  Rng rng(seed);
  return ErdosRenyiGnm(100000, 400000, rng);
}
Graph Grid10k(uint64_t seed) {
  Rng rng(seed);
  return SegmentationGridNetwork(100, 100, 4, rng).graph;
}
Graph Grid100k(uint64_t seed) {
  Rng rng(seed);
  return SegmentationGridNetwork(400, 250, 8, rng).graph;
}

// Registers a coloring-kernel scenario measured over a fixed prepared
// input (built once, outside the timed closure).
template <typename Prepare, typename Work>
void RegisterKernel(const char* name, const char* group, bool smoke,
                    const char* description, Prepare prepare, Work work) {
  Scenario::Info info;
  info.name = name;
  info.group = group;
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [prepare, work](const BenchContext& ctx) {
        auto input = prepare(ctx);
        ScenarioResult r;
        r.timing =
            MeasureSeconds(ctx.measure, [&] { work(input, r.counters); });
        return r;
      }));
}

void RegisterColoringScenarios() {
  RegisterRothko("coloring/rothko-ba-10k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on a 10k-node Barabasi-Albert graph",
                 &Ba10k, 0x9a01, 64);
  RegisterRothko(
      "coloring/rothko-ba-100k-c256", /*smoke=*/true,
      "HEADLINE: Rothko to 256 colors on a 100k-node scale-free graph",
      &Ba100k, 0x9a02, 256);
  RegisterRothko("coloring/rothko-ba-200k-c256", /*smoke=*/false,
                 "Rothko to 256 colors on a 200k-node scale-free graph",
                 &Ba200k, 0x9a03, 256);
  RegisterRothko("coloring/rothko-ba-100k-c256-geo", /*smoke=*/false,
                 "geometric split-mean variant of the headline scenario",
                 &Ba100k, 0x9a02, 256, RothkoOptions::SplitMean::kGeometric);
  RegisterRothko("coloring/rothko-er-10k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on a G(10k, 40k) Erdos-Renyi graph",
                 &Er10k, 0x9a04, 64);
  RegisterRothko("coloring/rothko-er-100k-c128", /*smoke=*/false,
                 "Rothko to 128 colors on a G(100k, 400k) Erdos-Renyi graph",
                 &Er100k, 0x9a05, 128);
  RegisterRothko("coloring/rothko-grid-10k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on a 100x100 segmentation grid",
                 &Grid10k, 0x9a06, 64);
  RegisterRothko("coloring/rothko-grid-100k-c128", /*smoke=*/false,
                 "Rothko to 128 colors on a 400x250 segmentation grid",
                 &Grid100k, 0x9a07, 128);

  RegisterKernel(
      "coloring/stable-ba-20k", "coloring", /*smoke=*/true,
      "stable coloring (color refinement to fixpoint) on a 20k-node "
      "Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a08);
        return BarabasiAlbert(20000, 3, rng);
      },
      [](const Graph& g,
         std::vector<std::pair<std::string, double>>& counters) {
        const Partition p = StableColoring(g);
        counters = {{"num_colors", static_cast<double>(p.num_colors())}};
      });
  RegisterKernel(
      "coloring/qerror-ba-50k", "coloring", /*smoke=*/false,
      "from-scratch q-error recount of a 64-color Rothko coloring on a "
      "50k-node Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a09);
        Graph g = BarabasiAlbert(50000, 3, rng);
        RothkoOptions options;
        options.max_colors = 64;
        Partition p = RothkoColoring(g, options);
        return std::make_pair(std::move(g), std::move(p));
      },
      [](const std::pair<Graph, Partition>& input,
         std::vector<std::pair<std::string, double>>& counters) {
        const QErrorStats report = ComputeQError(input.first, input.second);
        counters = {{"max_q", report.max_q}};
      });
  RegisterKernel(
      "coloring/reduced-ba-50k", "coloring", /*smoke=*/false,
      "reduced-graph construction from a 64-color coloring on a 50k-node "
      "Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a0a);
        Graph g = BarabasiAlbert(50000, 3, rng);
        RothkoOptions options;
        options.max_colors = 64;
        Partition p = RothkoColoring(g, options);
        return std::make_pair(std::move(g), std::move(p));
      },
      [](const std::pair<Graph, Partition>& input,
         std::vector<std::pair<std::string, double>>& counters) {
        const Graph reduced =
            BuildReducedGraph(input.first, input.second, ReducedWeight::kSum);
        counters = {{"reduced_arcs", static_cast<double>(reduced.num_arcs())}};
      });
}

// --- pipelines group -----------------------------------------------------

// End-to-end eval workload: one timed unit is the full budget sweep
// (coloring + reduction + solve at every budget) including the exact
// oracle.
void RegisterEvalPipeline(const char* name, bool smoke,
                          const char* description,
                          const char* workload_name) {
  Scenario::Info info;
  info.name = name;
  info.group = "pipelines";
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [workload_name](const BenchContext& ctx) {
        const eval::Workload* w =
            eval::WorkloadRegistry::Global().Find(workload_name);
        QSC_CHECK(w != nullptr);
        eval::EvalOptions options;
        options.seed = ctx.seed;
        eval::WorkloadResult res;
        ScenarioResult r;
        r.timing =
            MeasureSeconds(ctx.measure, [&] { res = w->Run(options); });
        for (const eval::RunMetrics& m : res.runs) {
          r.counters.push_back({BudgetKey(m.color_budget, "colors"),
                                static_cast<double>(m.num_colors)});
          r.counters.push_back({BudgetKey(m.color_budget, "max_q"), m.max_q});
          if (w->area() == eval::Application::kCentrality) {
            r.counters.push_back(
                {BudgetKey(m.color_budget, "rho"), m.rank_correlation});
          } else {
            r.counters.push_back(
                {BudgetKey(m.color_budget, "rel_err"), m.relative_error});
          }
        }
        return r;
      }));
}

void RegisterSolverKernels() {
  RegisterKernel(
      "pipelines/solver-pushrelabel-grid100", "pipelines", /*smoke=*/false,
      "exact push-relabel max-flow on a 100x50 grid network",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a0b);
        return GridFlowNetwork(100, 50, 10, 40, rng);
      },
      [](const FlowInstance& inst,
         std::vector<std::pair<std::string, double>>& counters) {
        const double flow =
            MaxFlowPushRelabel(inst.graph, inst.source, inst.sink);
        counters = {{"max_flow", flow}};
      });
  RegisterKernel(
      "pipelines/solver-brandes-ba50k", "pipelines", /*smoke=*/false,
      "64 Brandes dependency-accumulation passes on a 50k-node "
      "Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a0c);
        return BarabasiAlbert(50000, 3, rng);
      },
      [](const Graph& g,
         std::vector<std::pair<std::string, double>>& counters) {
        BrandesWorkspace workspace(g);
        std::vector<double> scores(g.num_nodes(), 0.0);
        for (NodeId s = 0; s < 64; ++s) {
          workspace.AccumulateDependencies(s, 1.0, scores);
        }
        counters = {{"score0", scores[0]}};
      });
  RegisterKernel(
      "pipelines/solver-simplex-block8", "pipelines", /*smoke=*/false,
      "simplex solve of an 8x8-group block LP",
      [](const BenchContext&) {
        BlockLpSpec spec;
        spec.num_row_groups = 8;
        spec.num_col_groups = 8;
        spec.rows_per_group = 8;
        spec.cols_per_group = 8;
        spec.seed = 5;
        return MakeBlockLp(spec);
      },
      [](const LpProblem& lp,
         std::vector<std::pair<std::string, double>>& counters) {
        const LpResult result = SolveSimplex(lp);
        counters = {{"objective", result.objective}};
      });
}

// --- session amortization ------------------------------------------------
//
// The compress-once/query-many claim of the api layer (docs/API.md), as a
// committed baseline pair: `compressor-batch-flow` serves k = 16 max-flow
// queries from one qsc::Compressor session (one coloring, 15 cache hits),
// `compressor-cold-flow` answers the same 16 queries from a fresh session
// each (16 colorings). Their baseline medians document the amortization
// factor; the batch scenario's `abs_diff_vs_cold` counter pins the
// bit-identity of session results to the cold path.

constexpr int kBatchFlowQueries = 16;
constexpr MeasureOptions kSingleShot{/*warmup=*/0, /*repeats=*/1};
constexpr ColorId kBatchFlowBudget = 64;

// One cold query: a fresh session over the borrowed graph (aliasing
// shared_ptr; the session dies before `g`), so nothing is cached.
StatusOr<FlowQueryResult> ColdMaxFlow(const Graph& g, NodeId source,
                                      NodeId sink, const QueryOptions& query) {
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  return session.MaxFlow(source, sink, query);
}

// The 100k-node BA scenario graph, materialized as a directed graph
// (capacity in both directions) so max-flow terminals can be pinned.
Graph DirectedBa100k(uint64_t seed) {
  Rng rng(seed);
  const Graph ba = BarabasiAlbert(100000, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

void RegisterCompressorBatchFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-batch-flow";
  info.group = "pipelines";
  info.description =
      "16 s-t max-flow queries served by one Compressor session on the "
      "100k-node BA graph (coloring computed once, 15 cache hits)";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        const NodeId source = 0;
        const NodeId sink = g.num_nodes() - 1;
        const std::vector<std::pair<NodeId, NodeId>> pairs(
            kBatchFlowQueries, {source, sink});
        QueryOptions query;
        query.max_colors = kBatchFlowBudget;

        double cache_hits = 0.0, colorings = 0.0, upper = 0.0, colors = 0.0;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          Compressor session(std::shared_ptr<const Graph>(
              std::shared_ptr<const Graph>(), &g));
          const StatusOr<std::vector<FlowQueryResult>> batch =
              session.MaxFlowBatch(pairs, query);
          QSC_CHECK_OK(batch);
          const CompressorStats& stats = session.stats();
          cache_hits = static_cast<double>(stats.coloring.hits);
          colorings = static_cast<double>(stats.coloring.misses);
          upper = batch->back().upper_bound;
          colors = static_cast<double>(batch->back().num_colors);
        });

        // Cold reference, outside the timed closure: the committed
        // baseline asserts per-query bit-identity with a fresh session.
        const StatusOr<FlowQueryResult> reference =
            ColdMaxFlow(g, source, sink, query);
        QSC_CHECK_OK(reference);

        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"queries", static_cast<double>(kBatchFlowQueries)},
                    {"max_colors", static_cast<double>(kBatchFlowBudget)}};
        r.counters = {
            {"cache_hits", cache_hits},
            {"colorings_computed", colorings},
            {"num_colors", colors},
            {"upper_bound", upper},
            {"abs_diff_vs_cold", std::abs(upper - reference->upper_bound)}};
        return r;
      }));
}

void RegisterCompressorColdFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-cold-flow";
  info.group = "pipelines";
  info.description =
      "the same 16 s-t max-flow queries as compressor-batch-flow, each "
      "served by a fresh Compressor session (16 colorings); single-shot";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        const NodeId source = 0;
        const NodeId sink = g.num_nodes() - 1;
        QueryOptions query;
        query.max_colors = kBatchFlowBudget;

        double upper = 0.0, colors = 0.0;
        ScenarioResult r;
        // Single-shot: one pass is ~16 colorings of a 100k-node graph;
        // repeats would only slow CI without steadying the median.
        r.timing = MeasureSeconds(kSingleShot, [&] {
          for (int i = 0; i < kBatchFlowQueries; ++i) {
            const StatusOr<FlowQueryResult> approx =
                ColdMaxFlow(g, source, sink, query);
            QSC_CHECK_OK(approx);
            upper = approx->upper_bound;
            colors = static_cast<double>(approx->num_colors);
          }
        });
        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"queries", static_cast<double>(kBatchFlowQueries)},
                    {"max_colors", static_cast<double>(kBatchFlowBudget)}};
        r.counters = {{"num_colors", colors}, {"upper_bound", upper}};
        return r;
      }));
}

// The parallel-serving claim (ISSUE 5): 8 *distinct* terminal pairs —
// eight independent ColoringSpecs — served by one MaxFlowBatch call on
// the --threads pool. Distinct specs refine concurrently, so the timed
// median scales with the thread count while every counter stays
// bit-identical (the CI counter-identity gate compares --threads 1
// against --threads 4). `abs_diff_vs_serial` pins the batch results to a
// sequential per-query session, query by query.
constexpr int kParallelFlowQueries = 8;

void RegisterCompressorParallelFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-parallel-flow";
  info.group = "pipelines";
  info.description =
      "8 distinct s-t max-flow queries fanned out over the --threads pool "
      "by one MaxFlowBatch on the 100k-node BA graph; single-shot";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        std::vector<std::pair<NodeId, NodeId>> pairs;
        pairs.reserve(kParallelFlowQueries);
        for (NodeId i = 0; i < kParallelFlowQueries; ++i) {
          pairs.push_back({i, g.num_nodes() - 1 - i});
        }
        QueryOptions query;
        query.max_colors = kBatchFlowBudget;

        double colorings = 0.0, cache_hits = 0.0;
        double upper_sum = 0.0, colors = 0.0;
        std::vector<double> uppers(pairs.size(), 0.0);
        ScenarioResult r;
        // Single-shot: one pass is 8 colorings of a 100k-node graph
        // (concurrent when --threads > 1); repeats would slow CI without
        // steadying the median.
        r.timing = MeasureSeconds(kSingleShot, [&] {
          Compressor session(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool());
          const StatusOr<std::vector<FlowQueryResult>> batch =
              session.MaxFlowBatch(pairs, query);
          QSC_CHECK_OK(batch);
          const CompressorStats stats = session.stats();
          colorings = static_cast<double>(stats.coloring.misses);
          cache_hits = static_cast<double>(stats.coloring.hits);
          upper_sum = 0.0;
          for (size_t i = 0; i < batch->size(); ++i) {
            uppers[i] = (*batch)[i].upper_bound;
            upper_sum += uppers[i];
          }
          colors = static_cast<double>(batch->back().num_colors);
        });

        // Sequential per-query reference, outside the timed closure: the
        // committed baseline asserts the fan-out changes no result.
        double abs_diff = 0.0;
        {
          Compressor serial(std::shared_ptr<const Graph>(
              std::shared_ptr<const Graph>(), &g));
          for (size_t i = 0; i < pairs.size(); ++i) {
            const StatusOr<FlowQueryResult> want =
                serial.MaxFlow(pairs[i].first, pairs[i].second, query);
            QSC_CHECK_OK(want);
            abs_diff += std::abs(uppers[i] - want->upper_bound);
          }
        }

        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"queries", static_cast<double>(kParallelFlowQueries)},
                    {"max_colors", static_cast<double>(kBatchFlowBudget)}};
        r.counters = {{"colorings_computed", colorings},
                      {"cache_hits", cache_hits},
                      {"num_colors", colors},
                      {"upper_bound_sum", upper_sum},
                      {"abs_diff_vs_serial", abs_diff}};
        return r;
      }));
}

// The warm hit path (docs/API.md "Cost of a hit"): one session, warmed
// outside the timed closure, serves repeated hits of every query kind. A
// hit's solve runs on artifacts memoized per served snapshot (the c^2
// reduced graph, the reduced LP), so the MaxFlow/MaxFlowBatch/SolveLp
// gauges track the exact solves alone and Centrality's tracks its pivot
// passes. The checksums pin the answers; `artifact_builds` pins that the
// closure's hits built nothing: every artifact comes from the warm-up.
constexpr int kHitRounds = 8;
constexpr ColorId kHitBudget = 64;
constexpr ColorId kHitCentralityBudget = 8;

void RegisterCompressorHitFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-hit-flow";
  info.group = "pipelines";
  info.description =
      "warm-session cache hits of all five query kinds on a 20k-node "
      "directed BA graph (MaxFlow, MaxFlowBatch, SolveLp on a QAP-like LP, "
      "Coloring, Centrality); per-kind hit latency gauges";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x41f7);
        const Graph ba = BarabasiAlbert(20000, 3, rng);
        const Graph g =
            Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
        const NodeId n = g.num_nodes();
        const std::vector<std::pair<NodeId, NodeId>> pairs = {
            {0, n - 1}, {1, n - 2}, {2, n - 3}, {0, n - 1}};
        const LpProblem lp = MakeQapLikeLp(4, ctx.seed);
        QueryOptions flow;
        flow.max_colors = kHitBudget;
        QueryOptions lp_sqrt;
        lp_sqrt.max_colors = kHitBudget;
        QueryOptions lp_grohe = lp_sqrt;
        lp_grohe.lp_variant = LpReduction::kGrohe;
        QueryOptions centrality;
        centrality.max_colors = kHitCentralityBudget;

        Compressor session(
            std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g),
            DefaultPool());
        // Kind order: MaxFlow, MaxFlowBatch, SolveLp, Coloring, Centrality.
        std::vector<double> checksums(5, 0.0);
        std::vector<std::vector<double>> hit_ms(5);
        const auto serve = [&](bool record) {
          std::fill(checksums.begin(), checksums.end(), 0.0);
          const auto timed = [&](int kind, const auto& query) {
            WallTimer timer;
            checksums[kind] += query();
            if (record) hit_ms[kind].push_back(timer.ElapsedSeconds() * 1e3);
          };
          for (int round = 0; round < kHitRounds; ++round) {
            for (const auto& [s, t] : pairs) {
              timed(0, [&] {
                const StatusOr<FlowQueryResult> r = session.MaxFlow(s, t, flow);
                QSC_CHECK_OK(r);
                return r->upper_bound;
              });
            }
            timed(1, [&] {
              const StatusOr<std::vector<FlowQueryResult>> r =
                  session.MaxFlowBatch(pairs, flow);
              QSC_CHECK_OK(r);
              double sum = 0.0;
              for (const FlowQueryResult& q : *r) sum += q.upper_bound;
              return sum;
            });
            for (const QueryOptions* options : {&lp_sqrt, &lp_grohe}) {
              timed(2, [&] {
                const StatusOr<LpQueryResult> r = session.SolveLp(lp, *options);
                QSC_CHECK_OK(r);
                return r->solution.objective;
              });
            }
            timed(3, [&] {
              const StatusOr<ColoringResult> r = session.Coloring(flow);
              QSC_CHECK_OK(r);
              return static_cast<double>(r->coloring->num_colors());
            });
          }
          timed(4, [&] {
            const StatusOr<CentralityQueryResult> r =
                session.Centrality(centrality);
            QSC_CHECK_OK(r);
            double sum = 0.0;
            for (const double v : r->scores) sum += v;
            return sum;
          });
        };
        serve(/*record=*/false);  // warm-up: every coloring and artifact
        const CompressorStats warm = session.stats();

        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] { serve(true); });
        const CompressorStats after = session.stats();

        r.params = {{"nodes", static_cast<double>(n)},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"rounds", static_cast<double>(kHitRounds)},
                    {"max_colors", static_cast<double>(kHitBudget)}};
        r.counters = {
            {"maxflow_checksum", checksums[0]},
            {"maxflow_batch_checksum", checksums[1]},
            {"solvelp_checksum", checksums[2]},
            {"coloring_checksum", checksums[3]},
            {"centrality_checksum", checksums[4]},
            {"artifact_builds",
             static_cast<double>(after.coloring.artifact_builds +
                                 after.lp_artifact_builds)},
            {"hit_artifact_builds",
             static_cast<double>(
                 after.coloring.artifact_builds + after.lp_artifact_builds -
                 warm.coloring.artifact_builds - warm.lp_artifact_builds)}};
        const char* const kinds[] = {"maxflow", "maxflow_batch", "solvelp",
                                     "coloring", "centrality"};
        for (int k = 0; k < 5; ++k) {
          r.gauges.push_back({std::string(kinds[k]) + "_hit_p50_ms",
                              Median(hit_ms[k])});
        }
        return r;
      }));
}

}  // namespace

void RegisterBuiltinScenarios() {
  static const bool registered = [] {
    eval::RegisterBuiltinWorkloads();
    RegisterColoringScenarios();
    RegisterEvalPipeline(
        "pipelines/flow-seg-grid", /*smoke=*/true,
        "end-to-end max-flow pipeline on the builtin seg-grid workload",
        "maxflow/seg-grid");
    RegisterEvalPipeline(
        "pipelines/lp-qap", /*smoke=*/true,
        "end-to-end LP pipeline on the builtin qap workload", "lp/qap");
    RegisterEvalPipeline(
        "pipelines/centrality-powerlaw", /*smoke=*/true,
        "end-to-end centrality pipeline on the builtin powerlaw workload",
        "centrality/powerlaw");
    RegisterSolverKernels();
    RegisterCompressorBatchFlow();
    RegisterCompressorColdFlow();
    RegisterCompressorParallelFlow();
    RegisterCompressorHitFlow();
    RegisterServingScenarios();
    RegisterFlowScenarios();
    RegisterBackendScenarios();
    RegisterDynamicScenarios();
    RegisterPaperScenarios();
    return true;
  }();
  (void)registered;
}

}  // namespace bench
}  // namespace qsc
