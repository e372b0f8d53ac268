// The "serving" scenario group (docs/SERVING.md): seeded workload traces
// replayed against one Compressor session by the qsc/workload load
// runner, measuring end-to-end service behavior — throughput, tail
// latency, cache amortization — rather than a single kernel.
//
// The split between gated and reported values follows the load runner's
// determinism contract: params and counters are pure functions of
// (seed), bitwise identical for any --threads value (the CI serving gate
// compares --threads 1 against 4), while tail latencies, qps, and the
// cache byte/hit gauges land in ScenarioResult::gauges — serialized for
// trend tracking, never compared against baselines.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/bench/scenario.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/io.h"
#include "qsc/lp/generators.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/check.h"
#include "qsc/util/random.h"
#include "qsc/workload/load_runner.h"
#include "qsc/workload/trace.h"

namespace qsc {
namespace bench {
namespace {

// A 1500-node directed scale-free graph: large enough that a cold
// coloring is measurable work, small enough that a few hundred mixed
// queries stay inside a CI smoke budget.
Graph DirectedBa1500(uint64_t seed) {
  Rng rng(seed);
  const Graph ba = BarabasiAlbert(1500, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

// Shared trace shape of the trace-driven serving scenarios; only the
// arrival model, the session's byte budget and the edit cadence differ.
workload::TraceGenOptions ServingTraceOptions(uint64_t seed) {
  workload::TraceGenOptions options;
  options.seed = seed;
  options.num_events = 300;
  options.num_specs = 10;
  options.budgets = {8, 16, 32, 64};
  options.batch_size = 4;
  return options;
}

std::vector<LpProblem> ServingLpUniverse(uint64_t seed) {
  BlockLpSpec spec;
  spec.num_row_groups = 4;
  spec.num_col_groups = 4;
  spec.rows_per_group = 4;
  spec.cols_per_group = 4;
  spec.seed = seed;
  return {Figure3Lp(), MakeBlockLp(spec)};
}

// Fills the result's params/counters/gauges from one load run. The
// deterministic counters are the load runner's (per-kind counts and
// result checksums); everything schedule-dependent goes to gauges.
void FillServingResult(const workload::LoadReport& report,
                       ScenarioResult* r) {
  r->counters = {
      {"total_queries", static_cast<double>(report.total_queries)},
      {"failed_queries", static_cast<double>(report.failed_queries)},
  };
  for (int k = 0; k < workload::kNumQueryKinds; ++k) {
    const std::string kind =
        workload::QueryKindName(static_cast<workload::QueryKind>(k));
    r->counters.push_back(
        {kind + "_queries", static_cast<double>(report.kind_counts[k])});
    r->counters.push_back({kind + "_checksum", report.kind_checksums[k]});
  }
  const CacheStats& cache = report.session_stats.coloring;
  r->gauges = {
      {"qps", report.qps},
      {"latency_p50_ms", report.latency_p50_s * 1e3},
      {"latency_p95_ms", report.latency_p95_s * 1e3},
      {"latency_p99_ms", report.latency_p99_s * 1e3},
      {"latency_max_ms", report.latency_max_s * 1e3},
      {"cache_hits", static_cast<double>(cache.hits)},
      {"cache_misses", static_cast<double>(cache.misses)},
      {"cache_recolorings", static_cast<double>(cache.recolorings)},
      {"cache_evictions", static_cast<double>(cache.evictions)},
      {"cache_bytes_in_use", static_cast<double>(cache.bytes_in_use)},
      {"cache_peak_bytes", static_cast<double>(cache.peak_bytes)},
      {"lp_hits", static_cast<double>(report.session_stats.lp_hits)},
  };
}

// Registers one serving scenario: `generator` drives the trace,
// `byte_budget` configures the session's coloring cache (0 = unbounded),
// and `edit_interval` > 0 turns every (edit_interval + 1)-th event into
// an edit batch the load runner applies between query segments. Every
// repeat replays the same trace against a *fresh* session — the measured
// unit is a cold service warming its cache over the trace.
void RegisterServing(const char* name, const char* description,
                     const char* generator, uint64_t salt,
                     int64_t byte_budget, int32_t edit_interval = 0) {
  Scenario::Info info;
  info.name = name;
  info.group = "serving";
  info.description = description;
  info.smoke = true;
  const std::string generator_name = generator;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info),
      [generator_name, salt, byte_budget,
       edit_interval](const BenchContext& ctx) {
        const uint64_t seed = ctx.seed ^ salt;
        const Graph g = DirectedBa1500(seed);
        workload::TraceGenOptions trace_options = ServingTraceOptions(seed);
        trace_options.edit_interval = edit_interval;
        StatusOr<std::unique_ptr<workload::TraceSource>> source =
            workload::MakeTraceSource(generator_name, trace_options);
        QSC_CHECK_OK(source);
        const std::vector<workload::TraceEvent> trace =
            workload::DrainTrace(**source);

        workload::LoadRunnerOptions load_options;
        load_options.num_client_threads = ctx.threads;
        load_options.lp_universe = ServingLpUniverse(seed);
        CompressorOptions session_options;
        session_options.coloring_cache_byte_budget = byte_budget;

        workload::LoadReport report;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          Compressor session(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool(), session_options);
          StatusOr<workload::LoadReport> run =
              workload::RunLoad(session, trace, load_options);
          QSC_CHECK_OK(run);
          report = std::move(run).value();
        });

        r.params = {
            {"nodes", static_cast<double>(g.num_nodes())},
            {"arcs", static_cast<double>(g.num_arcs())},
            {"events", static_cast<double>(trace_options.num_events)},
            {"specs", static_cast<double>(trace_options.num_specs)},
            {"budget_rungs",
             static_cast<double>(trace_options.budgets.size())},
            {"batch_size", static_cast<double>(trace_options.batch_size)},
            {"cache_byte_budget", static_cast<double>(byte_budget)},
        };
        FillServingResult(report, &r);
        if (edit_interval > 0) {
          // Edit events are segment barriers, so the cached-entry set
          // each batch meets — and with it every edit counter — is a pure
          // function of the trace prefix at any --threads.
          r.params.push_back(
              {"edit_interval", static_cast<double>(edit_interval)});
          r.counters.push_back(
              {"edit_events", static_cast<double>(report.edit_events)});
          r.counters.push_back(
              {"edits_applied", static_cast<double>(report.edits_applied)});
          r.counters.push_back(
              {"failed_edits", static_cast<double>(report.failed_edits)});
          r.counters.push_back(
              {"edit_repairs", static_cast<double>(report.edit_repairs)});
          r.counters.push_back(
              {"edit_fallbacks", static_cast<double>(report.edit_fallbacks)});
        }

        if (byte_budget > 0) {
          // Eviction-transparency witness, outside the timed closure: an
          // unbudgeted single-client replay must produce bitwise equal
          // checksums (evicted specs recompute deterministically). The
          // committed baseline gates the diff at exactly 0.
          Compressor reference(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool());
          workload::LoadRunnerOptions serial = load_options;
          serial.num_client_threads = 1;
          StatusOr<workload::LoadReport> want =
              workload::RunLoad(reference, trace, serial);
          QSC_CHECK_OK(want);
          double abs_diff = 0.0;
          for (int k = 0; k < workload::kNumQueryKinds; ++k) {
            abs_diff += std::abs(report.kind_checksums[k] -
                                 want->kind_checksums[k]);
          }
          abs_diff += std::abs(
              static_cast<double>(report.failed_queries -
                                  want->failed_queries));
          r.counters.push_back({"abs_diff_vs_unbudgeted", abs_diff});
        }
        return r;
      }));
}

// ---------------------------------------------------------------------------
// The mmap serving scenarios: Compressor::FromFile answering queries
// straight off a GraphView of a qsc-bin mapping, gated bitwise against
// the materialized in-memory path (the GraphView bit-identity invariant,
// docs/ARCHITECTURE.md) and published with the view-vs-materialized
// resident-footprint gauges.

std::string TempBinPath(const char* stem, uint64_t seed) {
  const char* dir = std::getenv("TMPDIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  return base + "/" + stem + "-" + std::to_string(seed) + ".qscbin";
}

// Order-sensitive partition digest: any relabeling, reassignment, or
// q-error drift moves it.
double ColoringChecksum(const ColoringResult& r) {
  const Partition& p = *r.coloring;
  double sum = r.max_q + static_cast<double>(p.num_colors());
  for (NodeId v = 0; v < p.num_nodes(); ++v) {
    sum += static_cast<double>(p.ColorOf(v)) * static_cast<double>(v % 97 + 1);
  }
  return sum;
}

// One deterministic query per kind — all five the Compressor serves.
struct ServeChecksums {
  double coloring = 0.0;
  double maxflow = 0.0;
  double maxflow_batch = 0.0;
  double solvelp = 0.0;
  double centrality = 0.0;

  double AbsDiff(const ServeChecksums& o) const {
    return std::abs(coloring - o.coloring) + std::abs(maxflow - o.maxflow) +
           std::abs(maxflow_batch - o.maxflow_batch) +
           std::abs(solvelp - o.solvelp) +
           std::abs(centrality - o.centrality);
  }
};

ServeChecksums ServeFiveKinds(Compressor& session, uint64_t seed) {
  ServeChecksums sums;
  {
    QueryOptions options;
    options.max_colors = 32;
    const StatusOr<ColoringResult> r = session.Coloring(options);
    QSC_CHECK_OK(r);
    sums.coloring = ColoringChecksum(*r);
  }
  {
    QueryOptions options;
    options.max_colors = 24;
    const StatusOr<FlowQueryResult> r = session.MaxFlow(0, 42, options);
    QSC_CHECK_OK(r);
    sums.maxflow = r->upper_bound + static_cast<double>(r->num_colors);
  }
  {
    QueryOptions options;
    options.max_colors = 24;
    const std::vector<std::pair<NodeId, NodeId>> pairs = {
        {1, 9}, {3, 27}, {0, 42}};
    const StatusOr<std::vector<FlowQueryResult>> r =
        session.MaxFlowBatch(pairs, options);
    QSC_CHECK_OK(r);
    for (const FlowQueryResult& q : *r) sums.maxflow_batch += q.upper_bound;
  }
  {
    QueryOptions options;
    options.max_colors = 8;
    const StatusOr<LpQueryResult> r = session.SolveLp(Figure3Lp(), options);
    QSC_CHECK_OK(r);
    for (const double x : r->lifted_x) sums.solvelp += x;
  }
  {
    QueryOptions options;
    options.max_colors = 16;
    options.seed = seed;
    const StatusOr<CentralityQueryResult> r = session.Centrality(options);
    QSC_CHECK_OK(r);
    for (const double s : r->scores) sums.centrality += s;
  }
  return sums;
}

// serving/mmap-identity-ba1500: all five query kinds served from a
// FromFile (mmap GraphView) session, counters gated bitwise against the
// materialized in-memory session, plus a copy-on-write witness (the
// first ApplyEdits on the mapped session materializes, and post-edit
// colorings must still match).
void RegisterMmapIdentity() {
  Scenario::Info info;
  info.name = "serving/mmap-identity-ba1500";
  info.group = "serving";
  info.description =
      "all five query kinds (coloring/flow/batch/LP/centrality) answered "
      "by a zero-copy Compressor::FromFile session over a qsc-bin "
      "mapping, checksums gated bitwise against the materialized "
      "in-memory path, plus a copy-on-write post-edit identity witness";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const uint64_t seed = ctx.seed ^ 0x9a10;
        const Graph g = DirectedBa1500(seed);
        const std::string path = TempBinPath("qsc-bench-mmap-identity", seed);
        QSC_CHECK_OK(WriteBinary(g, path));

        // Reference sweep on the materialized in-memory session.
        ServeChecksums want;
        {
          Compressor materialized(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool());
          want = ServeFiveKinds(materialized, seed);
        }

        // Measured unit: open the mapping cold and serve the sweep.
        ServeChecksums got;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          StatusOr<Compressor> session =
              Compressor::FromFile(path, DefaultPool());
          QSC_CHECK_OK(session);
          got = ServeFiveKinds(*session, seed);
        });

        // Copy-on-write witness, outside the timed closure: an edit
        // batch against the mapped session materializes an owning graph
        // and must leave it serving identically to the in-memory
        // session after the same batch.
        double post_edit_abs_diff = 0.0;
        {
          const StatusOr<std::vector<dynamic::EditOp>> edits =
              dynamic::GenerateEdits(g, dynamic::EditKind::kInsertEdge,
                                     /*count=*/8, seed);
          QSC_CHECK_OK(edits);
          Compressor materialized(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool());
          StatusOr<Compressor> mapped =
              Compressor::FromFile(path, DefaultPool());
          QSC_CHECK_OK(mapped);
          QSC_CHECK_OK(materialized.ApplyEdits(*edits));
          QSC_CHECK_OK(mapped->ApplyEdits(*edits));
          QueryOptions options;
          options.max_colors = 32;
          const StatusOr<ColoringResult> a = materialized.Coloring(options);
          const StatusOr<ColoringResult> b = mapped->Coloring(options);
          QSC_CHECK_OK(a);
          QSC_CHECK_OK(b);
          post_edit_abs_diff =
              std::abs(ColoringChecksum(*a) - ColoringChecksum(*b));
        }
        std::remove(path.c_str());

        r.params = {
            {"nodes", static_cast<double>(g.num_nodes())},
            {"arcs", static_cast<double>(g.num_arcs())},
            {"query_kinds", 5.0},
        };
        r.counters = {
            {"coloring_checksum", got.coloring},
            {"maxflow_checksum", got.maxflow},
            {"maxflow_batch_checksum", got.maxflow_batch},
            {"solvelp_checksum", got.solvelp},
            {"centrality_checksum", got.centrality},
            // The tentpole gate: the mmap view path answers bitwise
            // identically to the materialized path. Committed as 0.
            {"abs_diff_view_vs_materialized", got.AbsDiff(want)},
            {"abs_diff_post_edit", post_edit_abs_diff},
        };
        return r;
      }));
}

// serving/mmap-rss-ba1m (full suite): the resident-footprint gauge on a
// million-node graph. The generator graph is freed before measurement;
// the deltas attribute RSS to the view-serving phase and to the
// materialization that a graph() call adds on top of it.
void RegisterMmapRss() {
  Scenario::Info info;
  info.name = "serving/mmap-rss-ba1m";
  info.group = "serving";
  info.description =
      "peak/current-RSS gauges for zero-copy serving of a 1M-node BA "
      "graph written to qsc-bin at setup: rss_view_serving_mib is the "
      "footprint of FromFile + one coloring query off the mapping, "
      "rss_materialize_extra_mib what materializing the owning Graph "
      "adds on top";
  info.smoke = false;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const uint64_t seed = ctx.seed ^ 0x9a11;
        const std::string path = TempBinPath("qsc-bench-mmap-rss", seed);
        ScenarioResult r;
        {
          Rng rng(seed);
          const Graph g = BarabasiAlbert(1000000, 3, rng);
          QSC_CHECK_OK(WriteBinary(g, path));
          r.params = {
              {"nodes", static_cast<double>(g.num_nodes())},
              {"arcs", static_cast<double>(g.num_arcs())},
              {"max_colors", 8.0},
          };
        }  // the generator graph is freed here

        QueryOptions options;
        options.max_colors = 8;

        const double rss_before = CurrentRssMib();
        double rss_view = 0.0;
        double rss_materialized = 0.0;
        double view_checksum = 0.0;
        {
          StatusOr<Compressor> session = Compressor::FromFile(path);
          QSC_CHECK_OK(session);
          const StatusOr<ColoringResult> c = session->Coloring(options);
          QSC_CHECK_OK(c);
          view_checksum = ColoringChecksum(*c);
          rss_view = CurrentRssMib();
          // Force the copy-on-read materialization the view path avoids.
          const Graph& materialized = session->graph();
          QSC_CHECK_EQ(materialized.num_nodes(), 1000000);
          rss_materialized = CurrentRssMib();
        }

        // Measured unit: cold open + one coloring query, pure view path.
        r.timing = MeasureSeconds(ctx.measure, [&] {
          StatusOr<Compressor> session = Compressor::FromFile(path);
          QSC_CHECK_OK(session);
          QSC_CHECK_OK(session->Coloring(options));
        });
        std::remove(path.c_str());

        r.counters = {{"coloring_checksum", view_checksum}};
        r.gauges = {
            {"rss_before_mib", rss_before},
            {"rss_view_serving_mib", rss_view - rss_before},
            {"rss_materialize_extra_mib", rss_materialized - rss_view},
            {"peak_rss_mib", PeakRssMib()},
        };
        return r;
      }));
}

}  // namespace

void RegisterServingScenarios() {
  RegisterServing(
      "serving/mixed-poisson-ba1500",
      "300 mixed coloring/flow/LP/centrality queries (Poisson arrivals, "
      "Zipf spec skew) replayed against one Compressor session on a "
      "1500-node BA graph by --threads client threads",
      "poisson-zipf-mixed", 0x9a0e, /*byte_budget=*/0);
  RegisterServing(
      "serving/bursty-churn-ba1500",
      "the same mixed workload with bursty on/off arrivals against a "
      "4 MiB byte-budgeted coloring cache (LRU eviction churn; checksums "
      "gated bitwise against an unbudgeted replay)",
      "bursty-zipf-mixed", 0x9a0f, /*byte_budget=*/4 << 20);
  RegisterServing(
      "serving/edit-churn-ba1500",
      "the mixed Poisson workload with an edit batch of 4 single-edge "
      "edits after every 30 queries: each batch drops the cached "
      "zero-tolerance colorings, and the next query of each spec rebuilds "
      "its refiner while other clients query other specs",
      "poisson-zipf-mixed", 0x9a10, /*byte_budget=*/0,
      /*edit_interval=*/30);
  RegisterMmapIdentity();
  RegisterMmapRss();
}

}  // namespace bench
}  // namespace qsc
