// The Compressor concurrency contract (docs/API.md): one session hammered
// from many threads must produce, for every query, exactly the result a
// single-threaded session produces for that (query, options) — coloring
// snapshots, flow bounds, LP objectives, and centrality scores all
// bitwise. Only stats *attribution* (hit vs recoloring for racing
// down-budget queries) may depend on arrival order; the totals still
// reconcile. The CI `thread` sanitizer job runs this binary under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/generators.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

constexpr uint64_t kSeed = 20260729;

// A small directed scale-free graph: large enough that refinement takes
// real work, small enough that the TSan leg stays fast.
Graph StressGraph() {
  Rng rng(kSeed);
  const Graph ba = BarabasiAlbert(1500, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

// The three query kinds exercised by the stress test; each maps to its
// own ColoringSpec in the session cache.
enum class Kind { kColoring, kMaxFlow, kCentrality };

struct StressQuery {
  Kind kind;
  ColorId budget;
};

// Deterministic per-thread schedule mixing up- and down-budget requests
// across the three specs.
std::vector<StressQuery> ScheduleFor(int thread_id) {
  const std::vector<ColorId> budgets = {8, 64, 16, 48, 12, 32, 96, 24};
  std::vector<StressQuery> schedule;
  for (int round = 0; round < 2; ++round) {
    for (const ColorId budget : budgets) {
      schedule.push_back(
          {static_cast<Kind>((thread_id + round +
                              static_cast<int>(budget)) %
                             3),
           budget});
    }
  }
  Rng rng(kSeed + static_cast<uint64_t>(thread_id));
  rng.Shuffle(schedule);
  return schedule;
}

struct QueryObservation {
  Kind kind;
  ColorId budget;
  double primary = 0.0;    // max_q / upper_bound / scores checksum proxy
  ColorId num_colors = 0;
  std::vector<double> scores;  // centrality only
  Partition coloring;          // coloring + flow queries
};

QueryObservation RunOne(Compressor& session, const StressQuery& query,
                        NodeId source, NodeId sink) {
  QueryObservation seen;
  seen.kind = query.kind;
  seen.budget = query.budget;
  QueryOptions options;
  options.max_colors = query.budget;
  switch (query.kind) {
    case Kind::kColoring: {
      const StatusOr<ColoringResult> result = session.Coloring(options);
      QSC_CHECK_OK(result);
      seen.primary = result->max_q;
      seen.num_colors = result->coloring->num_colors();
      seen.coloring = *result->coloring;
      break;
    }
    case Kind::kMaxFlow: {
      const StatusOr<FlowQueryResult> result =
          session.MaxFlow(source, sink, options);
      QSC_CHECK_OK(result);
      seen.primary = result->upper_bound;
      seen.num_colors = result->num_colors;
      seen.coloring = *result->coloring;
      break;
    }
    case Kind::kCentrality: {
      const StatusOr<CentralityQueryResult> result =
          session.Centrality(options);
      QSC_CHECK_OK(result);
      seen.num_colors = result->num_colors;
      seen.scores = result->scores;
      break;
    }
  }
  return seen;
}

// The satellite stress test: 8 threads, one shared session (which itself
// runs a 4-way pool inside queries), mixed up/down budgets across 3
// specs; every observation must equal the single-threaded oracle's answer
// for that (kind, budget).
TEST(CompressorConcurrencyTest, EightThreadsMatchSingleThreadedOracle) {
  const Graph g = StressGraph();
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;

  ThreadPool pool(4);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);

  constexpr int kThreads = 8;
  std::vector<std::vector<QueryObservation>> observations(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const StressQuery& query : ScheduleFor(t)) {
          observations[t].push_back(RunOne(session, query, source, sink));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Single-threaded oracle: each (kind, budget) result is a deterministic
  // function of the spec and the budget — the whole point of the cache
  // contract — so one fresh query per distinct pair suffices.
  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  std::map<std::pair<int, ColorId>, QueryObservation> expected;
  int64_t total_queries = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const QueryObservation& seen : observations[t]) {
      ++total_queries;
      const std::pair<int, ColorId> key{static_cast<int>(seen.kind),
                                        seen.budget};
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, RunOne(oracle, {seen.kind, seen.budget},
                                      source, sink))
                 .first;
      }
      const QueryObservation& want = it->second;
      ASSERT_EQ(seen.num_colors, want.num_colors)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      // Bitwise: the concurrent session must not perturb a single double.
      ASSERT_EQ(seen.primary, want.primary)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      ASSERT_TRUE(seen.coloring == want.coloring);
      ASSERT_EQ(seen.scores, want.scores);
    }
  }

  // Totals reconcile even though per-query attribution is order-dependent.
  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.coloring.lookups, total_queries);
  EXPECT_EQ(stats.coloring.misses, 3);  // one per spec
  EXPECT_EQ(stats.coloring.hits + stats.coloring.misses +
                stats.coloring.recolorings,
            stats.coloring.lookups);
}

// The same 8-thread stress under byte-budget eviction churn: a budget
// small enough that entries are evicted while sibling threads still
// query them. Every result must still equal the single-threaded
// unbudgeted oracle (eviction transparency under concurrency), and the
// stats invariant hits + misses + recolorings == lookups must survive
// the churn, with eviction actually observed.
TEST(CompressorConcurrencyTest, ByteBudgetChurnMatchesOracle) {
  const Graph g = StressGraph();
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;

  ThreadPool pool(4);
  CompressorOptions session_options;
  session_options.coloring_cache_byte_budget = 1;  // evict everything idle
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool,
      session_options);

  constexpr int kThreads = 8;
  std::vector<std::vector<QueryObservation>> observations(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const StressQuery& query : ScheduleFor(t)) {
          observations[t].push_back(RunOne(session, query, source, sink));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  std::map<std::pair<int, ColorId>, QueryObservation> expected;
  int64_t total_queries = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const QueryObservation& seen : observations[t]) {
      ++total_queries;
      const std::pair<int, ColorId> key{static_cast<int>(seen.kind),
                                        seen.budget};
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, RunOne(oracle, {seen.kind, seen.budget},
                                      source, sink))
                 .first;
      }
      const QueryObservation& want = it->second;
      ASSERT_EQ(seen.num_colors, want.num_colors)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      ASSERT_EQ(seen.primary, want.primary)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      ASSERT_TRUE(seen.coloring == want.coloring);
      ASSERT_EQ(seen.scores, want.scores);
    }
  }

  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.coloring.lookups, total_queries);
  EXPECT_EQ(stats.coloring.hits + stats.coloring.misses +
                stats.coloring.recolorings,
            stats.coloring.lookups);
  // Under a 1-byte budget misses dominate: every idle entry is gone by
  // the time its spec comes around again (racing threads can still
  // share an in-flight entry, so hits are possible, not guaranteed).
  EXPECT_GT(stats.coloring.misses, 3);
  EXPECT_GT(stats.coloring.evictions, 0);
  EXPECT_EQ(stats.coloring.bytes_in_use, 0);
  EXPECT_GT(stats.coloring.peak_bytes, 0);
}

// Refinement itself is sequential, so this is the pool contract for every
// split rule: the batch's distinct specs refine on pool workers, nested
// inside the fan-out, and must still match a pool-less session bitwise.
TEST(CompressorConcurrencyTest, ParallelBatchMatchesSequentialLoop) {
  const Graph g = StressGraph();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 0; i < 6; ++i) {
    pairs.push_back({i, g.num_nodes() - 1 - i});
  }
  pairs.push_back(pairs.front());  // a repeat, to exercise the shared spec

  ThreadPool pool(4);
  for (const char* backend : {"rothko", "lp-rounding", "bucket"}) {
    SCOPED_TRACE(backend);
    QueryOptions options;
    options.max_colors = 24;
    options.backend = backend;

    Compressor parallel_session(
        std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g),
        &pool);
    const StatusOr<std::vector<FlowQueryResult>> batch =
        parallel_session.MaxFlowBatch(pairs, options);
    QSC_CHECK_OK(batch);

    Compressor sequential_session(
        std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
    ASSERT_EQ(batch->size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const StatusOr<FlowQueryResult> want = sequential_session.MaxFlow(
          pairs[i].first, pairs[i].second, options);
      QSC_CHECK_OK(want);
      EXPECT_EQ((*batch)[i].upper_bound, want->upper_bound) << "pair " << i;
      EXPECT_EQ((*batch)[i].num_colors, want->num_colors) << "pair " << i;
      EXPECT_TRUE(*(*batch)[i].coloring == *want->coloring) << "pair " << i;
    }

    // The repeated pair shares its spec's coloring: 7 lookups, 6 specs.
    const CompressorStats stats = parallel_session.stats();
    EXPECT_EQ(stats.coloring.lookups, 7);
    EXPECT_EQ(stats.coloring.misses, 6);
    EXPECT_EQ(stats.coloring.hits, 1);
  }
}

TEST(CompressorConcurrencyTest, PooledCentralityBitIdenticalToSequential) {
  Rng rng(kSeed + 7);
  const Graph g = BarabasiAlbert(800, 3, rng);

  QueryOptions options;
  options.max_colors = 40;
  options.pivots_per_color = 2;

  ThreadPool pool(8);
  Compressor pooled(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);
  Compressor sequential(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));

  const StatusOr<CentralityQueryResult> got = pooled.Centrality(options);
  const StatusOr<CentralityQueryResult> want = sequential.Centrality(options);
  QSC_CHECK_OK(got);
  QSC_CHECK_OK(want);
  ASSERT_EQ(got->scores.size(), want->scores.size());
  for (size_t v = 0; v < got->scores.size(); ++v) {
    ASSERT_EQ(got->scores[v], want->scores[v]) << "node " << v;
  }
}

TEST(CompressorConcurrencyTest, ConcurrentSolveLpMatchesOracle) {
  BlockLpSpec spec;
  spec.num_row_groups = 4;
  spec.num_col_groups = 4;
  spec.rows_per_group = 6;
  spec.cols_per_group = 6;
  spec.seed = 11;
  const LpProblem lp_a = MakeBlockLp(spec);
  spec.seed = 12;
  const LpProblem lp_b = MakeBlockLp(spec);

  ThreadPool pool(4);
  Compressor session(Graph(), &pool);

  constexpr int kThreads = 8;
  const std::vector<ColorId> budgets = {8, 16, 12, 24};
  std::vector<std::vector<double>> objectives(kThreads);
  {
    // stats() races the queries, including the lazy build of each LP's
    // cache; every snapshot must reconcile.
    std::atomic<bool> done{false};
    std::thread poller([&] {
      while (!done.load()) {
        const CompressorStats s = session.stats();
        EXPECT_EQ(s.lp_hits + s.lp_misses + s.lp_recolorings, s.lp_lookups);
      }
    });
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t b = 0; b < budgets.size(); ++b) {
          QueryOptions options;
          options.max_colors = budgets[(b + static_cast<size_t>(t)) %
                                       budgets.size()];
          const StatusOr<LpQueryResult> result =
              session.SolveLp(t % 2 == 0 ? lp_a : lp_b, options);
          QSC_CHECK_OK(result);
          objectives[t].push_back(result->solution.objective);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    done.store(true);
    poller.join();
  }

  Compressor oracle;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t b = 0; b < budgets.size(); ++b) {
      QueryOptions options;
      options.max_colors =
          budgets[(b + static_cast<size_t>(t)) % budgets.size()];
      const StatusOr<LpQueryResult> want =
          oracle.SolveLp(t % 2 == 0 ? lp_a : lp_b, options);
      QSC_CHECK_OK(want);
      EXPECT_EQ(objectives[t][b], want->solution.objective)
          << "thread " << t << " query " << b;
    }
  }

  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.lp_lookups, kThreads * static_cast<int64_t>(budgets.size()));
  EXPECT_EQ(stats.lp_misses, 2);  // one per distinct LP
  EXPECT_EQ(stats.lp_hits + stats.lp_misses + stats.lp_recolorings,
            stats.lp_lookups);
}

// Distinct coloring backends queried concurrently through one session:
// thread t hammers backend t mod 3 with mixed up/down budgets. Distinct
// backends are distinct specs, so they refine concurrently; every served
// coloring must equal the single-threaded oracle for that (backend,
// budget), and the per-backend stats rows must reconcile row by row
// (hits + misses + recolorings == lookups) under any interleaving. The CI
// TSan leg runs this against the registry's shared state.
TEST(CompressorConcurrencyTest, ConcurrentDistinctBackendsMatchOracle) {
  const Graph g = StressGraph();
  const std::vector<std::string> backends = {"rothko", "lp-rounding",
                                             "bucket"};

  ThreadPool pool(4);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);

  constexpr int kThreads = 6;
  const std::vector<ColorId> budgets = {8, 32, 16, 48, 12, 24};
  std::vector<std::vector<std::pair<ColorId, Partition>>> observations(
      kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        QueryOptions options;
        options.backend = backends[t % backends.size()];
        for (const ColorId budget : budgets) {
          options.max_colors = budget;
          const StatusOr<ColoringResult> result = session.Coloring(options);
          QSC_CHECK_OK(result);
          observations[t].emplace_back(budget, *result->coloring);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Single-threaded per-backend oracle sessions.
  for (int t = 0; t < kThreads; ++t) {
    Compressor oracle(
        std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
    QueryOptions options;
    options.backend = backends[t % backends.size()];
    for (const auto& [budget, coloring] : observations[t]) {
      options.max_colors = budget;
      const StatusOr<ColoringResult> want = oracle.Coloring(options);
      QSC_CHECK_OK(want);
      ASSERT_TRUE(coloring == *want->coloring)
          << options.backend << " budget " << budget;
    }
  }

  // Per-backend attribution reconciles row by row and sums to the totals.
  const CacheStats stats = session.stats().coloring;
  ASSERT_EQ(stats.per_backend.size(), backends.size());
  int64_t lookups = 0, attributed = 0;
  for (const auto& [name, row] : stats.per_backend) {
    EXPECT_EQ(row.hits + row.misses + row.recolorings, row.lookups) << name;
    EXPECT_EQ(row.lookups,
              static_cast<int64_t>(budgets.size()) * kThreads /
                  static_cast<int64_t>(backends.size()))
        << name;
    lookups += row.lookups;
    attributed += row.hits + row.misses + row.recolorings;
  }
  EXPECT_EQ(lookups, stats.lookups);
  EXPECT_EQ(attributed, stats.lookups);
  EXPECT_EQ(stats.lookups,
            static_cast<int64_t>(budgets.size()) * kThreads);
}

// Eight threads race the first query of one MaxFlow spec (with the c^1
// lower bound) and of one SolveLp spec: every thread gets the oracle's
// answer, and each snapshot artifact — the c^2 graph, the c^1 graph, the
// reduced LP — is built exactly once; every other lookup waits for that
// build and hits it.
TEST(CompressorConcurrencyTest, RacingFirstHitsBuildEachArtifactOnce) {
  const Graph g = StressGraph();
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;
  const LpProblem lp = MakeQapLikeLp(6, 3);
  QueryOptions options;
  options.max_colors = 24;
  options.compute_lower_bound = true;

  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  const StatusOr<FlowQueryResult> want_flow =
      oracle.MaxFlow(source, sink, options);
  const StatusOr<LpQueryResult> want_lp = oracle.SolveLp(lp, options);
  QSC_CHECK_OK(want_flow);
  QSC_CHECK_OK(want_lp);

  constexpr int kThreads = 8;
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  std::vector<double> upper(kThreads), lower(kThreads), objective(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const StatusOr<FlowQueryResult> flow =
          session.MaxFlow(source, sink, options);
      const StatusOr<LpQueryResult> solved = session.SolveLp(lp, options);
      QSC_CHECK_OK(flow);
      QSC_CHECK_OK(solved);
      upper[i] = flow->upper_bound;
      lower[i] = flow->lower_bound;
      objective[i] = solved->solution.objective;
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(upper[i], want_flow->upper_bound) << "thread " << i;
    EXPECT_EQ(lower[i], want_flow->lower_bound) << "thread " << i;
    EXPECT_EQ(objective[i], want_lp->solution.objective) << "thread " << i;
  }
  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.coloring.artifact_lookups, 2 * kThreads);
  EXPECT_EQ(stats.coloring.artifact_builds, 2);
  EXPECT_EQ(stats.coloring.artifact_hits, 2 * kThreads - 2);
  EXPECT_EQ(stats.lp_artifact_lookups, kThreads);
  EXPECT_EQ(stats.lp_artifact_builds, 1);
  EXPECT_EQ(stats.lp_artifact_hits, kThreads - 1);
}

}  // namespace
}  // namespace qsc
