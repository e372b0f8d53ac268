// Dynamic-graph concurrency contract (docs/DYNAMIC.md): ApplyEdits may
// race queries on a shared Compressor session. Every query is stamped with
// the graph version it ran against, and its result must be exactly what a
// fresh session on that version's graph serves (zero-tolerance specs fall
// back to from-scratch recoloring, so the comparison is bitwise). With a
// positive tolerance the repaired path is checked phase by phase against a
// serialized oracle session replaying the identical edit/query history.
// A fallback is lazy — ApplyEdits drops the entry's refiner and the
// spec's next query rebuilds it — so the lazy-fallback suite checks the
// counters, the footprint and the racing first queries of that rebuild.
// The CI `thread` sanitizer job runs this binary under TSan (suite names
// match the 'DynamicRecolor' regex).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

constexpr uint64_t kSeed = 20260808;

// Directed scale-free graph sized for the TSan leg: refinement and repair
// both do real work, but a full run stays in the hundreds of milliseconds.
Graph StressGraph() {
  Rng rng(kSeed);
  const Graph ba = BarabasiAlbert(1200, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

std::vector<std::vector<dynamic::EditOp>> StressBatches(const Graph& g,
                                                        int64_t num_batches) {
  dynamic::EditStreamOptions options;
  options.seed = kSeed * 3 + 1;
  options.num_batches = num_batches;
  options.edits_per_batch = 12;
  StatusOr<std::vector<std::vector<dynamic::EditOp>>> batches =
      dynamic::GenerateEditBatches(g, options);
  QSC_CHECK_OK(batches);
  return std::move(batches).value();
}

// The graph as it stands after each version: versions[v] is the session
// graph at graph_version v (version 0 = the construction graph).
std::vector<Graph> VersionChain(const Graph& g,
                                const std::vector<std::vector<dynamic::EditOp>>&
                                    batches) {
  std::vector<Graph> versions = {g};
  for (const std::vector<dynamic::EditOp>& batch : batches) {
    StatusOr<Graph> next = dynamic::ApplyEditBatch(versions.back(), batch);
    QSC_CHECK_OK(next);
    versions.push_back(std::move(next).value());
  }
  return versions;
}

struct VersionedObservation {
  int64_t graph_version = 0;
  ColorId budget = 0;
  double max_q = 0.0;
  Partition coloring;
};

// Six reader threads hammer Coloring queries at mixed budgets while the
// main thread pushes edit batches through ApplyEdits. The query options
// leave q_tolerance at 0, so every batch resets the cached spec to scratch
// and each observation must be bitwise identical to a fresh session on the
// graph version stamped into its telemetry — under ANY interleaving.
TEST(DynamicRecolorConcurrencyTest, EditsRacingQueriesMatchPerVersionOracle) {
  const Graph g = StressGraph();
  const std::vector<std::vector<dynamic::EditOp>> batches =
      StressBatches(g, 4);
  const std::vector<Graph> versions = VersionChain(g, batches);

  ThreadPool pool(4);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);

  constexpr int kThreads = 6;
  const std::vector<ColorId> budgets = {8, 24, 16};
  std::vector<std::vector<VersionedObservation>> observations(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 4; ++round) {
          QueryOptions options;
          options.max_colors =
              budgets[static_cast<size_t>(t + round) % budgets.size()];
          const StatusOr<ColoringResult> result = session.Coloring(options);
          QSC_CHECK_OK(result);
          observations[t].push_back({result->telemetry.graph_version,
                                     options.max_colors, result->max_q,
                                     *result->coloring});
        }
      });
    }
    // Race the edit batches against the readers from this thread.
    for (const std::vector<dynamic::EditOp>& batch : batches) {
      const StatusOr<EditApplyResult> applied = session.ApplyEdits(batch);
      QSC_CHECK_OK(applied);
      EXPECT_EQ(applied->edits_applied,
                static_cast<int64_t>(batch.size()));
      // Zero-tolerance entries are never repairable.
      EXPECT_EQ(applied->repairs, 0);
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(session.graph_version(),
            static_cast<int64_t>(batches.size()));

  // Per-(version, budget) oracle: a fresh session on that version's graph.
  std::map<std::pair<int64_t, ColorId>, VersionedObservation> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (const VersionedObservation& seen : observations[t]) {
      ASSERT_GE(seen.graph_version, 0);
      ASSERT_LT(seen.graph_version,
                static_cast<int64_t>(versions.size()));
      const std::pair<int64_t, ColorId> key{seen.graph_version, seen.budget};
      auto it = expected.find(key);
      if (it == expected.end()) {
        const Graph& at = versions[static_cast<size_t>(seen.graph_version)];
        Compressor oracle(
            std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &at));
        QueryOptions options;
        options.max_colors = seen.budget;
        const StatusOr<ColoringResult> want = oracle.Coloring(options);
        QSC_CHECK_OK(want);
        it = expected
                 .emplace(key, VersionedObservation{seen.graph_version,
                                                    seen.budget, want->max_q,
                                                    *want->coloring})
                 .first;
      }
      ASSERT_EQ(seen.max_q, it->second.max_q)
          << "version " << seen.graph_version << " budget " << seen.budget;
      ASSERT_TRUE(seen.coloring == it->second.coloring)
          << "version " << seen.graph_version << " budget " << seen.budget;
    }
  }
}

// Positive tolerance, phased: each phase fans concurrent queries at mixed
// budgets, then applies one batch (which must REPAIR the entry, not fall
// back). The whole history is replayed on a single-threaded oracle
// session; every concurrent observation must match the oracle's result
// for its (phase, budget) bitwise — repaired state included, because the
// entry's refinement trajectory is a deterministic function of the query
// set, not of arrival order.
TEST(DynamicRecolorConcurrencyTest, PhasedRepairsMatchSerializedOracle) {
  const Graph g = StressGraph();
  const std::vector<std::vector<dynamic::EditOp>> batches =
      StressBatches(g, 3);

  QueryOptions query;
  query.q_tolerance = 8.0;

  ThreadPool pool(4);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);
  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));

  constexpr int kThreads = 4;
  const std::vector<ColorId> budgets = {8, 32, 16};
  // phase -> budget -> observed partitions (one per thread).
  for (size_t phase = 0; phase <= batches.size(); ++phase) {
    std::vector<std::vector<std::pair<ColorId, Partition>>> seen(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (size_t b = 0; b < budgets.size(); ++b) {
            QueryOptions options = query;
            options.max_colors =
                budgets[(b + static_cast<size_t>(t)) % budgets.size()];
            const StatusOr<ColoringResult> result =
                session.Coloring(options);
            QSC_CHECK_OK(result);
            seen[t].emplace_back(options.max_colors, *result->coloring);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
    }

    // Serialized oracle: the same query set, ascending, one thread.
    std::map<ColorId, Partition> want;
    for (const ColorId budget : budgets) {
      QueryOptions options = query;
      options.max_colors = budget;
      const StatusOr<ColoringResult> result = oracle.Coloring(options);
      QSC_CHECK_OK(result);
      want.emplace(budget, *result->coloring);
    }
    for (int t = 0; t < kThreads; ++t) {
      for (const auto& [budget, coloring] : seen[t]) {
        ASSERT_TRUE(coloring == want.at(budget))
            << "phase " << phase << " budget " << budget << " thread " << t;
      }
    }

    if (phase < batches.size()) {
      const StatusOr<EditApplyResult> applied =
          session.ApplyEdits(batches[phase]);
      const StatusOr<EditApplyResult> oracle_applied =
          oracle.ApplyEdits(batches[phase]);
      QSC_CHECK_OK(applied);
      QSC_CHECK_OK(oracle_applied);
      // The tolerance-bounded spec must take the repair path in both
      // sessions, and spend the identical split budget doing so.
      EXPECT_EQ(applied->repairs, 1) << "phase " << phase;
      EXPECT_EQ(applied->fallbacks, 0) << "phase " << phase;
      EXPECT_EQ(applied->repairs, oracle_applied->repairs);
      EXPECT_EQ(applied->repair_splits, oracle_applied->repair_splits);
    }
  }

  // Edit telemetry aggregates identically on both sessions.
  const CompressorStats concurrent_stats = session.stats();
  const CompressorStats serial_stats = oracle.stats();
  EXPECT_EQ(concurrent_stats.coloring.edit_batches,
            serial_stats.coloring.edit_batches);
  EXPECT_EQ(concurrent_stats.coloring.edits_applied,
            serial_stats.coloring.edits_applied);
  EXPECT_EQ(concurrent_stats.coloring.repairs,
            serial_stats.coloring.repairs);
  EXPECT_EQ(concurrent_stats.coloring.fallbacks,
            serial_stats.coloring.fallbacks);
}

// Zero-tolerance coloring specs over distinct split rules and witness
// weights: every one falls back on every batch.
std::vector<QueryOptions> FallbackSpecs(ColorId budget) {
  std::vector<QueryOptions> specs;
  for (const char* backend : {"rothko", "lp-rounding", "bucket"}) {
    QueryOptions options;
    options.max_colors = budget;
    options.backend = backend;
    specs.push_back(options);
  }
  QueryOptions weighted;
  weighted.max_colors = budget;
  weighted.alpha = 1.0;
  weighted.beta = 1.0;
  specs.push_back(weighted);
  return specs;
}

ColoringResult MustColor(Compressor& session, const QueryOptions& options) {
  StatusOr<ColoringResult> result = session.Coloring(options);
  QSC_CHECK_OK(result);
  return std::move(result).value();
}

// Two batches with no query in between: the first discards the entry's
// coloring work, the second finds nothing to discard. The next query
// equals a fresh session on the twice-edited graph, and the footprint
// drops by the discarded refiner and snapshot on every fallback.
TEST(DynamicRecolorLazyFallbackTest, BackToBackBatchesDiscardWorkOnce) {
  const Graph g = StressGraph();
  const std::vector<std::vector<dynamic::EditOp>> batches =
      StressBatches(g, 3);
  const std::vector<Graph> versions = VersionChain(g, batches);
  QueryOptions query;
  query.max_colors = 24;

  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  MustColor(session, query);
  const int64_t warm_bytes = session.stats().coloring.bytes_in_use;

  const StatusOr<EditApplyResult> first = session.ApplyEdits(batches[0]);
  QSC_CHECK_OK(first);
  EXPECT_EQ(first->fallbacks, 1);
  EXPECT_EQ(first->repairs, 0);
  const int64_t reset_bytes = session.stats().coloring.bytes_in_use;
  EXPECT_LT(reset_bytes, warm_bytes);

  const StatusOr<EditApplyResult> second = session.ApplyEdits(batches[1]);
  QSC_CHECK_OK(second);
  EXPECT_EQ(second->fallbacks, 0) << "the reset entry counted again";
  EXPECT_EQ(second->repairs, 0);
  EXPECT_EQ(session.stats().coloring.bytes_in_use, reset_bytes);

  // The rebuild on the next query: bitwise a fresh session's answer and
  // footprint on the twice-edited graph.
  const ColoringResult rebuilt = MustColor(session, query);
  Compressor fresh(std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                                &versions[2]));
  const ColoringResult want = MustColor(fresh, query);
  EXPECT_TRUE(*rebuilt.coloring == *want.coloring);
  EXPECT_EQ(rebuilt.max_q, want.max_q);
  EXPECT_EQ(rebuilt.telemetry.graph_version, 2);
  const int64_t rebuilt_bytes = session.stats().coloring.bytes_in_use;
  EXPECT_EQ(rebuilt_bytes, fresh.stats().coloring.bytes_in_use);

  // A third batch discards exactly what that query rebuilt.
  const StatusOr<EditApplyResult> third = session.ApplyEdits(batches[2]);
  QSC_CHECK_OK(third);
  EXPECT_EQ(third->fallbacks, 1);
  EXPECT_EQ(session.stats().coloring.bytes_in_use, reset_bytes);

  const CacheStats stats = session.stats().coloring;
  EXPECT_EQ(stats.edit_batches, 3);
  EXPECT_EQ(stats.fallbacks, 2);
  EXPECT_EQ(stats.repairs, 0);
}

// Several fallback specs' first post-edit queries race from many
// threads. Each spec's refiner is rebuilt once — the split count equals
// one fresh refinement per spec — every lookup reconciles as a hit, and
// every answer equals a single-threaded oracle on the edited graph.
TEST(DynamicRecolorLazyFallbackTest, RacingFirstQueriesRebuildEachSpecOnce) {
  const Graph g = StressGraph();
  const std::vector<std::vector<dynamic::EditOp>> batches =
      StressBatches(g, 1);
  const std::vector<Graph> versions = VersionChain(g, batches);
  const std::vector<QueryOptions> specs = FallbackSpecs(/*budget=*/24);

  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  for (const QueryOptions& spec : specs) MustColor(session, spec);
  const StatusOr<EditApplyResult> applied = session.ApplyEdits(batches[0]);
  QSC_CHECK_OK(applied);
  EXPECT_EQ(applied->fallbacks, static_cast<int64_t>(specs.size()));
  const CacheStats before = session.stats().coloring;

  constexpr int kThreads = 6;
  std::vector<std::vector<ColoringResult>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Staggered spec order, so first queries of different specs and
        // of the same spec collide.
        for (size_t i = 0; i < specs.size(); ++i) {
          const QueryOptions& spec =
              specs[(i + static_cast<size_t>(t)) % specs.size()];
          seen[t].push_back(MustColor(session, spec));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Single-threaded oracle on the edited graph: one fresh refinement per
  // spec, in a fresh session.
  Compressor oracle(std::shared_ptr<const Graph>(
      std::shared_ptr<const Graph>(), &versions[1]));
  std::vector<ColoringResult> want;
  for (const QueryOptions& spec : specs) want.push_back(MustColor(oracle, spec));
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < specs.size(); ++i) {
      const size_t s = (i + static_cast<size_t>(t)) % specs.size();
      ASSERT_TRUE(*seen[t][i].coloring == *want[s].coloring)
          << "thread " << t << " spec " << s;
      ASSERT_EQ(seen[t][i].max_q, want[s].max_q);
      EXPECT_EQ(seen[t][i].telemetry.graph_version, 1);
    }
  }

  const CacheStats after = session.stats().coloring;
  const CacheStats fresh = oracle.stats().coloring;
  const int64_t lookups = kThreads * static_cast<int64_t>(specs.size());
  EXPECT_EQ(after.lookups - before.lookups, lookups);
  EXPECT_EQ(after.hits - before.hits, lookups);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.recolorings, before.recolorings);
  EXPECT_EQ(after.hits + after.misses + after.recolorings, after.lookups);
  EXPECT_EQ(after.refine_splits - before.refine_splits, fresh.refine_splits)
      << "a spec's refiner was rebuilt more than once";
  int64_t row_lookups = 0;
  for (const auto& [backend, row] : after.per_backend) {
    EXPECT_EQ(row.hits + row.misses + row.recolorings, row.lookups)
        << backend;
    row_lookups += row.lookups;
  }
  EXPECT_EQ(row_lookups, after.lookups);
  EXPECT_EQ(after.bytes_in_use, fresh.bytes_in_use);
}

}  // namespace
}  // namespace qsc
