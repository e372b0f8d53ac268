// The byte-budgeted ColoringCache's eviction contract
// (qsc/api/coloring_cache.h): eviction frees memory, never changes a
// result. The differential oracle here runs over the shared 56-graph
// property corpus (tests/rothko_corpus.h): for every (graph, split-mean)
// cell, a spec is queried, evicted under byte pressure, and re-queried —
// the recomputed partition must be bitwise equal to the evicted one, and
// bytes_in_use must respect the budget after every operation (the cache
// is single-threaded here, so no entry is pinned when eviction runs).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/coloring_cache.h"
#include "qsc/api/compressor.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/generators.h"
#include "rothko_corpus.h"

namespace qsc {
namespace {

using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;

std::shared_ptr<const Graph> Shared(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

ColoringSpec SpecWithPins(RothkoOptions::SplitMean split_mean,
                          std::vector<NodeId> pinned) {
  ColoringSpec spec;
  spec.split_mean = split_mean;
  spec.pinned = std::move(pinned);
  return spec;
}

void CheckStatsReconcile(const CacheStats& stats) {
  EXPECT_EQ(stats.hits + stats.misses + stats.recolorings, stats.lookups);
  EXPECT_GE(stats.bytes_in_use, 0);
  EXPECT_GE(stats.peak_bytes, stats.bytes_in_use);
}

// The corpus-wide oracle: evict-then-requery is bitwise invisible, and
// the budget holds after every operation.
TEST(CacheEvictionTest, EvictedSpecRecomputesBitIdenticallyAcrossCorpus) {
  const std::vector<RothkoOptions::SplitMean> means = {
      RothkoOptions::SplitMean::kArithmetic,
      RothkoOptions::SplitMean::kGeometric};
  for (const uint64_t seed : CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      const auto graph = Shared(CorpusGraph(seed, directed));
      for (const auto mean : means) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " directed=" + std::to_string(directed) +
                     " geometric=" +
                     std::to_string(mean ==
                                    RothkoOptions::SplitMean::kGeometric));
        const ColoringSpec spec_a = SpecWithPins(mean, {});
        const ColoringSpec spec_b = SpecWithPins(mean, {0});
        const ColorId budget = 12;

        // Reference pass, unbudgeted: the partition to reproduce and the
        // footprint of one warm entry (the byte budget below).
        ColoringCache reference(graph);
        const auto want = reference.Refine(spec_a, budget);
        const int64_t one_entry_bytes = reference.stats().bytes_in_use;
        ASSERT_GT(one_entry_bytes, 0);

        // Budgeted cache sized for exactly one entry: serving a second
        // spec must evict the first.
        ColoringCacheOptions options;
        options.byte_budget = one_entry_bytes;
        ColoringCache cache(graph, options);

        const auto first = cache.Refine(spec_a, budget);
        EXPECT_EQ(*first.partition, *want.partition);
        EXPECT_EQ(first.max_error, want.max_error);
        EXPECT_LE(cache.stats().bytes_in_use, options.byte_budget);

        cache.Refine(spec_b, budget);
        const CacheStats after_b = cache.stats();
        EXPECT_LE(after_b.bytes_in_use, options.byte_budget);
        EXPECT_GE(after_b.evictions, 1);

        // Re-query the evicted spec: a recompute-from-scratch miss whose
        // partition and q-error are bitwise equal to the evicted run.
        const auto again = cache.Refine(spec_a, budget);
        EXPECT_EQ(*again.partition, *want.partition);
        EXPECT_EQ(again.max_error, want.max_error);
        EXPECT_FALSE(again.cache_hit);

        const CacheStats final_stats = cache.stats();
        EXPECT_LE(final_stats.bytes_in_use, options.byte_budget);
        EXPECT_EQ(final_stats.misses, 3);  // a, b, and re-queried a
        CheckStatsReconcile(final_stats);
      }
    }
  }
}

// Anytime continuation composes with eviction: refine up-budget, evict,
// re-query at the continued budget — still bitwise equal.
TEST(CacheEvictionTest, UpBudgetContinuationSurvivesEviction) {
  for (const uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
    const auto graph = Shared(CorpusGraph(seed, /*directed=*/true));
    const ColoringSpec spec_a =
        SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {});
    const ColoringSpec spec_b =
        SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {1, 2});

    ColoringCache reference(graph);
    reference.Refine(spec_a, 8);
    const auto continued = reference.Refine(spec_a, 20);
    const int64_t warm_bytes = reference.stats().bytes_in_use;

    ColoringCacheOptions options;
    options.byte_budget = warm_bytes;
    ColoringCache cache(graph, options);
    cache.Refine(spec_a, 8);
    const auto up = cache.Refine(spec_a, 20);
    EXPECT_EQ(*up.partition, *continued.partition);

    cache.Refine(spec_b, 20);  // evicts spec_a
    EXPECT_GE(cache.stats().evictions, 1);
    EXPECT_LE(cache.stats().bytes_in_use, options.byte_budget);

    const auto again = cache.Refine(spec_a, 20);
    EXPECT_EQ(*again.partition, *continued.partition);
    EXPECT_EQ(again.max_error, continued.max_error);
    CheckStatsReconcile(cache.stats());
  }
}

// An unbudgeted cache never evicts but still meters its footprint.
TEST(CacheEvictionTest, UnbudgetedCacheTracksBytesWithoutEvicting) {
  const auto graph = Shared(CorpusGraph(5, /*directed=*/false));
  ColoringCache cache(graph);
  int64_t last_bytes = 0;
  for (const NodeId pin : {0, 1, 2, 3}) {
    cache.Refine(SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {pin}),
                 16);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 0);
    EXPECT_GT(stats.bytes_in_use, last_bytes);  // one more live entry
    EXPECT_EQ(stats.peak_bytes, stats.bytes_in_use);
    last_bytes = stats.bytes_in_use;
  }
  EXPECT_EQ(cache.num_entries(), 4);
}

// A budget smaller than any single entry degenerates to cache-nothing:
// every request recomputes, every result still exact, and the cache
// empties after each call.
TEST(CacheEvictionTest, TinyBudgetDegeneratesToCacheNothing) {
  const auto graph = Shared(CorpusGraph(7, /*directed=*/true));
  const ColoringSpec spec =
      SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {});

  ColoringCache reference(graph);
  const auto want = reference.Refine(spec, 12);

  ColoringCacheOptions options;
  options.byte_budget = 1;
  ColoringCache cache(graph, options);
  for (int i = 0; i < 3; ++i) {
    const auto got = cache.Refine(spec, 12);
    EXPECT_EQ(*got.partition, *want.partition);
    EXPECT_FALSE(got.cache_hit);
    EXPECT_EQ(cache.num_entries(), 0);
    EXPECT_EQ(cache.stats().bytes_in_use, 0);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 3);
  CheckStatsReconcile(stats);
}

// CompressorOptions plumbs the budget through to the session cache, and
// eviction stays invisible at the query API.
TEST(CacheEvictionTest, CompressorByteBudgetIsTransparent) {
  Graph g = CorpusGraph(9, /*directed=*/true);
  Compressor unbudgeted{Graph(g)};

  CompressorOptions options;
  options.coloring_cache_byte_budget = 1;  // evict after every query
  Compressor budgeted(std::move(g), /*pool=*/nullptr, options);

  QueryOptions query;
  query.max_colors = 12;
  for (const auto& [s, t] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 59}, {1, 58}, {0, 59}, {2, 57}}) {
    const auto want = unbudgeted.MaxFlow(s, t, query);
    const auto got = budgeted.MaxFlow(s, t, query);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->upper_bound, want->upper_bound);
    EXPECT_EQ(*got->coloring, *want->coloring);
  }
  const CompressorStats stats = budgeted.stats();
  EXPECT_GE(stats.coloring.evictions, 3);
  EXPECT_EQ(stats.coloring.bytes_in_use, 0);
  EXPECT_GT(stats.coloring.peak_bytes, 0);
  // Every repeated query is a recompute-miss under the tiny budget.
  EXPECT_EQ(stats.coloring.hits + stats.coloring.misses +
                stats.coloring.recolorings,
            stats.coloring.lookups);
}

// A 1-byte budget also evicts every snapshot artifact: memoized answers
// stay bit-equal to an unbudgeted session's, and nothing stays metered.
TEST(CacheEvictionTest, TinyBudgetKeepsArtifactAnswersExact) {
  Graph g = CorpusGraph(11, /*directed=*/true);
  Compressor unbudgeted{Graph(g)};
  CompressorOptions options;
  options.coloring_cache_byte_budget = 1;
  Compressor budgeted(std::move(g), /*pool=*/nullptr, options);

  QueryOptions query;
  query.max_colors = 12;
  QueryOptions bounded = query;
  bounded.compute_lower_bound = true;
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 59}, {1, 58}, {0, 59}};
  const LpProblem lp = MakeQapLikeLp(6, 3);
  for (int round = 0; round < 3; ++round) {
    for (const QueryOptions* options : {&query, &bounded}) {
      const auto want = unbudgeted.MaxFlow(0, 59, *options);
      const auto got = budgeted.MaxFlow(0, 59, *options);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->upper_bound, want->upper_bound);
      EXPECT_EQ(got->lower_bound, want->lower_bound);
      EXPECT_LE(budgeted.stats().coloring.bytes_in_use, 1);
    }
    const auto want_batch = unbudgeted.MaxFlowBatch(pairs, bounded);
    const auto got_batch = budgeted.MaxFlowBatch(pairs, bounded);
    ASSERT_TRUE(want_batch.ok());
    ASSERT_TRUE(got_batch.ok());
    for (size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ((*got_batch)[k].upper_bound, (*want_batch)[k].upper_bound);
      EXPECT_EQ((*got_batch)[k].lower_bound, (*want_batch)[k].lower_bound);
    }
    EXPECT_LE(budgeted.stats().coloring.bytes_in_use, 1);

    const auto want_lp = unbudgeted.SolveLp(lp, query);
    const auto got_lp = budgeted.SolveLp(lp, query);
    ASSERT_TRUE(want_lp.ok());
    ASSERT_TRUE(got_lp.ok());
    EXPECT_EQ(got_lp->reduced.row_color, want_lp->reduced.row_color);
    EXPECT_EQ(got_lp->reduced.col_color, want_lp->reduced.col_color);
    EXPECT_EQ(got_lp->solution.objective, want_lp->solution.objective);
    EXPECT_EQ(got_lp->lifted_x, want_lp->lifted_x);
  }
  const CompressorStats stats = budgeted.stats();
  EXPECT_EQ(stats.coloring.bytes_in_use, 0);
  EXPECT_EQ(stats.coloring.artifact_builds + stats.coloring.artifact_hits,
            stats.coloring.artifact_lookups);
  // Nothing survives a request, so every artifact lookup rebuilds.
  EXPECT_EQ(stats.coloring.artifact_hits, 0);
  EXPECT_EQ(stats.lp_artifact_hits, 0);
}

// A built artifact joins its entry's footprint, is never rebuilt while its
// snapshot lives, leaves with the entry on eviction, and is dropped with
// the snapshots by ApplyGraph.
TEST(CacheEvictionTest, ArtifactsAreMeteredWithTheirEntry) {
  const auto graph = Shared(CorpusGraph(5, /*directed=*/true));
  ColoringCache cache(graph);
  const ColoringSpec spec =
      SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {0, 59});
  const ColoringCache::Handle handle = cache.Refine(spec, 12);
  const int64_t coloring_bytes = cache.stats().bytes_in_use;

  int builds = 0;
  const auto build = [&] {
    ++builds;
    return BuildReducedGraph(*graph, *handle.partition, ReducedWeight::kSum);
  };
  const std::shared_ptr<const Graph> reduced =
      cache.Artifact<Graph>(handle, {"test.c2", 0}, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().bytes_in_use,
            coloring_bytes + reduced->MemoryBytes());
  EXPECT_EQ(cache.stats().peak_bytes, cache.stats().bytes_in_use);

  // A repeat lookup, also through a later handle on the same snapshot, is
  // a hit on the same object.
  const ColoringCache::Handle again = cache.Refine(spec, 12);
  EXPECT_EQ(again.snapshot, handle.snapshot);
  EXPECT_EQ(cache.Artifact<Graph>(again, {"test.c2", 0}, build), reduced);
  EXPECT_EQ(builds, 1);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.artifact_lookups, 2);
  EXPECT_EQ(stats.artifact_builds, 1);
  EXPECT_EQ(stats.artifact_hits, 1);
  EXPECT_EQ(stats.bytes_in_use, coloring_bytes + reduced->MemoryBytes());

  // ApplyGraph drops the snapshot, and its artifact with it.
  const StatusOr<std::vector<dynamic::EditOp>> edits = dynamic::GenerateEdits(
      *graph, dynamic::EditKind::kInsertEdge, 4, 3);
  QSC_CHECK_OK(edits);
  StatusOr<Graph> mutated = dynamic::ApplyEditBatch(*graph, *edits);
  QSC_CHECK_OK(mutated);
  cache.ApplyGraph(Shared(std::move(mutated).value()), *edits, {});
  EXPECT_LT(cache.stats().bytes_in_use, coloring_bytes);
  // A late build on the dropped snapshot is served but not metered.
  const int64_t dropped_bytes = cache.stats().bytes_in_use;
  cache.Artifact<Graph>(handle, {"test.other", 0}, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.stats().bytes_in_use, dropped_bytes);

  // A budget between the coloring's and coloring + artifact's footprint:
  // the build pushes the entry over and it is evicted.
  ColoringCacheOptions options;
  options.byte_budget = coloring_bytes + 1;
  ColoringCache budgeted(graph, options);
  const ColoringCache::Handle fits = budgeted.Refine(spec, 12);
  EXPECT_EQ(budgeted.num_entries(), 1);
  budgeted.Artifact<Graph>(fits, {"test.c2", 0}, build);
  EXPECT_EQ(budgeted.num_entries(), 0);
  EXPECT_EQ(budgeted.stats().bytes_in_use, 0);
  EXPECT_EQ(budgeted.stats().evictions, 1);
}

}  // namespace
}  // namespace qsc
