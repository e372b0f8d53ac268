// Compression backends by name (src/qsc/coloring/backend.h): canonical-name
// handling, the three backend names, and — per backend — the refiner
// contract of RothkoRefiner: the monotone anytime Step(), strict color
// growth, cap truncation, resume-equals-fresh determinism, and
// MemoryBytes accounting the ColoringCache depends on.

#include "qsc/coloring/backend.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qsc/coloring/partition.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/util/random.h"

#include "rothko_corpus.h"

namespace qsc {
namespace {

Graph DenseTestGraph(uint64_t seed = 3, bool directed = true) {
  return testing_corpus::CorpusGraph(seed, directed);
}

std::unique_ptr<RothkoRefiner> Make(const std::string& name, const Graph& g,
                                    const ColoringParams& params = {}) {
  return MakeRefiner(name, g, Partition::Trivial(g.num_nodes()), params);
}

// --- canonical names ------------------------------------------------------

TEST(BackendNameTest, CanonicalizesTrimAndCase) {
  struct Case {
    const char* raw;
    const char* canonical;
  };
  const Case cases[] = {
      {"rothko", "rothko"},
      {"  Rothko  ", "rothko"},
      {"LP-Rounding", "lp-rounding"},
      {"\tbucket\n", "bucket"},
      {"", "rothko"},  // "" means the default backend
      {"a0_b-c9", "a0_b-c9"},
  };
  for (const Case& c : cases) {
    const StatusOr<std::string> got = CanonicalBackendName(c.raw);
    ASSERT_TRUE(got.ok()) << c.raw;
    EXPECT_EQ(*got, c.canonical) << c.raw;
  }
}

TEST(BackendNameTest, RejectsMalformedNames) {
  const std::vector<std::string> bad = {
      "bogus!",         // non-name character
      "-rothko",        // leading dash
      "_rothko",        // leading underscore
      "two words",      // interior whitespace
      "caf\xc3\xa9",    // non-ASCII
      std::string(65, 'a'),  // over the 64-char cap
  };
  for (const std::string& name : bad) {
    const StatusOr<std::string> got = CanonicalBackendName(name);
    ASSERT_FALSE(got.ok()) << name;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// --- the name table ---------------------------------------------------------

TEST(BackendRegistryTest, BuiltinsAreRegistered) {
  EXPECT_TRUE(IsBackendName("rothko"));
  EXPECT_TRUE(IsBackendName("lp-rounding"));
  EXPECT_TRUE(IsBackendName("bucket"));
  EXPECT_TRUE(IsBackendName(kDefaultColoringBackend));
  EXPECT_FALSE(IsBackendName("no-such-backend"));

  const std::vector<std::string> names = BackendNames();
  ASSERT_EQ(names.size(), 3u);
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);  // sorted, unique
  }
}

// --- the refiner contract, per backend ---------------------------------------

class BackendContractTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContractTest,
    ::testing::ValuesIn(BackendNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '_') c = '0';
      }
      return name;
    });

TEST_P(BackendContractTest, InitialErrorDescribesTheInitialPartition) {
  const Graph g = DenseTestGraph();
  const std::unique_ptr<RothkoRefiner> backend = Make(GetParam(), g);
  // A dense random graph is nowhere near stable under the trivial
  // partition, and the backend must report that before the first Step().
  EXPECT_GT(backend->CurrentMaxError(), 0.0);
  EXPECT_EQ(backend->partition().num_colors(), 1);
}

TEST_P(BackendContractTest, UncappedStepsAreMonotoneAndGrowColors) {
  for (const bool directed : {false, true}) {
    const Graph g = DenseTestGraph(5, directed);
    const std::unique_ptr<RothkoRefiner> backend = Make(GetParam(), g);
    double prev_error = backend->CurrentMaxError();
    ColorId prev_colors = backend->partition().num_colors();
    for (int step = 0; step < 25 && backend->Step(); ++step) {
      EXPECT_LE(backend->CurrentMaxError(), prev_error + 1e-9);
      EXPECT_GT(backend->partition().num_colors(), prev_colors);
      prev_error = backend->CurrentMaxError();
      prev_colors = backend->partition().num_colors();
    }
    // The reported error is the real q-error of the current partition.
    EXPECT_NEAR(backend->CurrentMaxError(),
                ComputeQError(g, backend->partition()).max_q, 1e-9);
  }
}

TEST_P(BackendContractTest, ColorCapTruncatesTheContinuation) {
  const Graph g = DenseTestGraph(7);
  const std::unique_ptr<RothkoRefiner> backend = Make(GetParam(), g);
  const ColorId cap = 12;
  EXPECT_TRUE(backend->RefineTo(cap));  // dense: not converged at the cap
  EXPECT_LE(backend->partition().num_colors(), cap);
  EXPECT_EQ(backend->partition().num_colors(), cap);  // dense: cap reached
}

TEST_P(BackendContractTest, ResumeEqualsFresh) {
  // The cache-continuation property: refining to 12 colors and then on to
  // 24 must land on the identical partition as refining straight to 24 —
  // every split is a function of the current partition only.
  for (const bool directed : {false, true}) {
    const Graph g = DenseTestGraph(9, directed);

    const std::unique_ptr<RothkoRefiner> fresh = Make(GetParam(), g);
    fresh->RefineTo(24);

    const std::unique_ptr<RothkoRefiner> resumed = Make(GetParam(), g);
    resumed->RefineTo(12);
    resumed->RefineTo(24);

    ASSERT_EQ(fresh->partition().num_colors(), resumed->partition().num_colors());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(fresh->partition().ColorOf(v), resumed->partition().ColorOf(v));
    }
    EXPECT_EQ(fresh->CurrentMaxError(), resumed->CurrentMaxError());
  }
}

TEST_P(BackendContractTest, QToleranceStopsRefinement) {
  const Graph g = DenseTestGraph(11);
  ColoringParams params;
  const std::unique_ptr<RothkoRefiner> reference = Make(GetParam(), g);
  params.q_tolerance = reference->CurrentMaxError() / 2.0;
  const std::unique_ptr<RothkoRefiner> backend = Make(GetParam(), g, params);
  // No budget stops it first, so RefineTo reports convergence: either the
  // tolerance was met or the partition went fully stable; in both cases
  // the error honors the tolerance.
  EXPECT_FALSE(backend->RefineTo(g.num_nodes() + 1));
  EXPECT_LE(backend->CurrentMaxError(), params.q_tolerance + 1e-9);
}

TEST_P(BackendContractTest, MemoryBytesIsPositiveAndTracksThePartition) {
  const Graph g = DenseTestGraph(13);
  const std::unique_ptr<RothkoRefiner> backend = Make(GetParam(), g);
  const int64_t before = backend->MemoryBytes();
  EXPECT_GT(before, 0);
  for (int step = 0; step < 5 && backend->Step(); ++step) {
  }
  // Accounting covers at least the partition snapshot the backend owns.
  EXPECT_GE(backend->MemoryBytes(), backend->partition().MemoryBytes());
}

TEST(BackendDistinctnessTest, KernelsProduceDistinctColorings) {
  // The three builtins implement genuinely different split rules; on a
  // rough random graph they should not all collapse to the same partition
  // at a mid-range budget. (rothko vs bucket is the sharpest contrast:
  // witness-mean split vs degree median-rank split.)
  const Graph g = DenseTestGraph(2);
  auto color_to = [&g](const std::string& name, ColorId budget) {
    const std::unique_ptr<RothkoRefiner> backend = Make(name, g);
    backend->RefineTo(budget);
    return backend->partition();
  };
  const Partition rothko = color_to("rothko", 16);
  const Partition bucket = color_to("bucket", 16);
  bool differs = rothko.num_colors() != bucket.num_colors();
  for (NodeId v = 0; !differs && v < g.num_nodes(); ++v) {
    differs = rothko.ColorOf(v) != bucket.ColorOf(v);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace qsc
