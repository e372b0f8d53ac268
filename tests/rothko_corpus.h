// The shared 56-graph Rothko property corpus: 14 fixed seeds x
// {directed, undirected} x {arithmetic, geometric} split means. Both the
// anytime property sweep (coloring_rothko_property_test.cc) and the
// old-vs-new equivalence test (coloring_rothko_equivalence_test.cc) draw
// their instances from here, so "the property corpus" means the same 56
// (graph, options) pairs everywhere. The equivalence tests also start each
// corpus point from every CorpusStart partition.

#ifndef QSC_TESTS_ROTHKO_CORPUS_H_
#define QSC_TESTS_ROTHKO_CORPUS_H_

#include <cstdint>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/util/random.h"

namespace qsc {
namespace testing_corpus {

// Random directed multigraph with integer weights in [1, 8]; duplicates
// coalesce, so some arcs end up heavier — a rougher degree profile than
// ErdosRenyiGnm gives.
inline Graph RandomDirectedGraph(NodeId num_nodes, int64_t num_arcs,
                                 Rng& rng) {
  std::vector<EdgeTriple> arcs;
  arcs.reserve(num_arcs);
  for (int64_t i = 0; i < num_arcs; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    arcs.push_back({u, v, static_cast<double>(rng.UniformInt(1, 8))});
  }
  return Graph::FromEdges(num_nodes, arcs, /*undirected=*/false);
}

// The corpus instance for one (seed, directedness) cell: 60 nodes, density
// high enough that the trivial partition is never stable.
inline Graph CorpusGraph(uint64_t seed, bool directed) {
  Rng rng(seed);
  return directed ? RandomDirectedGraph(60, 240, rng)
                  : ErdosRenyiGnm(60, 180, rng);
}

inline std::vector<uint64_t> CorpusSeeds() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
}

// The partitions a refinement starts from, in the shapes ColoringCache
// builds them (InitialPartition): the trivial one; a max-flow spec's, with
// the source (node 0) and sink (the last node) pinned as singletons and the
// rest in one color; and a three-color base partition with no pins, as a
// cache over an LP's extended-matrix graph starts from.
enum class CorpusStart { kTrivial, kPinned, kStriped };

inline std::vector<CorpusStart> CorpusStarts() {
  return {CorpusStart::kTrivial, CorpusStart::kPinned, CorpusStart::kStriped};
}

inline Partition CorpusStartPartition(CorpusStart start, NodeId num_nodes) {
  std::vector<int32_t> labels(num_nodes, 0);
  switch (start) {
    case CorpusStart::kTrivial:
      break;
    case CorpusStart::kPinned:
      for (NodeId v = 1; v + 1 < num_nodes; ++v) labels[v] = 2;
      labels[num_nodes - 1] = 1;
      break;
    case CorpusStart::kStriped:
      for (NodeId v = 0; v < num_nodes; ++v) labels[v] = v % 3;
      break;
  }
  return Partition::FromColorIds(labels);
}

inline const char* CorpusStartName(CorpusStart start) {
  switch (start) {
    case CorpusStart::kTrivial:
      return "trivial";
    case CorpusStart::kPinned:
      return "pinned";
    case CorpusStart::kStriped:
      return "striped";
  }
  return "unknown";
}

}  // namespace testing_corpus
}  // namespace qsc

#endif  // QSC_TESTS_ROTHKO_CORPUS_H_
