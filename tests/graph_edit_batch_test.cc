// Graph::WithEdits — the one-pass batch edit — against the frozen
// per-edit reference (graph_edit_reference.h), on every cell of the
// shared property corpus (tests/rothko_corpus.h), directed and
// undirected, under seeded mixed batches that deliberately conflict
// inside one batch: insert then delete the same arc, delete then
// re-insert it, update after an insert, both orientations of one
// undirected edge, and self-loops. Every result must equal edit-by-edit
// application bit for bit — arrays, edge count and the weight
// aggregates — and every invalid batch must fail with the same edit
// index, code and message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph.h"
#include "qsc/util/random.h"

#include "graph_edit_reference.h"
#include "rothko_corpus.h"

namespace qsc {
namespace {

using reference::PerEditGraph;
using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Arrays, counts and every weight aggregate, compared bitwise, plus
// Graph::operator== against a rebuild from the reference's arcs.
void ExpectBitIdentical(const Graph& g, const PerEditGraph& ref,
                        const std::string& where) {
  ASSERT_EQ(g.num_nodes(), ref.num_nodes()) << where;
  ASSERT_EQ(g.num_edges(), ref.num_edges()) << where;
  ASSERT_EQ(g.num_arcs(), static_cast<int64_t>(ref.out_dst().size()))
      << where;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NeighborRange out = g.OutNeighbors(u);
    ASSERT_EQ(out.size(), ref.out_offsets()[u + 1] - ref.out_offsets()[u])
        << where << " out-row " << u;
    for (int64_t i = 0; i < out.size(); ++i) {
      const int64_t at = ref.out_offsets()[u] + i;
      ASSERT_EQ(out[i].node, ref.out_dst()[at]) << where << " out " << u;
      ASSERT_EQ(Bits(out[i].weight), Bits(ref.out_w()[at]))
          << where << " out " << u;
    }
    const NeighborRange in = g.InNeighbors(u);
    ASSERT_EQ(in.size(), ref.in_offsets()[u + 1] - ref.in_offsets()[u])
        << where << " in-row " << u;
    for (int64_t i = 0; i < in.size(); ++i) {
      const int64_t at = ref.in_offsets()[u] + i;
      ASSERT_EQ(in[i].node, ref.in_src()[at]) << where << " in " << u;
      ASSERT_EQ(Bits(in[i].weight), Bits(ref.in_w()[at]))
          << where << " in " << u;
    }
    ASSERT_EQ(Bits(g.OutWeight(u)), Bits(ref.OutWeight(u)))
        << where << " OutWeight(" << u << ")";
    ASSERT_EQ(Bits(g.InWeight(u)), Bits(ref.InWeight(u)))
        << where << " InWeight(" << u << ")";
  }
  ASSERT_EQ(Bits(g.TotalWeight()), Bits(ref.TotalWeight())) << where;
  ASSERT_TRUE(g == Graph::FromArcs(ref.num_nodes(), ref.Arcs(),
                                   ref.undirected()))
      << where;
}

// A nonzero weight whose sums are rounding-sensitive, so any change in
// accumulation order shows in the aggregates' bits.
double RandomWeight(Rng& rng) {
  const double w = rng.UniformDouble(-3.0, 9.0);
  return w == 0.0 ? 0.5 : w;
}

// Builds a batch of about `count` edits, valid when applied in order,
// applying each to `model` as it goes (so `model` ends as the per-edit
// result). Mixes plain inserts/deletes/updates with the in-batch
// conflicts the overlay has to resolve.
std::vector<EdgeEdit> MixedBatch(PerEditGraph* model, Rng& rng,
                                 int64_t count) {
  std::vector<EdgeEdit> batch;
  const NodeId n = model->num_nodes();
  const auto push = [&](EdgeEdit op) {
    Status s;
    switch (op.kind) {
      case EdgeEditKind::kInsertEdge:
        s = model->AddEdge(op.src, op.dst, op.weight);
        break;
      case EdgeEditKind::kDeleteEdge:
        s = model->RemoveEdge(op.src, op.dst);
        break;
      case EdgeEditKind::kUpdateWeight:
        s = model->SetWeight(op.src, op.dst, op.weight);
        break;
    }
    QSC_CHECK(s.ok());
    batch.push_back(op);
  };
  const auto absent_pair = [&](NodeId* u, NodeId* v) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      *u = static_cast<NodeId>(rng.NextBounded(n));
      *v = static_cast<NodeId>(rng.NextBounded(n));
      if (!model->HasArc(*u, *v)) return true;
    }
    return false;
  };
  // An existing arc in a random orientation (undirected graphs store
  // both, so either endpoint order addresses the edge).
  const auto present_arc = [&](NodeId* u, NodeId* v) {
    const std::vector<EdgeTriple> arcs = model->Arcs();
    if (arcs.empty()) return false;
    const EdgeTriple& a = arcs[rng.NextBounded(arcs.size())];
    *u = a.src;
    *v = a.dst;
    return true;
  };
  while (static_cast<int64_t>(batch.size()) < count) {
    NodeId u = 0, v = 0;
    switch (rng.NextBounded(7)) {
      case 0:  // plain insert
        if (absent_pair(&u, &v)) {
          push({EdgeEditKind::kInsertEdge, u, v, RandomWeight(rng)});
        }
        break;
      case 1:  // plain delete
        if (present_arc(&u, &v)) push({EdgeEditKind::kDeleteEdge, u, v, 0.0});
        break;
      case 2:  // plain update
        if (present_arc(&u, &v)) {
          push({EdgeEditKind::kUpdateWeight, u, v, RandomWeight(rng)});
        }
        break;
      case 3:  // insert, then delete the same arc (undirected: addressed
               // through its other orientation)
        if (absent_pair(&u, &v)) {
          push({EdgeEditKind::kInsertEdge, u, v, RandomWeight(rng)});
          if (model->undirected()) {
            push({EdgeEditKind::kDeleteEdge, v, u, 0.0});
          } else {
            push({EdgeEditKind::kDeleteEdge, u, v, 0.0});
          }
        }
        break;
      case 4:  // delete, then re-insert at a new weight
        if (present_arc(&u, &v)) {
          push({EdgeEditKind::kDeleteEdge, u, v, 0.0});
          push({EdgeEditKind::kInsertEdge, u, v, RandomWeight(rng)});
        }
        break;
      case 5:  // insert, then update
        if (absent_pair(&u, &v)) {
          push({EdgeEditKind::kInsertEdge, u, v, RandomWeight(rng)});
          push({EdgeEditKind::kUpdateWeight, u, v, RandomWeight(rng)});
        }
        break;
      case 6: {  // a self-loop: toggle it, or reweight it
        u = static_cast<NodeId>(rng.NextBounded(n));
        if (!model->HasArc(u, u)) {
          push({EdgeEditKind::kInsertEdge, u, u, RandomWeight(rng)});
        } else if (rng.NextBounded(2) == 0) {
          push({EdgeEditKind::kUpdateWeight, u, u, RandomWeight(rng)});
        } else {
          push({EdgeEditKind::kDeleteEdge, u, u, 0.0});
        }
        break;
      }
    }
  }
  return batch;
}

// Three chained mixed batches per corpus cell and batch seed: the
// one-pass batch equals per-edit application after every batch.
TEST(GraphEditBatchTest, CorpusMixedBatchesMatchPerEditReference) {
  for (const uint64_t seed : CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      for (const uint64_t batch_seed : {1u, 2u}) {
        Graph g = CorpusGraph(seed, directed);
        PerEditGraph ref(g);
        Rng rng(seed * 1000 + batch_seed);
        for (int b = 0; b < 3; ++b) {
          const std::string where =
              "seed " + std::to_string(seed) +
              (directed ? " directed" : " undirected") + " batch seed " +
              std::to_string(batch_seed) + " batch " + std::to_string(b);
          const std::vector<EdgeEdit> batch =
              MixedBatch(&ref, rng, 8 + 8 * b);
          size_t failed = 99;
          StatusOr<Graph> edited = g.WithEdits(batch, &failed);
          ASSERT_TRUE(edited.ok()) << where << ": "
                                   << edited.status().ToString();
          EXPECT_EQ(failed, 99u) << where << ": success wrote the index";
          ExpectBitIdentical(*edited, ref, where);
          g = std::move(edited).value();
        }
      }
    }
  }
}

// The single-edge mutators are one-edit batches of the same pass; they
// still match the per-edit reference after every call.
TEST(GraphEditBatchTest, SingleEditMutatorsMatchPerEditReference) {
  for (const uint64_t seed : {1u, 5u, 9u}) {
    for (const bool directed : {false, true}) {
      Graph g = CorpusGraph(seed, directed);
      PerEditGraph model(g);
      Rng rng(seed + 77);
      const std::vector<EdgeEdit> ops = MixedBatch(&model, rng, 24);
      PerEditGraph ref(g);
      for (size_t i = 0; i < ops.size(); ++i) {
        const EdgeEdit& op = ops[i];
        Status got, want;
        switch (op.kind) {
          case EdgeEditKind::kInsertEdge:
            got = g.AddEdge(op.src, op.dst, op.weight);
            want = ref.AddEdge(op.src, op.dst, op.weight);
            break;
          case EdgeEditKind::kDeleteEdge:
            got = g.RemoveEdge(op.src, op.dst);
            want = ref.RemoveEdge(op.src, op.dst);
            break;
          case EdgeEditKind::kUpdateWeight:
            got = g.SetWeight(op.src, op.dst, op.weight);
            want = ref.SetWeight(op.src, op.dst, op.weight);
            break;
        }
        ASSERT_TRUE(got.ok() && want.ok()) << got.ToString();
        ExpectBitIdentical(g, ref,
                           "seed " + std::to_string(seed) + " op " +
                               std::to_string(i));
      }
    }
  }
}

// The hand-written conflicts, spelled out: the batch's net effect on
// the arc arrays can be nothing at all, yet every endpoint's aggregates
// are recomputed exactly as the per-edit path recomputes them.
TEST(GraphEditBatchTest, InBatchConflictsResolveLikePerEdit) {
  for (const bool undirected : {false, true}) {
    const Graph g = Graph::FromEdges(
        5, {{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}, {3, 3, 0.7}}, undirected);
    const std::vector<EdgeEdit> batch = {
        {EdgeEditKind::kInsertEdge, 0, 4, 1.5},    // insert ...
        {EdgeEditKind::kDeleteEdge, 0, 4, 0.0},    // ... then delete
        {EdgeEditKind::kDeleteEdge, 1, 2, 0.0},    // delete ...
        {EdgeEditKind::kInsertEdge, 1, 2, 0.25},   // ... then re-insert
        {EdgeEditKind::kInsertEdge, 4, 2, 2.5},    // insert ...
        {EdgeEditKind::kUpdateWeight, 4, 2, 0.3},  // ... then update
        {EdgeEditKind::kUpdateWeight, 3, 3, 0.9},  // self-loop update
        {EdgeEditKind::kInsertEdge, 4, 4, 1.1},    // self-loop insert
        {EdgeEditKind::kDeleteEdge, 4, 4, 0.0},    // ... and delete
    };
    PerEditGraph ref(g);
    ASSERT_TRUE(ref.Apply(batch).ok());
    const StatusOr<Graph> edited = g.WithEdits(batch);
    ASSERT_TRUE(edited.ok()) << edited.status().ToString();
    ExpectBitIdentical(*edited, ref,
                       undirected ? "undirected" : "directed");
    EXPECT_FALSE(edited->HasArc(0, 4));
    EXPECT_EQ(edited->ArcWeight(1, 2), 0.25);
    EXPECT_EQ(edited->ArcWeight(4, 2), 0.3);
    EXPECT_FALSE(edited->HasArc(4, 4));
  }
}

TEST(GraphEditBatchTest, EmptyBatchIsACopy) {
  const Graph g = CorpusGraph(4, /*directed=*/true);
  const StatusOr<Graph> edited = g.WithEdits({});
  ASSERT_TRUE(edited.ok());
  ExpectBitIdentical(*edited, PerEditGraph(g), "empty batch");
}

// An invalid edit spliced into a valid batch — including ones only the
// batch's own earlier edits make invalid — fails ApplyEditBatch with the
// per-edit loop's exact index, code and message, and leaves the input
// graph alone.
TEST(GraphEditBatchTest, InvalidBatchesFailLikePerEditReference) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const uint64_t seed : {2u, 7u, 12u}) {
    for (const bool directed : {false, true}) {
      const Graph g = CorpusGraph(seed, directed);
      Rng rng(seed * 31);
      for (int trial = 0; trial < 12; ++trial) {
        PerEditGraph model(g);
        std::vector<EdgeEdit> batch = MixedBatch(&model, rng, 10);
        const size_t at = rng.NextBounded(batch.size() + 1);
        const EdgeEdit& prev = batch[at == 0 ? 0 : at - 1];
        EdgeEdit bad;
        switch (trial % 8) {
          case 0:  // insert twice: the second always fails
            bad = {EdgeEditKind::kInsertEdge, prev.src, prev.dst, 1.0};
            batch.insert(batch.begin() + at, bad);
            break;
          case 1:  // delete twice: the second always fails
            bad = {EdgeEditKind::kDeleteEdge, prev.src, prev.dst, 0.0};
            batch.insert(batch.begin() + at, bad);
            break;
          case 2:
            bad = {EdgeEditKind::kUpdateWeight, prev.src, prev.dst, 0.0};
            break;
          case 3:
            bad = {EdgeEditKind::kInsertEdge, 0, g.num_nodes(), 1.0};
            break;
          case 4:
            bad = {EdgeEditKind::kUpdateWeight, -1, 0, 1.0};
            break;
          case 5:
            bad = {EdgeEditKind::kInsertEdge, 1, 2, kNaN};
            break;
          case 6:
            bad = {static_cast<EdgeEditKind>(7), 1, 2, 1.0};
            break;
          case 7:
            bad = {EdgeEditKind::kDeleteEdge, 3, g.num_nodes() + 5, 0.0};
            break;
        }
        batch.insert(batch.begin() + at, bad);

        PerEditGraph ref(g);
        const Status want = ref.Apply(batch);
        ASSERT_FALSE(want.ok()) << "trial " << trial;
        const Graph before = g;
        const StatusOr<Graph> got = dynamic::ApplyEditBatch(g, batch);
        ASSERT_FALSE(got.ok()) << "trial " << trial;
        EXPECT_EQ(got.status().code(), want.code()) << "trial " << trial;
        EXPECT_EQ(got.status().message(), want.message())
            << "trial " << trial;
        EXPECT_TRUE(g == before);

        size_t failed = 0;
        EXPECT_FALSE(g.WithEdits(batch, &failed).ok());
        EXPECT_EQ(want.message().rfind(
                      "edit " + std::to_string(failed) + " (", 0),
                  0u)
            << "trial " << trial << ": index " << failed << " vs "
            << want.message();
      }
    }
  }
}

}  // namespace
}  // namespace qsc
