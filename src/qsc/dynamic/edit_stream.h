// The edit model for dynamic graphs (ROADMAP item 2, docs/DYNAMIC.md):
// a small vocabulary of single-edge edits, all-or-nothing batch
// application through Graph::WithEdits, and seeded deterministic
// edit-stream generators.
//
// The generators are the churn counterpart of graph/perturb: the
// single-kind GenerateEdits draws exactly like AddRandomEdges /
// RemoveRandomEdges (same present-set rejection loop, same partial
// Fisher-Yates), so applying an insert-only or delete-only batch
// reproduces the perturbed graph bit for bit. GenerateEditBatches adds a
// mixed-kind stream whose batches stay valid against the evolving graph.
// Everything is a pure function of (graph, options/seed).

#ifndef QSC_DYNAMIC_EDIT_STREAM_H_
#define QSC_DYNAMIC_EDIT_STREAM_H_

#include <cstdint>
#include <vector>

#include "qsc/graph/graph.h"
#include "qsc/util/status.h"

namespace qsc {
namespace dynamic {

// The single-edge edit vocabulary is Graph's (qsc/graph/graph.h): an
// EditOp is a qsc::EdgeEdit, so a batch reaches Graph::WithEdits as is.
using EditKind = EdgeEditKind;
using EditOp = EdgeEdit;
inline constexpr int kNumEditKinds = 3;

// "insert" | "delete" | "update" (also the qsc-trace v2 wire names).
const char* EditKindName(EditKind kind);

// Applies `edits` in order to a copy of `g` and returns the mutated
// graph; `g` itself is never modified. One pass (Graph::WithEdits): the
// edits are validated in order, then merged into fresh CSR arrays at
// O(n + m + k log k) for the whole batch. All-or-nothing: the first
// invalid edit (duplicate insert, absent delete/update, bad endpoint or
// weight) fails the whole batch with the Graph edit status code and a
// message naming the offending edit.
StatusOr<Graph> ApplyEditBatch(const Graph& g, const std::vector<EditOp>& edits);

// One seeded batch of `count` edits of a single kind, valid against `g`
// when applied in order: inserts are distinct absent non-loop pairs
// (weight 1, drawn exactly like AddRandomEdges), deletes are distinct
// existing edges (drawn exactly like RemoveRandomEdges), updates
// re-weight existing edges with integer weights in [1, 8]. Rejects
// counts the graph cannot satisfy (more deletes than edges, more inserts
// than absent pairs, updates on an edgeless graph).
StatusOr<std::vector<EditOp>> GenerateEdits(const Graph& g, EditKind kind,
                                            int64_t count, uint64_t seed);

// A seeded mixed-kind stream: `num_batches` batches of `edits_per_batch`
// edits, each batch valid against the graph produced by applying the
// previous batches. Kinds are drawn per edit from the relative weights;
// a kind that is infeasible in the current state (delete/update with no
// edges, insert with every pair present) falls through to the first
// feasible kind in insert -> delete -> update order.
struct EditStreamOptions {
  uint64_t seed = 1;
  int64_t num_batches = 4;
  int64_t edits_per_batch = 8;

  // Relative kind odds; each must be >= 0 and they must not all be 0.
  double insert_weight = 1.0;
  double delete_weight = 1.0;
  double update_weight = 1.0;

  // Inserted / updated weights are integers drawn from this range
  // (1 <= min <= max keeps them valid arc weights).
  int64_t min_weight = 1;
  int64_t max_weight = 8;
};

StatusOr<std::vector<std::vector<EditOp>>> GenerateEditBatches(
    const Graph& g, const EditStreamOptions& options);

}  // namespace dynamic
}  // namespace qsc

#endif  // QSC_DYNAMIC_EDIT_STREAM_H_
