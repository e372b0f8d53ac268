// Incremental recoloring under graph edits (ROADMAP item 2; Slim Graph's
// evolving-analytics case for lossy compression, PAPERS.md).
//
// On an edit batch the witness rows of the colors touched by the edits
// are stale. Instead of discarding the partition, TryRepair builds the
// backend's refiner over the mutated graph *from the current partition*
// (witness rows re-derive against the new adjacency; prior splits are
// kept) and re-splits until the spec's q-tolerance is restored, under a
// repair split budget. Splits concentrate where the edits raised the
// error — that is the locality of the repair path.
//
// Repair/fallback contract (docs/DYNAMIC.md; the differential oracle in
// eval/differential.h gates it at zero tolerance):
//
//   - A spec is repairable iff q_tolerance > 0: the tolerance is the
//     certificate a local repair can restore. A repaired coloring
//     satisfies CurrentMaxError() <= q_tolerance on the mutated graph, so
//     every budget served from it meets the same q-error bound a
//     from-scratch coloring meets.
//   - q_tolerance == 0 specs ("refine to the color budget") and repairs
//     that exceed the split budget or stall fall back: the caller rebuilds
//     the refiner from the spec's initial partition on the mutated graph,
//     so subsequent refinement is bit-identical to a from-scratch run (the
//     determinism contract of RothkoRefiner).
//
// Either way the monotone q-error contract holds between edits, and the
// served coloring is never worse than max(q_tolerance, scratch error).

#ifndef QSC_DYNAMIC_INCREMENTAL_H_
#define QSC_DYNAMIC_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph_view.h"

namespace qsc {
namespace dynamic {

struct RepairOptions {
  // Maximum splits one repair may spend before the edit batch is declared
  // too disruptive and the caller falls back to scratch. The budget is
  // checked between refiner steps, so the final step may overshoot by its
  // own error-recovery splits. 0 means "no repair work": any batch that
  // leaves the error above tolerance falls back.
  int64_t max_repair_splits = 256;
};

struct RepairOutcome {
  // True when the partition was repaired (error back under the spec
  // tolerance); false when the caller must fall back to the initial
  // partition for a from-scratch recoloring.
  bool repaired = false;
  // Splits the repair spent (0 on fallback).
  int64_t splits = 0;
  // True when the refiner converged during the repair (a converged entry
  // stays converged until the next edit).
  bool converged = false;
};

// Tries to repair `current`, a coloring of the pre-edit graph, over the
// already-mutated graph `g` with the canonical backend `backend` and the
// spec's `params`, per the contract above. Returns the repaired refiner
// over `g`, or null when the caller must fall back; `outcome` (not null)
// reports which, and the splits spent.
std::unique_ptr<RothkoRefiner> TryRepair(const std::string& backend,
                                         const GraphView& g,
                                         const Partition& current,
                                         const ColoringParams& params,
                                         const RepairOptions& options,
                                         RepairOutcome* outcome);

}  // namespace dynamic
}  // namespace qsc

#endif  // QSC_DYNAMIC_INCREMENTAL_H_
