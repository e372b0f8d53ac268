// The Rothko algorithm (paper Algorithm 1): heuristic computation of a
// quasi-stable coloring by iterated witness splits.
//
// Starting from a coarse partition, each step finds the witness — the
// ordered color pair (P_i, P_j) and direction with the largest
// size-weighted degree spread — and splits the offending color at the mean
// degree. The process is *anytime*: it can be stopped after any step and
// still yields a valid coloring whose q-error only improves with more
// steps.
//
// Directed graphs consider both directions of Definition 1: an
// out-direction witness splits the source color by out-weight toward the
// target; an in-direction witness splits the target color by in-weight from
// the source. For undirected graphs the two coincide and only the
// out-direction is tracked.
//
// The implementation is incremental: per-node sparse color-weight maps and
// per-pair max/min aggregates are updated on each split (cost proportional
// to the split color's volume), and witnesses are found through lazy
// max-heaps, so building a k-color refinement does not rescan the graph k
// times.
//
// This engine drives every compression backend (coloring/backend.h). What
// differs between backends is only the split rule: given the worst
// witness, which members move into the new color. Rothko's rule cuts at
// the witness mean; lp-rounding (lp_rounding.h) and bucket (bucket.h)
// plug their own rules into the same witness table, heaps and monotone
// step.

#ifndef QSC_COLORING_ROTHKO_H_
#define QSC_COLORING_ROTHKO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/graph/graph_view.h"

namespace qsc {

// The shared knobs (alpha, beta, q_tolerance, split_mean) live in
// ColoringParams (coloring/params.h) so every backend consumes the same
// struct; RothkoOptions adds only the Rothko-specific stopping rule.
//
// Refinement is sequential (Algorithm 1 is one split after another); a
// refiner is not thread-safe, so concurrent Step() calls require external
// serialization. Parallelism lives a level up, across queries
// (api/compressor.h).
struct RothkoOptions : ColoringParams {
  // Pre-registry spelling of the split-threshold rule; the enumerators are
  // the namespace-scope qsc::SplitMean ones.
  using SplitMean = qsc::SplitMean;

  // Stop once the partition reaches this many colors (n in Algorithm 1).
  ColorId max_colors = 64;
};

// Telemetry for one split, recorded for the responsiveness study (paper
// Table 6).
struct RothkoStep {
  ColorId split_color;     // color that was split
  ColorId new_color;       // id of the newly created color
  double witness_error;    // unweighted q-error of the chosen witness
  ColorId num_colors;      // colors after the split
  double elapsed_seconds;  // since refiner construction
};

// The worst witness, as a split rule sees it.
struct SplitWitness {
  ColorId split_color;  // the color to split (>= 2 members)
  ColorId other_color;  // the witness pair's other end
  // True: weights are out-weights of the members into other_color;
  // false: in-weights from other_color (directed graphs only).
  bool out_direction;
  const std::vector<NodeId>& members;  // Members(split_color)
  // Witness weight of every member, aligned with `members`; a member
  // without an arc toward other_color weighs 0.
  const std::vector<double>& weights;
  double lo;  // min of `weights`; some weight is larger
};

// The per-backend half of a witness split: which members leave.
class SplitRule {
 public:
  // How witnesses of equal size-weighted score are ranked. A constant of
  // each backend, never an option: it fixes the split sequence.
  enum class Ranking {
    // Rothko's: the lowest (source, target, direction) wins a tie, and a
    // pair's size weight is refreshed when its own aggregate changes.
    kRothko,
    // The order lp-rounding and bucket were defined with: the lowest
    // (direction, split color, other color) wins a tie, and every pair's
    // size weight follows the current color sizes.
    kScan,
  };

  virtual ~SplitRule() = default;

  virtual Ranking ranking() const = 0;

  // Appends the members to move into the new color to `eject`. Any
  // subset is accepted: the engine sorts and deduplicates it, and turns
  // an empty or full answer into the single max-weight member (lowest
  // node id among ties), so a rule only needs to be deterministic.
  virtual void ChooseEject(const SplitWitness& witness,
                           std::vector<NodeId>* eject) = 0;

  // Heap bytes the rule holds (tables, scratch), for MemoryBytes().
  virtual int64_t MemoryBytes() const = 0;
};

// Incremental refiner; use RothkoColoring() unless you need the anytime /
// co-routine interface. MakeRefiner (coloring/backend.h) builds one per
// backend name: `rothko` with the mean cut, `lp-rounding` and `bucket`
// with their split rules.
//
// The anytime contract the session-level ColoringCache relies on:
//
//   1. Monotone Step(): each call performs at least one witness split and
//      CurrentMaxError() never increases across uncapped calls; Step
//      returns false (leaving the partition unchanged) only when the
//      coloring converged (max error <= q_tolerance, or no splittable
//      color remains).
//   2. Determinism: the split sequence is a function of (graph, current
//      partition, options, rule) only — independent of wall clock and of
//      how Step() calls were batched. This is what makes a budget-B
//      continuation of a cached instance bit-identical to a fresh run at
//      budget B, the ColoringCache resume guarantee.
//   3. partition() snapshots are valid partitions of the graph's node set
//      and refine monotonically (colors only split, never merge), so
//      pinned singletons stay pinned.
//   4. MemoryBytes() approximates the live heap footprint for the
//      byte-budgeted cache's eviction accounting.
//
// The refiner reads the graph through a non-owning GraphView: whoever
// holds it keeps the viewed storage alive for the refiner's lifetime.
class RothkoRefiner {
 public:
  // Splits by Rothko's rule: at the witness mean (options.split_mean),
  // or strictly above the minimum when the mean rounds onto an extreme.
  RothkoRefiner(const GraphView& g, Partition initial, RothkoOptions options);
  RothkoRefiner(const GraphView& g, Partition initial, RothkoOptions options,
                std::unique_ptr<SplitRule> rule);
  ~RothkoRefiner();

  RothkoRefiner(const RothkoRefiner&) = delete;
  RothkoRefiner& operator=(const RothkoRefiner&) = delete;

  // Performs one *monotone* refinement step. Returns false (and leaves the
  // partition unchanged) when converged: the maximum q-error is <=
  // q_tolerance, or no splittable color remains.
  //
  // A step begins with the witness split of Algorithm 1. A single split can
  // transiently *raise* the maximum q-error — splitting a color P_k also
  // splits every neighbor's witness weight w(v, P_k) into two components
  // whose spreads are not bounded by the old spread — so the step keeps
  // splitting the new worst witness until the maximum q-error is back at or
  // below its pre-step value. This makes the anytime guarantee exact:
  // CurrentMaxError() never increases across Step() calls.
  //
  // `color_cap` (0 = unlimited) bounds the monotone continuation: once the
  // partition reaches `color_cap` colors the step stops even if the error
  // has not yet recovered. At least one split is always performed. Ignores
  // options.max_colors; the caller owns that stopping rule.
  bool Step(ColorId color_cap = 0);

  // The anytime loop: Step(budget) until the partition holds `budget`
  // colors. Returns false once Step reports convergence (larger budgets
  // cannot advance the coloring either); a budget at or below the current
  // color count performs no split.
  bool RefineTo(ColorId budget);

  // RefineTo(options.max_colors).
  void Run();

  const Partition& partition() const;

  // Maximum unweighted q-error of the current coloring, both directions.
  double CurrentMaxError() const;

  const std::vector<RothkoStep>& history() const;

  // Approximate heap footprint of the live refiner (degree rows, pair
  // aggregates, witness heaps, scratch, history, split rule), in bytes.
  // Capacities are counted where accessible, element counts where not
  // (the heaps), so the number is a close lower bound on the allocator's
  // view. Used by the byte-budgeted ColoringCache to decide eviction.
  int64_t MemoryBytes() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience wrappers: refine from `initial` (or the trivial partition)
// until max_colors / q_tolerance.
Partition RothkoColoring(const GraphView& g, Partition initial,
                         const RothkoOptions& options);
Partition RothkoColoring(const GraphView& g, const RothkoOptions& options);

}  // namespace qsc

#endif  // QSC_COLORING_ROTHKO_H_
