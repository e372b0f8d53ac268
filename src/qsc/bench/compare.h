// Baseline comparison for the CI benchmark gate: parse two BENCH_*.json
// documents (a committed baseline and a fresh run) and flag regressions.
//
// The comparison mirrors the report's determinism split (report.h):
// "params" and "counters" must match the baseline to within a hair
// (1e-9 relative — bitwise in practice, with headroom for 1-ulp libm
// differences across toolchains); a drift means the scenario now does
// different work, which is either a bug or a change that must be
// accompanied by a baseline update. Timings are compared within a
// generous noise tolerance (default: fail only when the median slows
// down by more than 2x), and medians below a floor are skipped entirely,
// so shared-runner jitter cannot flake the gate.

#ifndef QSC_BENCH_COMPARE_H_
#define QSC_BENCH_COMPARE_H_

#include <string>
#include <vector>

#include "qsc/util/json.h"

namespace qsc {
namespace bench {

struct CompareOptions {
  // A timing violation requires current_median > max_slowdown *
  // baseline_median.
  double max_slowdown = 2.0;
  // Baseline medians below this many seconds are too noisy to gate on and
  // are skipped.
  double min_median_seconds = 0.01;
  // Counter-identity mode (qsc_bench --compare-counters): compare only
  // params and counters — timings and the timing floor are ignored — and
  // require the two documents to contain exactly the same scenario set.
  // Used by CI to pin that a --threads N run reproduces the 1-thread
  // counters bit for bit.
  bool counters_only = false;
  // Relative tolerance for params/counters comparisons. Bitwise equality
  // in practice — a fixed seed reproduces identical doubles on one
  // machine — but libm functions (std::pow in the refiner's priorities)
  // are not correctly rounded, so baselines recorded under one
  // glibc/compiler can drift by ~1 ulp (~1e-16 relative) under another.
  // Real behavior changes move counters by far more than this.
  double counter_rel_tolerance = 1e-9;
};

struct CompareViolation {
  std::string scenario;  // empty for document-level violations
  std::string detail;
};

struct CompareReport {
  std::vector<CompareViolation> violations;
  std::vector<std::string> notes;  // informational (new scenarios, skips)
  int compared = 0;                // scenarios checked

  bool ok() const { return violations.empty(); }
};

// Compares `current` against `baseline` (both parsed BENCH_*.json docs).
CompareReport CompareBenchReports(const JsonValue& baseline,
                                  const JsonValue& current,
                                  const CompareOptions& options);

}  // namespace bench
}  // namespace qsc

#endif  // QSC_BENCH_COMPARE_H_
