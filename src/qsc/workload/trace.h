// Seeded workload traces for the service-style load harness
// (docs/SERVING.md). A trace is a finite sequence of query arrival events
// against one qsc::Compressor session — what a serving deployment of the
// paper's compress-once/query-many model would see. Everything is
// deterministic: a generator is a pure function of its TraceGenOptions
// (all randomness flows through qsc::Rng), and a trace round-trips through
// the text format bit-identically, so a saved trace replays the exact
// workload on any platform.
//
// Generators are registered by name ("poisson-zipf-mixed",
// "bursty-zipf-mixed") behind the single TraceSource::Next() pull API, so
// the load runner, the serving benchmarks, and the tests all consume
// traces the same way regardless of origin (generator or parsed file).
//
// Text format (one event per line; blank lines and '#' comment lines are
// ignored):
//
//   qsc-trace v1
//   <arrival_seconds> <kind> <budget> <spec> <batch>
//
// with <kind> one of coloring | maxflow | maxflow-batch | solvelp |
// centrality, <arrival_seconds> a non-decreasing finite double rendered in
// shortest round-trip form (JsonNumber), <budget> a positive color
// budget, <spec> a non-negative spec index, and <batch> a batch size >= 1
// (meaningful for maxflow-batch, fixed at 1 otherwise). ParseTrace rejects
// malformed input with a line-numbered InvalidArgument and never aborts —
// tests/workload_trace_test.cc fuzzes truncations and mutations.
//
// Version 2 (docs/DYNAMIC.md) adds graph-edit events to the same 5-field
// line under the header `qsc-trace v2`: <kind> may additionally be
// insert | delete | update, in which case <budget> is the number of
// single-edge edits in the batch (>= 1) and <spec> is the edit-stream
// salt the replayer mixes into its seed. ParseTrace accepts both headers;
// an edit event under the v1 header is a line-numbered error, and
// FormatTrace emits the v2 header exactly when the events contain an edit
// — a pure-query trace always serializes as v1, byte-identical to before.

#ifndef QSC_WORKLOAD_TRACE_H_
#define QSC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/util/status.h"

namespace qsc {
namespace workload {

// The event kinds a trace line can carry. The first five are queries,
// matching the Compressor surface (kMaxFlowBatch issues one MaxFlowBatch
// call of `batch_size` terminal pairs — the service-side amortization
// path); the last three are qsc-trace v2 graph-edit events, replayed
// through Compressor::ApplyEdits.
enum class QueryKind {
  kColoring = 0,
  kMaxFlow,
  kMaxFlowBatch,
  kSolveLp,
  kCentrality,
  kInsertEdge,    // v2: batch of edge insertions
  kDeleteEdge,    // v2: batch of edge deletions
  kUpdateWeight,  // v2: batch of weight updates
};
// Query kinds only — per-kind counters/checksum arrays are sized by this,
// so the v2 edit kinds deliberately do not extend it.
inline constexpr int kNumQueryKinds = 5;
// All trace event kinds, queries plus edits.
inline constexpr int kNumTraceEventKinds = 8;

// True for the v2 edit-event kinds.
inline constexpr bool IsEditEvent(QueryKind kind) {
  return static_cast<int>(kind) >= kNumQueryKinds;
}

// Stable wire name of a kind ("coloring", "maxflow", ..., "insert", ...).
const char* QueryKindName(QueryKind kind);

// One arrival in a workload trace. `spec_index` selects a query spec from
// the harness's universe (a pin set / LP instance / parameter bundle —
// the trace layer only guarantees determinism of the index); `budget` is
// the color budget the query runs at. For the v2 edit events the same
// fields are reinterpreted: `budget` is the number of single-edge edits
// in the batch and `spec_index` the edit-stream salt.
struct TraceEvent {
  double arrival_seconds = 0.0;  // offset from trace start; non-decreasing
  QueryKind kind = QueryKind::kColoring;
  ColorId budget = 1;
  int32_t spec_index = 0;  // >= 0
  int32_t batch_size = 1;  // >= 1; > 1 only meaningful for kMaxFlowBatch

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.arrival_seconds == b.arrival_seconds && a.kind == b.kind &&
           a.budget == b.budget && a.spec_index == b.spec_index &&
           a.batch_size == b.batch_size;
  }
  friend bool operator!=(const TraceEvent& a, const TraceEvent& b) {
    return !(a == b);
  }
};

// Knobs shared by the built-in generators. Defaults give a small mixed
// open-loop workload suitable for tests; the serving benchmarks scale
// them up.
struct TraceGenOptions {
  uint64_t seed = 1;
  int64_t num_events = 256;

  // Spec universe: spec_index is Zipf(s)-distributed over
  // [0, num_specs) — rank 1 the hottest — so a few specs dominate, which
  // is what makes the coloring cache (and its eviction policy) earn its
  // keep.
  int32_t num_specs = 8;
  double zipf_s = 1.0;

  // Interarrival model. "poisson-zipf-mixed": exponential interarrivals
  // with this mean. "bursty-zipf-mixed": on/off bursts — within a burst
  // of `burst_length` events, interarrivals shrink by `burst_speedup`;
  // between bursts one idle gap of `idle_gap_seconds` mean is inserted.
  double mean_interarrival_seconds = 1e-3;
  int32_t burst_length = 16;
  double burst_speedup = 8.0;
  double idle_gap_seconds = 0.05;

  // Color budgets cycled through per spec (ascending sweeps are the
  // anytime-friendly direction; the mix still produces down-budget
  // requests when a hot spec is revisited at a lower rung).
  std::vector<ColorId> budgets = {8, 16, 32, 64};

  // Relative weight of each QueryKind, indexed by the enum order
  // (coloring, maxflow, maxflow-batch, solvelp, centrality). Zero
  // disables a kind; at least one weight must be positive.
  std::vector<double> kind_weights = {4.0, 3.0, 1.0, 1.0, 1.0};

  // Terminal pairs per kMaxFlowBatch event.
  int32_t batch_size = 4;

  // Edit-event cadence (qsc-trace v2): 0 disables edits (the default —
  // generator output is then byte-identical to the v1 format); k > 0
  // makes every (k+1)-th event an edit batch. Edit kinds cycle
  // insert -> delete -> update; the event's spec column carries a
  // running edit counter (the replayer's per-batch salt) and its budget
  // column carries `edits_per_batch`. Edit events consume only the
  // interarrival draw, so the query subsequence of an edited trace is
  // unchanged from the same options with edits off.
  int32_t edit_interval = 0;
  int32_t edits_per_batch = 4;
};

// Pull-based event stream. Next() fills `*event` and returns true, or
// returns false at end of trace (idempotent thereafter). Implementations
// are single-threaded; the LoadRunner drains a source once up front.
class TraceSource {
 public:
  virtual ~TraceSource();
  virtual bool Next(TraceEvent* event) = 0;
};

// Names of the registered generators, sorted.
std::vector<std::string> TraceGeneratorNames();

// Instantiates the named generator over `options`, validating both.
// Unknown names yield NotFound; invalid options InvalidArgument.
StatusOr<std::unique_ptr<TraceSource>> MakeTraceSource(
    const std::string& name, const TraceGenOptions& options);

// A TraceSource that replays an in-memory event sequence verbatim.
std::unique_ptr<TraceSource> ReplayTraceSource(std::vector<TraceEvent> events);

// Pulls `source` to exhaustion.
std::vector<TraceEvent> DrainTrace(TraceSource& source);

// Serializes events in the text format above. FormatTrace(ParseTrace(s))
// == s for any s FormatTrace produced (doubles render in shortest
// round-trip form), and ParseTrace(FormatTrace(e)) == e element-wise.
std::string FormatTrace(const std::vector<TraceEvent>& events);

// Parses the text format; see the file comment for the accepted grammar
// and the error contract (line-numbered InvalidArgument, never a crash).
StatusOr<std::vector<TraceEvent>> ParseTrace(std::string_view text);

}  // namespace workload
}  // namespace qsc

#endif  // QSC_WORKLOAD_TRACE_H_
