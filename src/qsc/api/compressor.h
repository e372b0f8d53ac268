// qsc::Compressor — the compress-once, query-many session API
// (docs/API.md). The paper's value proposition is amortization: compute
// one quasi-stable coloring, then answer many max-flow / LP / centrality
// queries from the compressed representation. A Compressor owns the graph
// and a ColoringCache of live anytime refiners, so repeated queries that
// agree on their ColoringSpec (pins, alpha/beta, split rule, tolerance)
// share one coloring, and a request for more colors *continues* the cached
// refinement instead of recomputing — bit-identical to a fresh run.
//
// All queries validate their options and return StatusOr. A one-shot query
// is a fresh session: construct, query once, destroy.
//
// Thread-safety (docs/API.md "Concurrency contract"): all queries and
// stats() may be called concurrently from any number of threads. Each
// coloring cache — the session graph's and one per distinct SolveLp LP —
// serializes per ColoringSpec (distinct specs and LPs refine in
// parallel), and every query
// result is bit-identical to the same query issued against a
// single-threaded session — concurrency changes wall-clock time and the
// hit/recoloring *attribution* of racing queries, never a result.
// Construction, move, and destruction are not thread-safe; publish the
// session to worker threads with the usual happens-before edge.
//
// Dynamic graphs (docs/DYNAMIC.md): ApplyEdits mutates the session graph
// in place and repairs the cached colorings instead of discarding them.
// It takes the session's writer lock while queries hold it shared, so
// edits serialize against queries (each query runs wholly on one graph
// version, stamped into its telemetry) and ApplyEdits may race queries
// safely — every result equals the same query issued before or after the
// batch. The reference from graph() is only stable until the next
// ApplyEdits; capture what you need, not the reference, across edits.
//
// Constructed with a ThreadPool, the session also parallelizes across the
// independent parts of a query: MaxFlowBatch fans its pairs out and
// Centrality runs its pivot passes on the pool, again with bit-identical
// results for any pool size (the deterministic ordered-commit primitives
// of qsc/parallel). Refinement itself is sequential; distinct specs in
// one batch refine concurrently, each on its own pool worker.

#ifndef QSC_API_COMPRESSOR_H_
#define QSC_API_COMPRESSOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/coloring_cache.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/status.h"

namespace qsc {

// Per-query knobs, uniform across the four query kinds; fields that do not
// apply to a query are ignored by it (and documented below). Validated at
// the Compressor boundary: invalid values yield Status::InvalidArgument,
// never a QSC_CHECK abort.
struct QueryOptions {
  // Color budget for the coloring this query runs on. Queries at a larger
  // budget than a cached coloring continue its refinement (anytime
  // property); smaller budgets recompute once and are memoized.
  ColorId max_colors = 64;

  // Stop refining once the max q-error reaches this bound (0 = refine to
  // the budget). Part of the coloring cache key.
  double q_tolerance = 0.0;

  // Witness weighting exponents. Unset means the area's paper default:
  // alpha = beta = 0 for Coloring/MaxFlow, alpha = 1, beta = 0 for
  // SolveLp, alpha = beta = 1 for Centrality (paper Sec 5.2).
  std::optional<double> alpha;
  std::optional<double> beta;

  RothkoOptions::SplitMean split_mean = RothkoOptions::SplitMean::kArithmetic;

  // Compression backend that produces the coloring (coloring/backend.h):
  // "rothko", "lp-rounding" or "bucket". "" means
  // kDefaultColoringBackend. Names are canonicalized (trimmed, lowercased)
  // at the boundary and become part of the coloring cache key; a malformed
  // name yields InvalidArgument, a well-formed but unknown one NotFound. Applies to all four query kinds (SolveLp colors the LP's
  // matrix graph with it).
  std::string backend;

  // Extra nodes to pin into singleton colors (Coloring and Centrality
  // queries only; MaxFlow pins its terminals itself and SolveLp pins the
  // objective row / rhs column internally — both reject explicit pins).
  std::vector<NodeId> pinned;

  // MaxFlow only: also compute the Theorem-6 lower bound (one maxUFlow
  // bisection per color pair; advisable on small graphs only).
  bool compute_lower_bound = false;
  double uniform_flow_tol = 1e-6;

  // SolveLp only: reduction variant (paper Eq. 6 or Grohe et al. [16]).
  LpReduction lp_variant = LpReduction::kSqrtNormalized;

  // Centrality only: pivots sampled per color and the sampling seed.
  int32_t pivots_per_color = 1;
  uint64_t seed = 17;
};

// Per-query amortization telemetry.
struct QueryTelemetry {
  // The coloring was served from the session cache (possibly after
  // continuing its refinement). False on the first query of a spec and on
  // down-budget recomputes.
  bool coloring_cache_hit = false;
  // Witness splits this query performed (0 = pure cache hit).
  int64_t coloring_splits = 0;
  // Incremental wall-clock cost of obtaining the coloring for this query —
  // near zero on a cache hit — and of the solve that followed.
  double coloring_seconds = 0.0;
  double solve_seconds = 0.0;
  // Session graph version this query ran against: 0 for the construction
  // graph, +1 per ApplyEdits batch. A query's coloring and solve always
  // share one version (the session lock).
  int64_t graph_version = 0;
};

// Result of Compressor::Coloring.
struct ColoringResult {
  // Shared immutable snapshot; never copied per query. Queries that agree
  // on spec and budget return the same pointer.
  std::shared_ptr<const Partition> coloring;
  double max_q = 0.0;  // max unweighted q-error, both directions
  QueryTelemetry telemetry;
};

// Result of Compressor::MaxFlow. The partition is shared, not copied
// (batched queries would otherwise copy it per query).
struct FlowQueryResult {
  double upper_bound = 0.0;  // maxFlow of the c^2 reduced graph (Theorem 6)
  double lower_bound = 0.0;  // c^1 bound; 0 unless compute_lower_bound
  ColorId num_colors = 0;
  std::shared_ptr<const Partition> coloring;
  QueryTelemetry telemetry;
};

// Result of Compressor::SolveLp: the reduced LP (with its color maps), the
// reduced solve, and the solution lifted back to the original variable
// space (empty unless the reduced solve is optimal).
struct LpQueryResult {
  ReducedLp reduced;
  LpResult solution;
  std::vector<double> lifted_x;
  QueryTelemetry telemetry;
};

// Result of Compressor::Centrality.
struct CentralityQueryResult {
  std::vector<double> scores;  // approximate betweenness per node
  ColorId num_colors = 0;
  std::shared_ptr<const Partition> coloring;
  QueryTelemetry telemetry;
};

// Session-level cache statistics: the graph-coloring cache (including the
// dynamic repairs/fallbacks/edits_applied telemetry and the MaxFlow
// reduced-graph artifacts) plus the SolveLp matrix-coloring caches. Each
// lp_* counter is the sum of the matching CacheStats counter over the
// session's LP caches (one per distinct LP), so
// lp_hits + lp_misses + lp_recolorings == lp_lookups and
// lp_artifact_builds + lp_artifact_hits == lp_artifact_lookups.
struct CompressorStats {
  CacheStats coloring;   // ColoringCache counters (hits/misses/splits,
                         // edit_batches/edits_applied/repairs/fallbacks,
                         // artifact_lookups/builds/hits)
  int64_t lp_lookups = 0;
  int64_t lp_hits = 0;   // SolveLp reused a cached matrix coloring
  int64_t lp_misses = 0; // first query of an LP spec, or after eviction
  int64_t lp_recolorings = 0;  // down-budget SolveLp recomputes
  int64_t lp_artifact_lookups = 0;
  int64_t lp_artifact_builds = 0;  // reduced LPs extracted
  int64_t lp_artifact_hits = 0;    // reduced LPs served from the memo
};

// Per-batch knobs for ApplyEdits.
struct EditApplyOptions {
  // Repair split budget per cached coloring (dynamic::RepairOptions):
  // a tolerance-bounded entry whose repair would need more splits falls
  // back to from-scratch recoloring instead.
  int64_t max_repair_splits = 256;
};

// Outcome of one ApplyEdits batch.
struct EditApplyResult {
  int64_t edits_applied = 0;  // single-edge edits in this batch
  int64_t repairs = 0;        // cached colorings repaired in place
  int64_t fallbacks = 0;      // cached colorings reset to scratch
  int64_t repair_splits = 0;  // witness splits the repairs spent
  int64_t graph_version = 0;  // session graph version after this batch
  double seconds = 0.0;       // wall-clock cost of the whole batch
};

class ThreadPool;

// Session-construction knobs. Everything here affects resource usage only,
// never results: a budgeted session answers every query bit-identically to
// an unbudgeted one (evicted colorings recompute deterministically).
struct CompressorOptions {
  // Byte budget per coloring cache (live refiners plus served partition
  // snapshots); 0 = unlimited. It applies to each cache separately: one
  // for the session graph and one for each distinct SolveLp LP. See
  // ColoringCacheOptions::byte_budget for the eviction contract.
  int64_t coloring_cache_byte_budget = 0;
};

class Compressor {
 public:
  // An LP-only session: SolveLp works, graph queries return
  // FailedPrecondition.
  Compressor();

  // Takes ownership of (a move of) the graph. `pool` (not owned, may be
  // null, must outlive the session) enables intra- and inter-query
  // parallelism; results are bit-identical with and without it.
  explicit Compressor(Graph graph, ThreadPool* pool = nullptr,
                      const CompressorOptions& options = {});

  // Shares ownership; use the aliasing shared_ptr constructor to borrow a
  // caller-owned graph that outlives the session.
  explicit Compressor(std::shared_ptr<const Graph> graph,
                      ThreadPool* pool = nullptr,
                      const CompressorOptions& options = {});

  // Opens a qsc-bin file (docs/FORMATS.md) and serves it zero-copy: the
  // session's queries run over a GraphView of the mmap'd payload, so no
  // owning Graph is materialized and the resident footprint stays near the
  // derived in-CSR/weight caches instead of a full adjacency copy. All
  // five query kinds answer bit-identically to a session constructed from
  // ReadBinary(path) (the serving/mmap-* bench scenarios gate this).
  // graph() and ApplyEdits materialize an owning copy on first use
  // (copy-on-write); until then the file mapping must stay valid, which
  // the session guarantees by owning the MappedGraph. Fails with the
  // MapBinary status on a missing or malformed file.
  static StatusOr<Compressor> FromFile(const std::string& path,
                                       ThreadPool* pool = nullptr,
                                       const CompressorOptions& options = {});

  ~Compressor();

  Compressor(const Compressor&) = delete;
  Compressor& operator=(const Compressor&) = delete;
  Compressor(Compressor&&) noexcept;
  Compressor& operator=(Compressor&&) noexcept;

  // True when the session has a graph — owned or mapped (graph() is then
  // valid).
  bool has_graph() const;

  // The session graph as an owning Graph. On a FromFile session this
  // materializes an owning copy on first call (thread-safe, once); queries
  // keep running over the original view, so results are unaffected.
  const Graph& graph() const;

  // The quasi-stable coloring itself: compress the session graph under the
  // options' spec. Defaults: alpha = beta = 0.
  StatusOr<ColoringResult> Coloring(const QueryOptions& options = {});

  // Coloring-based max-flow approximation (paper Theorem 6): terminals
  // pinned to singletons, c^2 reduced graph solved exactly, c^1 lower
  // bound on request. Defaults: alpha = beta = 0.
  StatusOr<FlowQueryResult> MaxFlow(NodeId source, NodeId sink,
                                    const QueryOptions& options = {});

  // Serves each (source, sink) pair; pairs that agree share one coloring
  // through the cache, so k queries on one pair cost one coloring plus k
  // reduced solves. Validates every pair before running any query.
  // Results are identical to calling MaxFlow in a loop; with a session
  // ThreadPool the pairs fan out over the pool (distinct pairs color
  // concurrently) and only per-query telemetry attribution may differ
  // from the sequential loop.
  StatusOr<std::vector<FlowQueryResult>> MaxFlowBatch(
      const std::vector<std::pair<NodeId, NodeId>>& st_pairs,
      const QueryOptions& options = {});

  // LP reduction (paper Sec 4.1) + reduced simplex solve + lift. Colors
  // the LP's extended-matrix bipartite graph, not the session graph:
  // each distinct LP (by content) gets its own ColoringCache over that
  // graph, starting from the {rows} {objective} {columns} {rhs} colors,
  // so repeated SolveLp calls resume one refinement across budgets and
  // both reduction variants. Every result equals a cold ReduceLp +
  // SolveSimplex at the same options. Requires max_colors >= 4.
  // Defaults: alpha = 1, beta = 0.
  StatusOr<LpQueryResult> SolveLp(const LpProblem& lp,
                                  const QueryOptions& options = {});

  // Color-pivot betweenness approximation (paper Sec 4.3): ColorPivotScores
  // over the session's cached coloring. Defaults: alpha = beta = 1.
  StatusOr<CentralityQueryResult> Centrality(const QueryOptions& options = {});

  // Applies one edit batch to the session graph (docs/DYNAMIC.md). The
  // batch is validated and applied all-or-nothing via
  // dynamic::ApplyEditBatch — an invalid edit (duplicate insert, absent
  // delete/update, bad endpoint or weight) fails the whole call with the
  // graph unchanged. On success every cached coloring is repaired in
  // place or reset for from-scratch recoloring (the repair/fallback
  // contract of dynamic/incremental.h), the graph version increments, and
  // all five query kinds keep serving: post-batch results are identical
  // to the same queries against a fresh session on the mutated graph,
  // never worse than max(q_tolerance, scratch error) on the coloring.
  // Safe to call concurrently with queries (it takes the session writer
  // lock); concurrent ApplyEdits calls serialize. Rejects an empty batch
  // and, on an LP-only or empty-graph session, FailedPrecondition.
  // SolveLp's matrix-coloring caches key on LP content, not the session
  // graph, so they are unaffected by edits.
  StatusOr<EditApplyResult> ApplyEdits(const std::vector<dynamic::EditOp>& edits,
                                       const EditApplyOptions& options = {});

  // Number of ApplyEdits batches applied so far (0 = construction graph).
  int64_t graph_version() const;

  // Snapshot of the session counters (consistent under concurrency).
  CompressorStats stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qsc

#endif  // QSC_API_COMPRESSOR_H_
