#include "qsc/api/compressor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "qsc/api/hashing.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/flow/uniform_flow.h"
#include "qsc/graph/graph_view.h"
#include "qsc/graph/io.h"
#include "qsc/parallel/parallel_for.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

std::string NodeStr(NodeId v) { return std::to_string(v); }

// Shared option checks (satellite of the api_redesign issue: these used to
// abort via QSC_CHECK or silently index out of range).
Status ValidateCommonOptions(const QueryOptions& options) {
  if (options.max_colors <= 0) {
    return Status::InvalidArgument(
        "max_colors must be positive; got " +
        std::to_string(options.max_colors));
  }
  if (!std::isfinite(options.q_tolerance) || options.q_tolerance < 0.0) {
    return Status::InvalidArgument("q_tolerance must be finite and >= 0; got " +
                                   std::to_string(options.q_tolerance));
  }
  if (options.alpha.has_value() && !std::isfinite(*options.alpha)) {
    return Status::InvalidArgument("alpha must be finite; got " +
                                   std::to_string(*options.alpha));
  }
  if (options.beta.has_value() && !std::isfinite(*options.beta)) {
    return Status::InvalidArgument("beta must be finite; got " +
                                   std::to_string(*options.beta));
  }
  return Status::Ok();
}

// The backend half of the boundary contract (docs/API.md "Backends"):
// canonicalize, then check the name. Malformed names are InvalidArgument
// (the request can never be valid); well-formed unknown names are
// NotFound.
StatusOr<std::string> ValidateBackend(const std::string& name) {
  StatusOr<std::string> canonical = CanonicalBackendName(name);
  if (!canonical.ok()) return canonical.status();
  if (!IsBackendName(*canonical)) {
    std::string registered;
    for (const std::string& n : BackendNames()) {
      registered += registered.empty() ? n : ", " + n;
    }
    return Status::NotFound("unknown coloring backend \"" + *canonical +
                            "\"; registered: " + registered);
  }
  return canonical;
}

Status ValidatePins(const std::vector<NodeId>& pinned, NodeId num_nodes) {
  for (size_t i = 0; i < pinned.size(); ++i) {
    if (pinned[i] < 0 || pinned[i] >= num_nodes) {
      return Status::InvalidArgument(
          "pinned node id " + NodeStr(pinned[i]) + " out of range [0, " +
          NodeStr(num_nodes) + ")");
    }
    for (size_t j = 0; j < i; ++j) {
      if (pinned[j] == pinned[i]) {
        return Status::InvalidArgument("duplicate pinned node id " +
                                       NodeStr(pinned[i]));
      }
    }
  }
  return Status::Ok();
}

// Builds the cache key from options, filling unset witness exponents with
// the area defaults (paper Sec 5.2). `backend` must already be canonical
// (the ValidateBackend result).
ColoringSpec SpecFor(const QueryOptions& options, double default_alpha,
                     double default_beta, std::vector<NodeId> pinned,
                     std::string backend) {
  ColoringSpec spec;
  spec.alpha = options.alpha.value_or(default_alpha);
  spec.beta = options.beta.value_or(default_beta);
  spec.q_tolerance = options.q_tolerance;
  spec.split_mean = options.split_mean;
  spec.backend = std::move(backend);
  spec.pinned = std::move(pinned);
  return spec;
}

// Content fingerprint of an LP: SolveLp keys its matrix-coloring caches by
// value, so two calls with equal problems share one cache even if they
// pass different objects. Not collision-resistant — hits are confirmed by
// LpEquals before a cached LP is reused.
uint64_t FingerprintLp(const LpProblem& lp) {
  using api_internal::HashMixDouble;
  using api_internal::HashMixWord;
  uint64_t h = api_internal::kFnvOffsetBasis;
  h = HashMixWord(h, static_cast<uint64_t>(lp.num_rows));
  h = HashMixWord(h, static_cast<uint64_t>(lp.num_cols));
  for (const LpEntry& e : lp.entries) {
    h = HashMixWord(h, static_cast<uint64_t>(e.row));
    h = HashMixWord(h, static_cast<uint64_t>(e.col));
    h = HashMixDouble(h, e.value);
  }
  for (const double v : lp.b) h = HashMixDouble(h, v);
  for (const double v : lp.c) h = HashMixDouble(h, v);
  return h;
}

bool LpEquals(const LpProblem& a, const LpProblem& b) {
  if (a.num_rows != b.num_rows || a.num_cols != b.num_cols ||
      a.entries.size() != b.entries.size() || a.b != b.b || a.c != b.c) {
    return false;
  }
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].row != b.entries[i].row ||
        a.entries[i].col != b.entries[i].col ||
        a.entries[i].value != b.entries[i].value) {
      return false;
    }
  }
  return true;
}

ColoringCacheOptions CacheOptionsFor(const CompressorOptions& options) {
  ColoringCacheOptions cache_options;
  cache_options.byte_budget = options.coloring_cache_byte_budget;
  return cache_options;
}

}  // namespace

class Compressor::Impl {
 public:
  Impl(std::shared_ptr<const Graph> graph, ThreadPool* pool,
       const CompressorOptions& options)
      : graph_(std::move(graph)),
        pool_(pool),
        cache_options_(CacheOptionsFor(options)) {
    if (graph_ != nullptr) {
      view_ = GraphView(*graph_);
      if (graph_->num_nodes() > 0) {
        cache_ = std::make_unique<ColoringCache>(graph_, pool_, cache_options_);
      }
    }
  }

  // The mmap serving path (Compressor::FromFile): queries run over a view
  // of the mapped payload; no owning Graph exists until graph() or
  // ApplyEdits materializes one.
  Impl(std::shared_ptr<const MappedGraph> mapped, ThreadPool* pool,
       const CompressorOptions& options)
      : mapped_(std::move(mapped)),
        pool_(pool),
        cache_options_(CacheOptionsFor(options)) {
    QSC_CHECK(mapped_ != nullptr);
    view_ = GraphView::Of(*mapped_);
    if (view_.num_nodes() > 0) {
      cache_ = std::make_unique<ColoringCache>(view_, mapped_, pool_,
                                               cache_options_);
    }
  }

  bool has_graph() const { return graph_ != nullptr || mapped_ != nullptr; }

  const Graph& graph() {
    {
      const std::shared_lock<std::shared_mutex> lock(session_mutex_);
      if (graph_ != nullptr) return *graph_;
    }
    // Mapped session, first graph() call: materialize an owning copy once,
    // under the writer lock. Queries keep serving from view_ (still on the
    // mapping), so this changes footprint, never results.
    const std::unique_lock<std::shared_mutex> lock(session_mutex_);
    QSC_CHECK(mapped_ != nullptr);
    if (graph_ == nullptr) {
      graph_ = std::make_shared<const Graph>(mapped_->Materialize());
    }
    return *graph_;
  }

  // FailedPrecondition (not InvalidArgument): the request may be fine, but
  // this session cannot serve graph queries.
  Status RequireGraph() const {
    if (graph_ == nullptr && mapped_ == nullptr) {
      return Status::FailedPrecondition(
          "graph query on an LP-only session (no graph)");
    }
    if (view_.num_nodes() == 0) {
      return Status::FailedPrecondition("session graph is empty");
    }
    return Status::Ok();
  }

  StatusOr<ColoringResult> Coloring(const QueryOptions& options) {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    QSC_RETURN_IF_ERROR(ValidatePins(options.pinned, view_.num_nodes()));
    StatusOr<std::string> backend = ValidateBackend(options.backend);
    if (!backend.ok()) return backend.status();

    const ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/0.0, /*default_beta=*/0.0,
                options.pinned, *std::move(backend));
    const ColoringCache::Handle handle =
        cache_->Refine(spec, options.max_colors);
    ColoringResult result;
    result.coloring = handle.partition;
    result.max_q = handle.max_error;
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;
    return result;
  }

  StatusOr<FlowQueryResult> MaxFlow(NodeId source, NodeId sink,
                                    const QueryOptions& options) {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    QSC_RETURN_IF_ERROR(ValidateFlowQuery(source, sink, options));
    return MaxFlowUnchecked(source, sink, options);
  }

  StatusOr<std::vector<FlowQueryResult>> MaxFlowBatch(
      const std::vector<std::pair<NodeId, NodeId>>& st_pairs,
      const QueryOptions& options) {
    // The batch holds the session reader lock for its whole fan-out;
    // MaxFlowUnchecked runs on pool workers, whose tasks the pool
    // synchronizes with this thread, so the lock covers them too.
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    // Fail fast: validate every pair before serving any query, so a batch
    // either runs whole or not at all.
    for (const auto& [source, sink] : st_pairs) {
      QSC_RETURN_IF_ERROR(ValidateFlowQuery(source, sink, options));
    }
    // Fan the pairs out over the session pool (sequential when there is
    // none): each pair writes only its own slot and the coloring cache is
    // concurrency-safe, so the results match the sequential loop bit for
    // bit — distinct terminal pairs color concurrently, repeated pairs
    // queue on their shared spec and hit its cache.
    std::vector<FlowQueryResult> results(st_pairs.size());
    ParallelFor(pool_, static_cast<int64_t>(st_pairs.size()), /*grain=*/1,
                [&](int64_t i) {
                  StatusOr<FlowQueryResult> result = MaxFlowUnchecked(
                      st_pairs[i].first, st_pairs[i].second, options);
                  // Validated above; failures are internal bugs.
                  QSC_CHECK_OK(result);
                  results[i] = std::move(result).value();
                });
    return results;
  }

  StatusOr<LpQueryResult> SolveLp(const LpProblem& lp,
                                  const QueryOptions& options) {
    // LP colorings key on LP content, not the session graph, so edits
    // never invalidate them; the reader lock is only for the version
    // stamp and the uniform queries-concurrent/edits-exclusive contract.
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    QSC_RETURN_IF_ERROR(ValidateLp(lp));
    if (options.max_colors < 4) {
      return Status::InvalidArgument(
          "SolveLp needs max_colors >= 4 (the two pinned singletons plus at "
          "least one row and one column color); got " +
          std::to_string(options.max_colors));
    }
    if (!options.pinned.empty()) {
      return Status::InvalidArgument(
          "SolveLp pins the objective row and rhs column internally; "
          "explicit pins are not supported");
    }
    StatusOr<std::string> backend = ValidateBackend(options.backend);
    if (!backend.ok()) return backend.status();

    WallTimer timer;
    LpCache& entry = FindOrInsertLp(lp);
    ColoringCache* cache = nullptr;
    {
      // Built lazily under the entry, outside lp_mutex_, so distinct LPs
      // build and refine concurrently.
      std::lock_guard<std::mutex> lock(entry.mutex);
      if (entry.cache == nullptr) {
        LpMatrixGraph matrix = BuildLpMatrixGraph(entry.lp);
        entry.cache = std::make_unique<ColoringCache>(
            std::make_shared<const Graph>(std::move(matrix.graph)), pool_,
            cache_options_, std::move(matrix.initial));
      }
      cache = entry.cache.get();
    }
    const ColoringCache::Handle handle = cache->Refine(
        SpecFor(options, /*default_alpha=*/1.0, /*default_beta=*/0.0, {},
                *std::move(backend)),
        options.max_colors);

    LpQueryResult result;
    result.telemetry = TelemetryFor(handle);
    // Includes finding this LP's cache, which the handle does not see.
    result.telemetry.coloring_seconds = timer.ElapsedSeconds();
    result.telemetry.graph_version = graph_version_;

    timer.Reset();
    result.reduced =
        ExtractReducedLp(entry.lp, *handle.partition, options.lp_variant);
    result.reduced.max_q = handle.max_error;
    result.reduced.coloring_seconds = result.telemetry.coloring_seconds;
    result.solution = SolveSimplex(result.reduced.lp);
    if (result.solution.status == LpStatus::kOptimal) {
      result.lifted_x = LiftSolution(result.reduced, result.solution.x);
    }
    result.telemetry.solve_seconds = timer.ElapsedSeconds();
    return result;
  }

  StatusOr<CentralityQueryResult> Centrality(const QueryOptions& options) {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    QSC_RETURN_IF_ERROR(ValidatePins(options.pinned, view_.num_nodes()));
    if (options.pivots_per_color < 1) {
      return Status::InvalidArgument(
          "pivots_per_color must be >= 1; got " +
          std::to_string(options.pivots_per_color));
    }

    StatusOr<std::string> backend = ValidateBackend(options.backend);
    if (!backend.ok()) return backend.status();
    const ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/1.0, /*default_beta=*/1.0,
                options.pinned, *std::move(backend));
    const ColoringCache::Handle handle =
        cache_->Refine(spec, options.max_colors);

    CentralityQueryResult result;
    result.coloring = handle.partition;
    result.num_colors = handle.partition->num_colors();
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;
    WallTimer timer;
    result.scores =
        ColorPivotScores(view_, *handle.partition, options.pivots_per_color,
                         options.seed, pool_);
    result.telemetry.solve_seconds = timer.ElapsedSeconds();
    return result;
  }

  StatusOr<EditApplyResult> ApplyEdits(const std::vector<dynamic::EditOp>& edits,
                                       const EditApplyOptions& options) {
    if (options.max_repair_splits < 0) {
      return Status::InvalidArgument(
          "max_repair_splits must be >= 0; got " +
          std::to_string(options.max_repair_splits));
    }
    if (edits.empty()) {
      return Status::InvalidArgument("empty edit batch");
    }
    WallTimer timer;
    // Writer lock: no query is mid-flight while the graph version
    // changes, so a query's coloring and solve always agree on one graph.
    const std::unique_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    if (graph_ == nullptr) {
      // Copy-on-write for mapped sessions: the first edit batch
      // materializes an owning graph to mutate (bit-identical to the
      // mapping; the qsc-bin round-trip contract).
      graph_ = std::make_shared<const Graph>(mapped_->Materialize());
    }
    StatusOr<Graph> mutated = dynamic::ApplyEditBatch(*graph_, edits);
    if (!mutated.ok()) return mutated.status();
    auto new_graph =
        std::make_shared<const Graph>(std::move(mutated).value());

    dynamic::RepairOptions repair;
    repair.max_repair_splits = options.max_repair_splits;
    const ColoringCache::EditApplyStats repaired =
        cache_->ApplyGraph(new_graph, edits, repair);
    graph_ = std::move(new_graph);
    view_ = GraphView(*graph_);
    mapped_.reset();  // the mapping no longer backs anything
    ++graph_version_;

    EditApplyResult result;
    result.edits_applied = static_cast<int64_t>(edits.size());
    result.repairs = repaired.repairs;
    result.fallbacks = repaired.fallbacks;
    result.repair_splits = repaired.repair_splits;
    result.graph_version = graph_version_;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  int64_t graph_version() const {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    return graph_version_;
  }

  CompressorStats stats() const {
    CompressorStats snapshot;
    snapshot.coloring = cache_ != nullptr ? cache_->stats() : CacheStats{};
    // Lock order: lp_mutex_, then an entry's mutex (SolveLp never holds
    // both).
    std::lock_guard<std::mutex> lock(lp_mutex_);
    for (const auto& [fingerprint, bucket] : lp_entries_) {
      for (const std::unique_ptr<LpCache>& entry : bucket) {
        std::lock_guard<std::mutex> entry_lock(entry->mutex);
        if (entry->cache == nullptr) continue;
        const CacheStats lp = entry->cache->stats();
        snapshot.lp_lookups += lp.lookups;
        snapshot.lp_hits += lp.hits;
        snapshot.lp_misses += lp.misses;
        snapshot.lp_recolorings += lp.recolorings;
      }
    }
    return snapshot;
  }

 private:
  // One distinct LP (by content): an owned copy and a ColoringCache over
  // its extended-matrix graph, so every SolveLp on it resumes one anytime
  // refinement per spec. The reduction variant only shapes the extraction
  // and is not part of the key.
  struct LpCache {
    explicit LpCache(const LpProblem& problem) : lp(problem) {}
    const LpProblem lp;
    std::mutex mutex;  // guards the lazy construction of `cache`
    std::unique_ptr<ColoringCache> cache;
  };

  // Finds the LP's entry or inserts an empty one. The fingerprint is not
  // collision-resistant, so it maps to a bucket and a hit requires content
  // equality. Entries are never removed; their colorings obey the byte
  // budget inside each cache.
  LpCache& FindOrInsertLp(const LpProblem& lp) {
    const uint64_t fingerprint = FingerprintLp(lp);  // outside the lock
    std::lock_guard<std::mutex> lock(lp_mutex_);
    std::vector<std::unique_ptr<LpCache>>& bucket = lp_entries_[fingerprint];
    for (const std::unique_ptr<LpCache>& candidate : bucket) {
      if (LpEquals(candidate->lp, lp)) return *candidate;
    }
    bucket.push_back(std::make_unique<LpCache>(lp));
    return *bucket.back();
  }

  static QueryTelemetry TelemetryFor(const ColoringCache::Handle& handle) {
    QueryTelemetry t;
    t.coloring_cache_hit = handle.cache_hit;
    t.coloring_splits = handle.splits;
    t.coloring_seconds = handle.seconds;
    return t;
  }

  Status ValidateFlowQuery(NodeId source, NodeId sink,
                           const QueryOptions& options) const {
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    {
      const StatusOr<std::string> backend = ValidateBackend(options.backend);
      if (!backend.ok()) return backend.status();
    }
    const NodeId n = view_.num_nodes();
    if (source < 0 || source >= n) {
      return Status::InvalidArgument("source node id " + NodeStr(source) +
                                     " out of range [0, " + NodeStr(n) + ")");
    }
    if (sink < 0 || sink >= n) {
      return Status::InvalidArgument("sink node id " + NodeStr(sink) +
                                     " out of range [0, " + NodeStr(n) + ")");
    }
    if (source == sink) {
      return Status::InvalidArgument(
          "source and sink must differ; both are " + NodeStr(source));
    }
    if (view_.undirected()) {
      return Status::InvalidArgument(
          "MaxFlow requires a directed session graph (capacities are "
          "per-arc)");
    }
    if (!options.pinned.empty()) {
      return Status::InvalidArgument(
          "MaxFlow pins its terminals itself; explicit pins are not "
          "supported");
    }
    if (!std::isfinite(options.uniform_flow_tol) ||
        options.uniform_flow_tol <= 0.0) {
      return Status::InvalidArgument(
          "uniform_flow_tol must be finite and positive; got " +
          std::to_string(options.uniform_flow_tol));
    }
    return Status::Ok();
  }

  // The Theorem-6 pipeline, with the coloring served from the session
  // cache. Inputs already validated.
  StatusOr<FlowQueryResult> MaxFlowUnchecked(NodeId source, NodeId sink,
                                             const QueryOptions& options) {
    const ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/0.0, /*default_beta=*/0.0,
                {source, sink},
                // Validated by ValidateFlowQuery; .value() cannot abort.
                CanonicalBackendName(options.backend).value());
    const ColoringCache::Handle handle =
        cache_->Refine(spec, options.max_colors);
    const Partition& p = *handle.partition;
    const GraphView& g = view_;

    FlowQueryResult result;
    result.coloring = handle.partition;
    result.num_colors = p.num_colors();
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;

    WallTimer timer;
    const ColorId source_color = p.ColorOf(source);
    const ColorId sink_color = p.ColorOf(sink);

    // Upper bound: reduced graph with summed capacities (c^2).
    const Graph reduced = BuildReducedGraph(g, p, ReducedWeight::kSum);
    result.upper_bound =
        MaxFlowPushRelabel(reduced, source_color, sink_color);

    if (options.compute_lower_bound) {
      // c^1(i, j) = maxUFlow(P_i, P_j): the largest flow shippable between
      // the two colors with uniform per-node rates (Theorem 6).
      std::vector<EdgeTriple> arcs;
      for (const EdgeTriple& a : reduced.Arcs()) {
        if (a.src == a.dst) continue;
        const double c1 = MaxUniformFlow(g, p.Members(a.src), p.Members(a.dst),
                                         options.uniform_flow_tol);
        if (c1 > 0.0) {
          arcs.push_back({a.src, a.dst, c1});
        }
      }
      const Graph lower_graph =
          Graph::FromEdges(p.num_colors(), arcs, /*undirected=*/false);
      result.lower_bound =
          MaxFlowPushRelabel(lower_graph, source_color, sink_color);
    }
    result.telemetry.solve_seconds = timer.ElapsedSeconds();
    return result;
  }

  // Queries hold this shared for their whole duration; ApplyEdits holds
  // it unique while it swaps graph_/view_, repairs the cache, and bumps
  // graph_version_ (all guarded by it). At most one of graph_/mapped_ is
  // the serving substrate: view_ aliases whichever is live, and ApplyEdits
  // retires the mapping after its copy-on-write materialization.
  mutable std::shared_mutex session_mutex_;
  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const MappedGraph> mapped_;
  GraphView view_;
  int64_t graph_version_ = 0;
  ThreadPool* pool_;
  std::unique_ptr<ColoringCache> cache_;

  // The session's cache knobs; every LP's cache gets them too, so the
  // byte budget applies per cache.
  ColoringCacheOptions cache_options_;

  // Guards lp_entries_ (map and buckets, not the entries).
  mutable std::mutex lp_mutex_;
  std::map<uint64_t, std::vector<std::unique_ptr<LpCache>>> lp_entries_;
};

Compressor::Compressor()
    : impl_(new Impl(std::shared_ptr<const Graph>(), nullptr, {})) {}

Compressor::Compressor(Graph graph, ThreadPool* pool,
                       const CompressorOptions& options)
    : impl_(new Impl(std::make_shared<const Graph>(std::move(graph)), pool,
                     options)) {}

Compressor::Compressor(std::shared_ptr<const Graph> graph, ThreadPool* pool,
                       const CompressorOptions& options)
    : impl_(new Impl(std::move(graph), pool, options)) {}

StatusOr<Compressor> Compressor::FromFile(const std::string& path,
                                          ThreadPool* pool,
                                          const CompressorOptions& options) {
  StatusOr<MappedGraph> mapped = MapBinary(path);
  if (!mapped.ok()) return mapped.status();
  Compressor session;
  session.impl_ = std::make_unique<Impl>(
      std::make_shared<const MappedGraph>(std::move(mapped).value()), pool,
      options);
  return session;
}

Compressor::~Compressor() = default;
Compressor::Compressor(Compressor&&) noexcept = default;
Compressor& Compressor::operator=(Compressor&&) noexcept = default;

bool Compressor::has_graph() const { return impl_->has_graph(); }
const Graph& Compressor::graph() const { return impl_->graph(); }

StatusOr<ColoringResult> Compressor::Coloring(const QueryOptions& options) {
  return impl_->Coloring(options);
}

StatusOr<FlowQueryResult> Compressor::MaxFlow(NodeId source, NodeId sink,
                                              const QueryOptions& options) {
  return impl_->MaxFlow(source, sink, options);
}

StatusOr<std::vector<FlowQueryResult>> Compressor::MaxFlowBatch(
    const std::vector<std::pair<NodeId, NodeId>>& st_pairs,
    const QueryOptions& options) {
  return impl_->MaxFlowBatch(st_pairs, options);
}

StatusOr<LpQueryResult> Compressor::SolveLp(const LpProblem& lp,
                                            const QueryOptions& options) {
  return impl_->SolveLp(lp, options);
}

StatusOr<CentralityQueryResult> Compressor::Centrality(
    const QueryOptions& options) {
  return impl_->Centrality(options);
}

StatusOr<EditApplyResult> Compressor::ApplyEdits(
    const std::vector<dynamic::EditOp>& edits, const EditApplyOptions& options) {
  return impl_->ApplyEdits(edits, options);
}

int64_t Compressor::graph_version() const { return impl_->graph_version(); }

CompressorStats Compressor::stats() const { return impl_->stats(); }

}  // namespace qsc
