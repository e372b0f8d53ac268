// The session-level coloring cache behind qsc::Compressor (paper Sec 5.2:
// Rothko as an anytime co-routine, amortized across queries).
//
// A cache entry is keyed by a ColoringSpec — everything that determines
// the Rothko split sequence except the color budget — and holds a *live*
// RothkoRefiner. Because each witness split is a deterministic function of
// the current partition only, a request for a larger budget continues the
// cached refinement and yields a partition bit-identical to a fresh run at
// that budget (tests/api_cache_resume_test.cc proves this over the shared
// 56-graph corpus). Partitions are handed out as shared snapshots, so
// serving a query never copies the coloring; repeated requests at one
// budget share one snapshot.
//
// Budgets below the cached refiner's current color count cannot be rolled
// back (splits are not invertible), so such requests recompute from
// scratch once and memoize the result per budget ("recoloring" in the
// stats). Sessions that sweep budgets in ascending order — the anytime
// direction, and what NormalizeBudgets produces — never pay this.
//
// Thread-safety: Refine() may be called concurrently from any number of
// threads. The spec map is guarded by a shared_mutex and each entry owns
// a mutex that serializes refinement of that spec, so queries against
// distinct specs refine concurrently while queries against one spec
// queue. The partition served for (spec, budget) is bit-identical no
// matter how calls interleave — an up-budget continuation equals a fresh
// run and a down-budget recompute starts from scratch — so only the
// *stats attribution* (hit vs recoloring for racing down-budget queries)
// depends on arrival order; totals still satisfy
// hits + misses + recolorings == lookups, and the request that inserted
// a spec's entry is its one miss whichever branch serves it.
//
// Byte budget (ColoringCacheOptions): a long-lived server cannot let the
// entry map grow without bound, so the cache tracks the footprint of every
// entry (live refiner + distinct served snapshots) and, when a budget is
// configured, evicts least-recently-used idle entries after each request
// until the total is back within the budget. Eviction never changes a
// result: a re-queried evicted spec recomputes from scratch — a miss in
// the stats — and the anytime determinism makes the recomputed partition
// bitwise equal to the evicted one (tests/api_cache_eviction_test.cc
// proves this over the shared 56-graph corpus). Entries pinned by
// in-flight requests are not evictable, so under concurrency the budget
// is enforced whenever no request is mid-flight.
//
// Snapshot artifacts: whatever a query derives from a served partition
// alone — Theorem 6's reduced graphs, an LP's reduced instance — is a pure
// function of (graph version, spec, snapshot), so every snapshot carries a
// memo of such artifacts (Artifact()). Each artifact is built at most once
// per snapshot behind its own once-guard, outside the entry mutex and the
// map lock, so a build never stalls refinement or lookups of any spec. A
// built artifact joins its entry's footprint (and so the byte budget),
// and it lives and dies with its snapshot: eviction drops it with the
// entry, ApplyGraph drops it with the old graph's snapshots.

#ifndef QSC_API_COLORING_CACHE_H_
#define QSC_API_COLORING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/dynamic/incremental.h"
#include "qsc/graph/graph.h"
#include "qsc/graph/graph_view.h"

namespace qsc {

// Cache key: the parameters that determine the backend's split sequence
// from a given graph. The color budget is deliberately absent — one entry
// serves every budget via the anytime property.
struct ColoringSpec {
  // Witness weighting C_ij = |P_i|^alpha * |P_j|^beta (paper Sec 5.2).
  double alpha = 0.0;
  double beta = 0.0;

  // Refinement stops once the max q-error drops to this bound.
  double q_tolerance = 0.0;

  RothkoOptions::SplitMean split_mean = RothkoOptions::SplitMean::kArithmetic;

  // Canonical name of the compression backend (coloring/backend.h); ""
  // means kDefaultColoringBackend and compares/hashes identically to it,
  // so pre-backend specs keep their cache identity. The cache requires
  // the name be a CanonicalBackendName fixpoint that IsBackendName
  // accepts; qsc::Compressor validates and canonicalizes at the API
  // boundary.
  std::string backend;

  // Nodes seeded into their own singleton colors: pinned[i] is labeled i
  // and every other node shares label pinned.size(); the labels are then
  // renumbered to dense color ids in first-appearance node order by
  // Partition::FromColorIds (so pin order affects the split sequence, but
  // a pin's color id must be looked up via ColorOf, not assumed to be i).
  // The max-flow terminal pinning of Theorem 6 is pinned = {s, t}.
  std::vector<NodeId> pinned;

  // Equality folds "" onto the default backend; defined in
  // coloring_cache.cc next to ColoringSpecHash so the two stay in sync.
  friend bool operator==(const ColoringSpec& a, const ColoringSpec& b);
  friend bool operator!=(const ColoringSpec& a, const ColoringSpec& b) {
    return !(a == b);
  }
};

struct ColoringSpecHash {
  size_t operator()(const ColoringSpec& spec) const;
};

// The initial partition a spec induces on a base partition: each pinned
// node in its own singleton color, every other node keeping its base color
// (color ids assigned in first-appearance node order — see
// ColoringSpec::pinned). Without pins it equals `base` when base's ids are
// already in first-appearance order (as FromColorIds produces).
Partition InitialPartition(const ColoringSpec& spec, const Partition& base);

// The same over a one-color base: the pins, the rest in one shared color.
// Matches Partition::Trivial for an empty pin set and Compressor::MaxFlow's
// terminal pinning for {s, t}.
Partition InitialPartition(const ColoringSpec& spec, NodeId num_nodes);

// Session-lifetime amortization counters.
//
// Reconciliation invariant: every lookup is attributed to exactly one of
// {hit, miss, recoloring}, so hits + misses + recolorings == lookups — in
// the totals AND within every per_backend row. Which bucket a racing
// down-budget pair lands in is arrival-order-dependent (documented in the
// file comment), but the invariant itself holds under any interleaving
// because each request's bucket is decided once, under its entry lock, and
// counted together with its lookup in one critical section
// (tests/api_compressor_test.cc and the concurrency suite assert it).
struct CacheStats {
  // One backend's share of the traffic, keyed by canonical backend name
  // in per_backend (a "" spec is accounted under kDefaultColoringBackend).
  struct BackendStats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t recolorings = 0;
    int64_t refine_splits = 0;
    int64_t repairs = 0;    // entries repaired in place across edit batches
    int64_t fallbacks = 0;  // entries whose coloring work a batch discarded
  };

  int64_t lookups = 0;       // coloring requests served
  int64_t hits = 0;          // served from a cached refiner (possibly after
                             // continuing its refinement)
  int64_t misses = 0;        // new spec: refiner built and run from scratch
  int64_t recolorings = 0;   // down-budget recomputes within a cached spec
  int64_t refine_splits = 0; // total witness splits performed
  int64_t evictions = 0;     // entries evicted to satisfy the byte budget
  int64_t bytes_in_use = 0;  // tracked footprint of all current entries
  int64_t peak_bytes = 0;    // high-water mark of bytes_in_use

  // Dynamic-graph telemetry (ApplyGraph; docs/DYNAMIC.md). Every entry
  // holding coloring work (a live refiner) when a batch lands is
  // attributed to exactly one of {repair, fallback}, so repairs +
  // fallbacks counts entry-batch pairs; an entry a previous fallback
  // reset and no query has refined since counts as neither.
  int64_t edit_batches = 0;   // ApplyGraph calls
  int64_t edits_applied = 0;  // single-edge edits across all batches
  int64_t repairs = 0;        // entries repaired in place
  int64_t fallbacks = 0;      // entries whose coloring work this batch
                              // discarded (rebuilt by their next query)
  int64_t repair_splits = 0;  // witness splits spent by successful repairs

  // Snapshot artifacts (ColoringCache::Artifact). Every artifact lookup
  // is exactly one of {build, hit}, so
  // artifact_builds + artifact_hits == artifact_lookups.
  int64_t artifact_lookups = 0;
  int64_t artifact_builds = 0;  // artifacts built (first use per snapshot)
  int64_t artifact_hits = 0;    // artifacts served from a snapshot's memo

  // Per-backend breakdown of the five attribution counters above; the
  // column sums over all rows equal the totals.
  std::map<std::string, BackendStats> per_backend;
};

// Names one artifact derived from a served snapshot: what it is, plus the
// one parameter that shapes it (a tolerance's bit pattern, an enum value).
struct ArtifactKey {
  std::string kind;
  uint64_t param = 0;

  friend bool operator<(const ArtifactKey& a, const ArtifactKey& b) {
    return a.kind != b.kind ? a.kind < b.kind : a.param < b.param;
  }
};

// Session-construction knobs for the cache.
struct ColoringCacheOptions {
  // Maximum total entry footprint in bytes; 0 = unlimited (never evict).
  // An entry's footprint is its live refiner (RothkoRefiner::MemoryBytes)
  // plus every distinct partition snapshot it serves and the artifacts
  // built from those snapshots. When a request
  // leaves the total above the budget, least-recently-used idle entries
  // are evicted — possibly including the entry the request itself used —
  // until the total is back within the budget, so with no concurrent
  // requests in flight, bytes_in_use <= byte_budget after every Refine().
  // Eviction is invisible to results: a re-queried evicted spec
  // recomputes bit-identically (and counts as a miss).
  int64_t byte_budget = 0;
};

// Spec-keyed store of live anytime refiners over one graph. Safe for
// concurrent Refine() calls (see the file comment for the locking
// granularity and the determinism guarantee).
class ColoringCache {
 public:
  // A served partition together with the memo of its derived artifacts.
  struct Snapshot;

  // One served coloring. `partition` is a shared immutable snapshot —
  // callers must not assume it tracks later refinement.
  struct Handle {
    std::shared_ptr<const Partition> partition;
    double max_error = 0.0;  // max unweighted q-error of `partition`
    bool cache_hit = false;  // an existing entry served this request
    int64_t splits = 0;      // witness splits this request performed
    double seconds = 0.0;    // wall-clock cost of this request
    // The snapshot `partition` belongs to; the key to Artifact().
    std::shared_ptr<Snapshot> snapshot;
  };

  // `graph` must be non-null; the cache shares ownership. `options`
  // configures the byte budget. Refinement runs on the calling thread.
  // `base`, when set, is the partition every spec's pins refine (an LP's
  // matrix graph starts from its four row/objective/column/rhs colors);
  // unset means one shared color.
  explicit ColoringCache(std::shared_ptr<const Graph> graph,
                         const ColoringCacheOptions& options = {},
                         std::optional<Partition> base = std::nullopt);

  // View-backed construction (the mmap serving path): refiners run over
  // `view` without an owning Graph ever materializing. `keepalive` (may be
  // null) pins whatever owns the viewed arrays — typically the session's
  // MappedGraph. graph() is invalid on such a cache until the first
  // ApplyGraph(); every other member behaves identically.
  ColoringCache(GraphView view, std::shared_ptr<const void> keepalive,
                const ColoringCacheOptions& options = {});
  ~ColoringCache();

  ColoringCache(const ColoringCache&) = delete;
  ColoringCache& operator=(const ColoringCache&) = delete;

  // Serves the spec's coloring refined to `budget` colors (or to
  // convergence, whichever comes first; budgets below the spec's initial
  // color count serve the initial partition, like RothkoRefiner::Run()).
  // Contract violations (unvalidated pins, non-positive budget, an
  // unknown or non-canonical spec.backend) abort; qsc::Compressor
  // validates at the API boundary. The result is bit-identical to a fresh
  // run of the spec's backend from InitialPartition(spec, n) stepped to
  // `budget` colors (InitialPartition(spec, base) on a cache with a base
  // partition) — for the default backend, to
  //   RothkoColoring(graph, InitialPartition(spec, n),
  //                  {budget, spec.q_tolerance, spec.alpha, spec.beta,
  //                   spec.split_mean})
  // — regardless of which budgets were served before and of concurrent
  // callers (every backend honors the determinism contract of
  // RothkoRefiner, coloring/rothko.h).
  Handle Refine(const ColoringSpec& spec, ColorId budget);

  // The artifact `key` derived from the handle's snapshot: `build()` runs
  // the first time the snapshot is asked for `key` and every later call —
  // from any thread, for as long as the snapshot lives — returns the same
  // object. Concurrent first calls for one key wait for a single build;
  // the build holds neither the entry mutex nor the map lock. `build` must
  // be a pure function of the snapshot's partition and the graph it was
  // refined on, returning a T with `int64_t MemoryBytes() const`; those
  // bytes join the entry's footprint (and may trigger eviction) while the
  // entry still serves the snapshot.
  template <typename T, typename Build>
  std::shared_ptr<const T> Artifact(const Handle& handle,
                                    const ArtifactKey& key, Build build) {
    return std::static_pointer_cast<const T>(
        ArtifactErased(handle, key, [&build](int64_t* bytes) {
          auto value = std::make_shared<const T>(build());
          *bytes = value->MemoryBytes();
          return std::shared_ptr<const void>(std::move(value));
        }));
  }

  // Aggregate outcome of one ApplyGraph call.
  struct EditApplyStats {
    int64_t entries = 0;  // entries with a live refiner (repairs + fallbacks)
    int64_t repairs = 0;
    int64_t fallbacks = 0;  // entries whose coloring work this batch discarded
    int64_t repair_splits = 0;
  };

  // Dynamic serving (docs/DYNAMIC.md): swaps in the already-mutated graph
  // (`edits` is the batch that produced it) and repairs every entry with
  // a live refiner via dynamic::TryRepair — tolerance-bounded specs are
  // re-split locally under `options.max_repair_splits`. Everything else
  // falls back: its refiner is dropped (its footprint leaves
  // bytes_in_use), and the spec's next Refine() rebuilds it from the
  // initial partition under the entry mutex, bit-identically to a fresh
  // cache over the new graph. No refiner is built for a fallback here, so
  // a batch costs only its repairs. Served snapshots of the old graph are
  // dropped.
  //
  // Holds the cache-wide unique lock for the whole call, so no Refine()
  // looks up or inserts an entry meanwhile, and moves every entry —
  // refined or not — to the new graph under that entry's mutex. A
  // Refine() already refining under its entry mutex therefore finishes on
  // the old graph; every later refinement, including the first one of an
  // entry inserted just before the batch, runs over the new graph.
  // qsc::Compressor additionally guarantees no query is mid-flight (its
  // session lock), which keeps a query's coloring and solve on one graph
  // version.
  EditApplyStats ApplyGraph(std::shared_ptr<const Graph> new_graph,
                            const std::vector<dynamic::EditOp>& edits,
                            const dynamic::RepairOptions& options);

  // The current owning graph. ApplyGraph replaces it, so the reference
  // from graph() is only stable between edit batches; shared_graph()
  // snapshots shared ownership under the map lock and is always safe.
  // Invalid (aborts) on a view-backed cache that has not seen ApplyGraph;
  // null from shared_graph() in that state.
  const Graph& graph() const {
    QSC_CHECK(graph_ != nullptr);
    return *graph_;
  }
  std::shared_ptr<const Graph> shared_graph() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return graph_;
  }

  // Snapshot of the amortization counters (consistent under concurrency).
  CacheStats stats() const;
  int64_t num_entries() const;

 private:
  struct Entry;

  using ArtifactBuilder =
      std::function<std::shared_ptr<const void>(int64_t* bytes)>;

  // Footprint accounting + unpin + budget enforcement after one Refine():
  // folds `new_bytes` (the entry's refiner and snapshots) into the total,
  // releases the caller's pin, and evicts LRU idle entries while the
  // total exceeds the budget.
  void FinishUse(const std::shared_ptr<Entry>& entry, int64_t new_bytes);

  // Evicts least-recently-used idle entries until the total is within the
  // budget; returns how many it evicted. Caller holds mutex_ uniquely.
  int64_t EvictOverBudgetLocked();

  // Type-erased Artifact(): the once-guarded lookup, the stats, and the
  // footprint charge of a fresh build.
  std::shared_ptr<const void> ArtifactErased(const Handle& handle,
                                             const ArtifactKey& key,
                                             const ArtifactBuilder& build);

  // The serving substrate: every new entry starts over view_, and
  // keepalive_ pins its backing storage (the owning graph_ or a mapped
  // file). graph_ is null for view-backed caches until ApplyGraph swaps
  // in an owning mutated graph. All three are guarded by mutex_.
  std::shared_ptr<const Graph> graph_;
  GraphView view_;
  std::shared_ptr<const void> keepalive_;
  ColoringCacheOptions options_;
  std::optional<Partition> base_;  // immutable; edits keep the node count

  mutable std::shared_mutex mutex_;  // guards entries_ and the byte
                                     // accounting (total_bytes_,
                                     // peak_bytes_, Entry::bytes); each
                                     // Entry serializes itself
  std::unordered_map<ColoringSpec, std::shared_ptr<Entry>, ColoringSpecHash>
      entries_;
  int64_t total_bytes_ = 0;
  int64_t peak_bytes_ = 0;

  // LRU clock: each Refine() stamps its entry with the next tick.
  std::atomic<uint64_t> use_clock_{0};

  mutable std::mutex stats_mutex_;
  CacheStats stats_;
};

}  // namespace qsc

#endif  // QSC_API_COLORING_CACHE_H_
