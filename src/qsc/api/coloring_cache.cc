#include "qsc/api/coloring_cache.h"

#include <algorithm>
#include <utility>

#include "qsc/api/hashing.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

ColoringParams ToColoringParams(const ColoringSpec& spec, ThreadPool* pool) {
  ColoringParams params;
  // The color budget is owned by the Refine() loop, not the backend.
  params.q_tolerance = spec.q_tolerance;
  params.alpha = spec.alpha;
  params.beta = spec.beta;
  params.split_mean = spec.split_mean;
  params.pool = pool;  // speeds up internal scans; never changes a split
  return params;
}

// Builds the spec's refiner over `view` from its initial partition.
// Aborts on unknown backend names (the Compressor boundary validates
// before a spec reaches the cache).
std::unique_ptr<RothkoRefiner> MakeBackend(const GraphView& view,
                                           const ColoringSpec& spec,
                                           const std::optional<Partition>& base,
                                           ThreadPool* pool) {
  return MakeRefiner(api_internal::BackendOrDefault(spec.backend), view,
                     base.has_value() ? InitialPartition(spec, *base)
                                      : InitialPartition(spec, view.num_nodes()),
                     ToColoringParams(spec, pool));
}

}  // namespace

bool operator==(const ColoringSpec& a, const ColoringSpec& b) {
  return a.alpha == b.alpha && a.beta == b.beta &&
         a.q_tolerance == b.q_tolerance && a.split_mean == b.split_mean &&
         api_internal::BackendOrDefault(a.backend) ==
             api_internal::BackendOrDefault(b.backend) &&
         a.pinned == b.pinned;
}

size_t ColoringSpecHash::operator()(const ColoringSpec& spec) const {
  using api_internal::HashMixDouble;
  using api_internal::HashMixWord;
  uint64_t h = api_internal::kFnvOffsetBasis;
  h = HashMixDouble(h, spec.alpha);
  h = HashMixDouble(h, spec.beta);
  h = HashMixDouble(h, spec.q_tolerance);
  h = HashMixWord(h, static_cast<uint64_t>(spec.split_mean));
  // The default backend mixes nothing (HashMixBackendName), keeping
  // default-constructed specs' hashes bit-identical to pre-registry ones.
  h = api_internal::HashMixBackendName(h, spec.backend);
  for (const NodeId pin : spec.pinned) {
    h = HashMixWord(h, static_cast<uint64_t>(pin));
  }
  return static_cast<size_t>(h);
}

Partition InitialPartition(const ColoringSpec& spec, const Partition& base) {
  // Pins take labels 0..k-1 and base color c becomes k + c, so a node
  // keeps its base color unless it is pinned.
  const int32_t num_pins = static_cast<int32_t>(spec.pinned.size());
  std::vector<int32_t> labels(base.num_nodes());
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    labels[v] = num_pins + base.ColorOf(v);
  }
  for (int32_t i = 0; i < num_pins; ++i) {
    const NodeId pin = spec.pinned[i];
    QSC_CHECK(pin >= 0 && pin < base.num_nodes());
    labels[pin] = i;
  }
  return Partition::FromColorIds(labels);
}

Partition InitialPartition(const ColoringSpec& spec, NodeId num_nodes) {
  return InitialPartition(spec, Partition::Trivial(num_nodes));
}

struct ColoringCache::Entry {
  Entry(GraphView graph_view, std::shared_ptr<const void> graph_keepalive)
      : view(std::move(graph_view)), keepalive(std::move(graph_keepalive)) {}

  // Serializes every read and write of the refinement fields below. Held
  // for the whole refinement of one request, so concurrent requests
  // against one spec queue behind each other while distinct specs proceed
  // in parallel.
  std::mutex mutex;

  // The graph this entry's refiners run over, and what pins its storage.
  // Set at insertion and by every ApplyGraph, refined entry or not, so a
  // refiner is never built over a graph an edit batch has replaced.
  GraphView view;
  std::shared_ptr<const void> keepalive;

  // Built lazily under `mutex` on first use, so inserting the map slot
  // (under the cache-wide unique lock) stays O(1) and never blocks other
  // specs behind a graph scan.
  std::unique_ptr<RothkoRefiner> refiner;

  // Colors of the spec's initial partition (pins + 1); no budget can go
  // below this, exactly as in RothkoRefiner::Run().
  ColorId initial_colors = 0;
  // Step() returned false: the coloring converged (q <= tolerance or no
  // splittable color); larger budgets cannot advance it.
  bool converged = false;
  // Snapshot of the refiner's current partition; reset on refinement.
  std::shared_ptr<const Partition> head;
  // Snapshots previously served, keyed by requested budget. Serves
  // down-budget requests without rerunning (splits are not invertible).
  std::map<ColorId, std::pair<std::shared_ptr<const Partition>, double>>
      served;

  // Pin count of in-flight Refine() calls. Increments happen under the
  // cache map lock (shared or unique) and the eviction scan runs under
  // the unique lock, so a scan that observes 0 cannot race a new pin;
  // only entries with active == 0 are evictable.
  std::atomic<int32_t> active{0};
  // LRU stamp from the cache-wide use clock, set at acquisition.
  std::atomic<uint64_t> last_used{0};
  // Footprint last folded into the cache total; guarded by the cache
  // map's unique lock.
  int64_t bytes = 0;

  // Footprint of this entry: the live refiner plus every distinct served
  // snapshot (down-budget memoizations often alias the head or each
  // other; each partition is counted once). Caller holds `mutex`.
  int64_t MemoryBytes() const {
    int64_t total = static_cast<int64_t>(sizeof(Entry));
    if (refiner != nullptr) total += refiner->MemoryBytes();
    std::vector<const Partition*> counted;
    const auto count = [&](const std::shared_ptr<const Partition>& p) {
      if (p == nullptr) return;
      if (std::find(counted.begin(), counted.end(), p.get()) !=
          counted.end()) {
        return;
      }
      counted.push_back(p.get());
      total += p->MemoryBytes();
    };
    count(head);
    for (const auto& [budget, snapshot] : served) {
      total += static_cast<int64_t>(sizeof(ColorId) + sizeof(snapshot));
      count(snapshot.first);
    }
    return total;
  }
};

ColoringCache::ColoringCache(std::shared_ptr<const Graph> graph,
                             ThreadPool* pool,
                             const ColoringCacheOptions& options,
                             std::optional<Partition> base)
    : graph_(std::move(graph)),
      pool_(pool),
      options_(options),
      base_(std::move(base)) {
  QSC_CHECK(graph_ != nullptr);
  QSC_CHECK_GE(options_.byte_budget, 0);
  QSC_CHECK(!base_.has_value() || base_->num_nodes() == graph_->num_nodes());
  view_ = GraphView(*graph_);
  keepalive_ = graph_;
}

ColoringCache::ColoringCache(GraphView view,
                             std::shared_ptr<const void> keepalive,
                             ThreadPool* pool,
                             const ColoringCacheOptions& options)
    : view_(std::move(view)),
      keepalive_(std::move(keepalive)),
      pool_(pool),
      options_(options) {
  QSC_CHECK_GE(options_.byte_budget, 0);
}

ColoringCache::~ColoringCache() = default;

CacheStats ColoringCache::stats() const {
  CacheStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    snapshot.bytes_in_use = total_bytes_;
    snapshot.peak_bytes = peak_bytes_;
  }
  return snapshot;
}

int64_t ColoringCache::num_entries() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return static_cast<int64_t>(entries_.size());
}

ColoringCache::Handle ColoringCache::Refine(const ColoringSpec& spec,
                                            ColorId budget) {
  QSC_CHECK_GT(budget, 0);
  WallTimer timer;
  Handle handle;
  // Canonical accounting key; also the registry key MakeBackend uses, so
  // a lookup and its backend row can never disagree.
  const std::string& backend_name =
      api_internal::BackendOrDefault(spec.backend);

  // Find-or-insert the spec's entry: optimistic shared lock first, then
  // the unique lock only on the insert path (double-checked via
  // try_emplace, so two racing first queries create one entry and the
  // loser counts as a hit — the same totals a serialized pair produces).
  // The entry is pinned (active++) under the map lock, which keeps the
  // eviction scan — it runs under the unique lock and skips active
  // entries — from dropping an entry a request is about to refine.
  std::shared_ptr<Entry> entry;
  bool found = true;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = entries_.find(spec);
    if (it != entries_.end()) {
      entry = it->second;
      entry->active.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (entry == nullptr) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const auto [it, inserted] = entries_.try_emplace(spec, nullptr);
    if (inserted) it->second = std::make_shared<Entry>(view_, keepalive_);
    found = !inserted;
    entry = it->second;
    entry->active.fetch_add(1, std::memory_order_relaxed);
  }
  entry->last_used.store(
      1 + use_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);

  // The request's single stats bucket, decided under the entry lock and
  // counted once below. The request that inserted the entry is a miss
  // whichever branch serves it: a racing higher-budget request may have
  // refined the new entry past this budget first, which sends the miss
  // down the down-budget branch without making it a hit or a recoloring.
  enum class Outcome { kHit, kMiss, kRecoloring };
  Outcome outcome = found ? Outcome::kHit : Outcome::kMiss;
  int64_t entry_bytes = 0;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    if (entry->refiner == nullptr) {
      entry->refiner = MakeBackend(entry->view, spec, base_, pool_);
      entry->initial_colors = entry->refiner->partition().num_colors();
    }

    // A budget below the initial color count cannot be met (pins are never
    // merged); Run() serves the initial partition there, and so do we —
    // without taking the down-budget recompute path.
    budget = std::max(budget, entry->initial_colors);

    if (entry->refiner->partition().num_colors() > budget) {
      // Down-budget request on a refiner that has already split past
      // `budget`: serve the memoized snapshot, or recompute this budget
      // once.
      const auto served = entry->served.find(budget);
      if (served != entry->served.end()) {
        handle.cache_hit = found;
        handle.partition = served->second.first;
        handle.max_error = served->second.second;
      } else {
        const std::unique_ptr<RothkoRefiner> fresh =
            MakeBackend(entry->view, spec, base_, pool_);
        const ColorId initial = fresh->partition().num_colors();
        fresh->RefineTo(budget);
        handle.splits = fresh->partition().num_colors() - initial;
        if (found) outcome = Outcome::kRecoloring;
        handle.partition =
            std::make_shared<const Partition>(fresh->partition());
        handle.max_error = fresh->CurrentMaxError();
        entry->served[budget] = {handle.partition, handle.max_error};
      }
    } else {
      // Continue the cached refinement — the same loop as
      // RothkoRefiner::Run(), so the result is bit-identical to a fresh
      // run at `budget`.
      handle.cache_hit = found;
      const ColorId before = entry->refiner->partition().num_colors();
      if (!entry->converged && !entry->refiner->RefineTo(budget)) {
        entry->converged = true;
      }
      handle.splits = entry->refiner->partition().num_colors() - before;
      if (handle.splits > 0 || entry->head == nullptr) {
        entry->head =
            std::make_shared<const Partition>(entry->refiner->partition());
      }
      handle.partition = entry->head;
      handle.max_error = entry->refiner->CurrentMaxError();
      entry->served[budget] = {handle.partition, handle.max_error};
    }
    entry_bytes = entry->MemoryBytes();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    CacheStats::BackendStats& row = stats_.per_backend[backend_name];
    ++stats_.lookups;
    ++row.lookups;
    stats_.refine_splits += handle.splits;
    row.refine_splits += handle.splits;
    switch (outcome) {
      case Outcome::kHit:
        ++stats_.hits;
        ++row.hits;
        break;
      case Outcome::kMiss:
        ++stats_.misses;
        ++row.misses;
        break;
      case Outcome::kRecoloring:
        ++stats_.recolorings;
        ++row.recolorings;
        break;
    }
  }

  FinishUse(entry, entry_bytes);
  handle.seconds = timer.ElapsedSeconds();
  return handle;
}

ColoringCache::EditApplyStats ColoringCache::ApplyGraph(
    std::shared_ptr<const Graph> new_graph,
    const std::vector<dynamic::EditOp>& edits,
    const dynamic::RepairOptions& options) {
  QSC_CHECK(new_graph != nullptr);
  QSC_CHECK_EQ(new_graph->num_nodes(), view_.num_nodes());
  EditApplyStats result;
  // (backend row, repaired?) per visited entry, applied to the stats
  // after the map lock drops.
  std::vector<std::pair<std::string, bool>> attributions;
  {
    // The unique map lock serializes against every Refine(); entry
    // mutexes are acquired inside it, which is safe because Refine never
    // waits on the map lock while holding an entry mutex.
    std::unique_lock<std::shared_mutex> lock(mutex_);
    graph_ = std::move(new_graph);
    view_ = GraphView(*graph_);
    keepalive_ = graph_;
    for (auto& [spec, entry] : entries_) {
      std::lock_guard<std::mutex> entry_lock(entry->mutex);
      // Every entry moves to the new graph, refined or not. The old
      // keepalive pins the graph the old refiner reads until the refiner
      // is replaced below.
      const std::shared_ptr<const void> old_graph =
          std::exchange(entry->keepalive, keepalive_);
      entry->view = view_;
      // Never refined: nothing to repair. The next Refine() builds it
      // over the new graph.
      if (entry->refiner == nullptr) continue;
      const std::string& backend_name =
          api_internal::BackendOrDefault(spec.backend);
      dynamic::RepairOutcome outcome;
      std::unique_ptr<RothkoRefiner> repaired = dynamic::TryRepair(
          backend_name, view_, entry->refiner->partition(),
          ToColoringParams(spec, pool_), options, &outcome);
      // Fallback: rebuild from the spec's initial partition, as the entry
      // was first built. Refinement from here is bit-identical to a
      // from-scratch run on the new graph.
      entry->refiner = repaired != nullptr
                           ? std::move(repaired)
                           : MakeBackend(view_, spec, base_, pool_);
      entry->converged = outcome.converged;
      // Snapshots of the old graph's colorings must not be served again.
      entry->head = nullptr;
      entry->served.clear();
      ++result.entries;
      if (outcome.repaired) {
        ++result.repairs;
        result.repair_splits += outcome.splits;
      } else {
        ++result.fallbacks;
      }
      attributions.emplace_back(backend_name, outcome.repaired);
      const int64_t new_bytes = entry->MemoryBytes();
      total_bytes_ += new_bytes - entry->bytes;
      entry->bytes = new_bytes;
      if (total_bytes_ > peak_bytes_) peak_bytes_ = total_bytes_;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.edit_batches;
    stats_.edits_applied += static_cast<int64_t>(edits.size());
    stats_.repairs += result.repairs;
    stats_.fallbacks += result.fallbacks;
    stats_.repair_splits += result.repair_splits;
    for (const auto& [backend_name, repaired] : attributions) {
      CacheStats::BackendStats& row = stats_.per_backend[backend_name];
      if (repaired) {
        ++row.repairs;
      } else {
        ++row.fallbacks;
      }
    }
  }
  return result;
}

void ColoringCache::FinishUse(const std::shared_ptr<Entry>& entry,
                              int64_t new_bytes) {
  int64_t evicted = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    total_bytes_ += new_bytes - entry->bytes;
    entry->bytes = new_bytes;
    if (total_bytes_ > peak_bytes_) peak_bytes_ = total_bytes_;
    // Unpin before evicting so the budget can be enforced even when this
    // request's own entry is the only candidate (a single entry larger
    // than the budget must not park the cache above it).
    entry->active.fetch_sub(1, std::memory_order_relaxed);
    if (options_.byte_budget > 0) {
      while (total_bytes_ > options_.byte_budget) {
        auto victim = entries_.end();
        uint64_t oldest = 0;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          const Entry& candidate = *it->second;
          if (candidate.active.load(std::memory_order_relaxed) != 0) continue;
          const uint64_t stamp =
              candidate.last_used.load(std::memory_order_relaxed);
          if (victim == entries_.end() || stamp < oldest) {
            victim = it;
            oldest = stamp;
          }
        }
        if (victim == entries_.end()) break;  // everything pinned
        total_bytes_ -= victim->second->bytes;
        entries_.erase(victim);
        ++evicted;
      }
    }
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.evictions += evicted;
  }
}

}  // namespace qsc
