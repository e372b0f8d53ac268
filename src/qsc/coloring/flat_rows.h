// Cache-friendly sparse-row containers for the Rothko hot path.
//
// The refiner keeps, per node, the aggregated edge weight toward every
// color ("degree rows"), and per color pair a max/min aggregate. Profiling
// the 100k-node scale-free refinement scenario (docs/BENCHMARKING.md)
// showed the former dominating: one std::unordered_map<ColorId, double>
// per node means a pointer chase plus a hash per weight update, and
// rebuild passes walk the maps in allocation order. This header provides
// the flat replacements:
//
//  - FlatWeightRows: per-node rows of (key, weight) entries sorted by
//    key. Rows are short (the number of distinct neighbor colors), so
//    binary search plus a memmove-style insert beats hashing, and
//    sequential scans are cache-linear. All rows share one arena sized
//    by the graph's degrees (the CSR layout), so building and freeing a
//    refiner's rows costs a few allocations instead of one or more per
//    node; an edit batch that falls back rebuilds them for every cached
//    coloring.
//  - EpochScratch<T>: a dense ColorId-indexed accumulator reused across
//    splits without clearing — a slot is "absent" unless its stamp equals
//    the current epoch. NewEpoch() is O(1), so per-split scratch work is
//    proportional to the keys actually touched, and the backing storage is
//    allocated once per capacity growth instead of once per split.
//
// Numeric behavior is bit-identical to the map-based code by construction:
// entries accumulate in the same arithmetic order and the same zero
// tolerance drops residue entries (see rothko.cc; equivalence is enforced
// by coloring_rothko_equivalence_test.cc).

#ifndef QSC_COLORING_FLAT_ROWS_H_
#define QSC_COLORING_FLAT_ROWS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/graph/graph.h"
#include "qsc/util/check.h"

namespace qsc {

// Aggregated weights below this magnitude are treated as "no edge"; it
// absorbs floating-point residue from incremental subtraction.
constexpr double kZeroWeightTolerance = 1e-12;

// One (color, weight) entry of a sparse degree row.
struct RowEntry {
  ColorId key;
  double weight;
};

// Per-node sparse weight rows, each sorted by key, packed in one arena in
// the CSR layout: row v owns the arena slots [begin, begin + capacity).
// The arena is struct-of-arrays (keys and weights apart), so an entry
// takes 12 bytes, not a padded 16. Sizing each row by its node's degree
// fits every row in place, since a row holds at most one key per arc; a
// row that still fills up (a reset without capacities, or a key kept
// alive by rounding residue) moves to the arena's end with twice the
// room.
class FlatWeightRows {
 public:
  // Read-only view of one row, yielding entries by value; valid until the
  // next Add, Subtract or Reset.
  class Row {
   public:
    class Iterator {
     public:
      Iterator(const ColorId* key, const double* weight)
          : key_(key), weight_(weight) {}
      RowEntry operator*() const { return {*key_, *weight_}; }
      Iterator& operator++() {
        ++key_;
        ++weight_;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return key_ != o.key_; }

     private:
      const ColorId* key_;
      const double* weight_;
    };

    Row(const ColorId* keys, const double* weights, size_t size)
        : keys_(keys), weights_(weights), size_(size) {}
    Iterator begin() const { return {keys_, weights_}; }
    Iterator end() const { return {keys_ + size_, weights_ + size_}; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    RowEntry operator[](size_t i) const { return {keys_[i], weights_[i]}; }
    RowEntry back() const { return (*this)[size_ - 1]; }

   private:
    const ColorId* keys_;
    const double* weights_;
    size_t size_;
  };

  // Empties the table to `num_rows` rows, row v with room for
  // capacity(v) entries before it has to move.
  template <typename CapacityFn>
  void Reset(NodeId num_rows, CapacityFn capacity) {
    ranges_.assign(static_cast<size_t>(num_rows), {});
    int64_t total = 0;
    for (NodeId v = 0; v < num_rows; ++v) {
      ranges_[v].begin = total;
      ranges_[v].capacity = static_cast<int32_t>(capacity(v));
      total += ranges_[v].capacity;
    }
    keys_.assign(static_cast<size_t>(total), 0);
    weights_.assign(static_cast<size_t>(total), 0.0);
  }
  void Reset(NodeId num_rows) {
    Reset(num_rows, [](NodeId) { return 0; });
  }

  bool empty() const { return ranges_.empty(); }

  Row RowOf(NodeId v) const {
    QSC_DCHECK(v >= 0 && static_cast<size_t>(v) < ranges_.size());
    const Range& r = ranges_[v];
    return Row(keys_.data() + r.begin, weights_.data() + r.begin,
               static_cast<size_t>(r.size));
  }

  // Pointer to the weight for `key` in row `v`; nullptr when absent.
  const double* FindWeight(NodeId v, ColorId key) const {
    const Range& r = ranges_[v];
    const ColorId* first = keys_.data() + r.begin;
    const ColorId* last = first + r.size;
    const ColorId* it = std::lower_bound(first, last, key);
    if (it == last || *it != key) return nullptr;
    return weights_.data() + r.begin + (it - first);
  }

  // Weight for `key` in row `v`, 0.0 when absent (the sparse convention).
  double WeightOrZero(NodeId v, ColorId key) const {
    const double* w = FindWeight(v, key);
    return w == nullptr ? 0.0 : *w;
  }

  // Accumulates `w` onto the entry (inserting it when absent) and drops the
  // entry if the result lies within the zero tolerance.
  void Add(NodeId v, ColorId key, double w) {
    Range& r = ranges_[v];
    ColorId* first = keys_.data() + r.begin;
    const int64_t pos = std::lower_bound(first, first + r.size, key) - first;
    const int64_t at = r.begin + pos;
    const int64_t end = r.begin + r.size;
    if (pos < r.size && keys_[at] == key) {
      weights_[at] += w;
      if (std::abs(weights_[at]) < kZeroWeightTolerance) {
        std::copy(keys_.begin() + at + 1, keys_.begin() + end,
                  keys_.begin() + at);
        std::copy(weights_.begin() + at + 1, weights_.begin() + end,
                  weights_.begin() + at);
        --r.size;
      }
      return;
    }
    if (std::abs(w) < kZeroWeightTolerance) return;  // would erase at once
    if (r.size == r.capacity) {
      Regrow(v);
      Add(v, key, w);  // now fits
      return;
    }
    std::copy_backward(keys_.begin() + at, keys_.begin() + end,
                       keys_.begin() + end + 1);
    std::copy_backward(weights_.begin() + at, weights_.begin() + end,
                       weights_.begin() + end + 1);
    keys_[at] = key;
    weights_[at] = w;
    ++r.size;
  }

  // Subtracts `w`, treating an absent entry as an implicit 0. Absence is
  // legitimate even mid-update: positive and negative arc weights toward
  // `key` can cancel within the zero tolerance and drop the entry, after
  // which a neighbor move must re-materialize it with the remainder (the
  // map-based predecessor dereferenced end() here — silent UB in release
  // builds). Exactly Add with the sign flipped, so the tolerance policy
  // lives in one place.
  void Subtract(NodeId v, ColorId key, double w) { Add(v, key, -w); }

  // Heap footprint (range table and arena capacities) for the
  // byte-budgeted cache.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(ranges_.capacity() * sizeof(Range) +
                                keys_.capacity() * sizeof(ColorId) +
                                weights_.capacity() * sizeof(double));
  }

 private:
  struct Range {
    int64_t begin = 0;  // first arena slot
    int32_t size = 0;
    int32_t capacity = 0;
  };

  // Moves full row `v` to the arena's end with twice the room. Its old
  // slots are never reused; the doubling bounds that waste by the
  // capacity of the rows that moved.
  void Regrow(NodeId v) {
    Range& r = ranges_[v];
    const int64_t begin = static_cast<int64_t>(keys_.size());
    const int32_t capacity = std::max(2, 2 * r.capacity);
    keys_.resize(static_cast<size_t>(begin + capacity));
    weights_.resize(static_cast<size_t>(begin + capacity));
    std::copy_n(keys_.begin() + r.begin, r.size, keys_.begin() + begin);
    std::copy_n(weights_.begin() + r.begin, r.size, weights_.begin() + begin);
    r.begin = begin;
    r.capacity = capacity;
  }

  std::vector<Range> ranges_;
  std::vector<ColorId> keys_;
  std::vector<double> weights_;
};

// Dense ColorId-indexed scratch map with O(1) reuse. Values persist only
// within one epoch; Slot() reports through `fresh` whether the slot is
// first touched this epoch (its value then is a default-constructed T).
// touched() lists this epoch's keys in first-touch order.
template <typename T>
class EpochScratch {
 public:
  // Ensures keys in [0, num_keys) are addressable.
  void Grow(ColorId num_keys) {
    if (static_cast<size_t>(num_keys) > slots_.size()) {
      slots_.resize(num_keys);
      stamps_.resize(num_keys, 0);
    }
  }

  void NewEpoch() {
    ++epoch_;
    touched_.clear();
  }

  T& Slot(ColorId key, bool* fresh) {
    QSC_DCHECK(key >= 0 && static_cast<size_t>(key) < slots_.size());
    if (stamps_[key] != epoch_) {
      stamps_[key] = epoch_;
      slots_[key] = T{};
      touched_.push_back(key);
      *fresh = true;
    } else {
      *fresh = false;
    }
    return slots_[key];
  }

  // Marks `key` as touched (default value on first touch).
  void Touch(ColorId key) {
    bool fresh;
    Slot(key, &fresh);
  }

  bool Contains(ColorId key) const {
    return key >= 0 && static_cast<size_t>(key) < slots_.size() &&
           stamps_[key] == epoch_;
  }

  const T& At(ColorId key) const {
    QSC_DCHECK(Contains(key));
    return slots_[key];
  }

  const std::vector<ColorId>& touched() const { return touched_; }

  // Heap footprint (backing-store capacities) for the byte-budgeted cache.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(T) +
                                stamps_.capacity() * sizeof(uint64_t) +
                                touched_.capacity() * sizeof(ColorId));
  }

 private:
  std::vector<T> slots_;
  std::vector<uint64_t> stamps_;
  std::vector<ColorId> touched_;
  // Starts above the zero-initialized stamps so no slot is "current"
  // before its first touch, even before the first NewEpoch().
  uint64_t epoch_ = 1;
};

}  // namespace qsc

#endif  // QSC_COLORING_FLAT_ROWS_H_
