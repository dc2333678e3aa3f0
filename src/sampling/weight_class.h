// Bingo-style power-of-two weight-class sampling for mutable rows
// (ROADMAP item 2; see docs/DYNAMIC_GRAPHS.md).
//
// A WeightClassRow buckets a row's edges by floor(log2(weight)): bucket c
// holds weights in [2^(e_c), 2^(e_c+1)), so within a bucket the maximum /
// minimum weight ratio is < 2 and uniform-draw-then-reject sampling accepts
// with probability > 1/2 — O(1) expected. Sampling first picks a bucket by a
// CDF walk over at most kNumClasses running totals, then rejects inside it.
//
// The point of the structure is the update cost: insert appends to one
// bucket, delete swap-removes from one bucket, reweight moves one entry
// between two buckets — all O(1), no row rebuild (the alias table would cost
// O(degree) per update). Every entry carries its (class, position) so the
// engine's swap-with-last row edits mirror here in O(1) too.
//
// Determinism: bucket totals are maintained incrementally in double. They
// drift from the exact sum as IEEE arithmetic does, but identically for any
// replay of the same mutation sequence — which is all the engine's
// byte-identical-recovery contract needs.
#ifndef SRC_SAMPLING_WEIGHT_CLASS_H_
#define SRC_SAMPLING_WEIGHT_CLASS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/sampling/alias_table.h"
#include "src/util/check.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/types.h"

namespace knightking {

namespace weight_class_internal {

// Shared class geometry: 64 classes covering weights in [2^-32, 2^32),
// out-of-range weights clamped to the edge classes. -1 is the zero class
// (edges that exist but are never sampled — reweight-to-zero parks them
// there).
inline constexpr int kMinExp = -32;
inline constexpr int kNumClasses = 64;

inline int8_t ClassOf(real_t w) {
  if (w <= 0.0f) return -1;
  int e = std::ilogb(w) - kMinExp;
  if (e < 0) e = 0;
  if (e >= kNumClasses) e = kNumClasses - 1;
  return static_cast<int8_t>(e);
}

}  // namespace weight_class_internal

class WeightClassRow {
 public:
  // 64 classes covering weights in [2^-32, 2^32). Out-of-range weights clamp
  // to the edge classes; per-bucket `bound` tracks the true maximum so
  // rejection stays correct (just less efficient) for clamped entries.
  static constexpr int kMinExp = weight_class_internal::kMinExp;
  static constexpr int kNumClasses = weight_class_internal::kNumClasses;
  // Rejection attempts before falling back to an exact in-bucket CDF scan.
  // With in-range weights acceptance is > 1/2, so 32 straight rejections is
  // a ~2^-32 event; the fallback bounds the tail for clamped tiny weights.
  static constexpr int kMaxRejects = 32;

  // (Re)builds from a full weight vector — the first-touch path when a clean
  // row gets its first mutation. O(degree), counted by the overlay as a row
  // build, never triggered by subsequent updates.
  void Build(std::span<const real_t> weights) {
    for (Bucket& b : buckets_) {
      b.items.clear();
      b.total = 0.0;
      b.bound = 0.0f;
    }
    class_of_.clear();
    pos_of_.clear();
    weight_of_.clear();
    total_ = 0.0;
    max_bound_ = 0.0f;
    class_of_.reserve(weights.size());
    pos_of_.reserve(weights.size());
    weight_of_.reserve(weights.size());
    for (real_t w : weights) {
      PushBack(w);
    }
  }

  // Appends the edge at local index size() with weight w. O(1).
  void PushBack(real_t w) {
    KK_CHECK_MSG(std::isfinite(w) && w >= 0.0f, "weight-class row rejects weight %f",
                 static_cast<double>(w));
    const uint32_t idx = static_cast<uint32_t>(weight_of_.size());
    weight_of_.push_back(w);
    class_of_.push_back(0);
    pos_of_.push_back(0);
    Attach(idx, w);
  }

  // Mirrors the overlay row's swap-with-last delete of local index i: the
  // last edge takes index i. O(1).
  void SwapRemove(uint32_t i) {
    const uint32_t last = static_cast<uint32_t>(weight_of_.size() - 1);
    KK_DCHECK(i <= last);
    Detach(i);
    if (i != last) {
      // Re-point the last edge's bucket entry at its new index.
      const int8_t c = class_of_[last];
      const uint32_t pos = pos_of_[last];
      ItemsOf(c)[pos] = i;
      class_of_[i] = c;
      pos_of_[i] = pos;
      weight_of_[i] = weight_of_[last];
    }
    class_of_.pop_back();
    pos_of_.pop_back();
    weight_of_.pop_back();
  }

  // Changes the weight of local index i: detaches from its current bucket,
  // reattaches in the (possibly different) class of w. O(1).
  void Reweight(uint32_t i, real_t w) {
    KK_CHECK_MSG(std::isfinite(w) && w >= 0.0f, "weight-class row rejects weight %f",
                 static_cast<double>(w));
    KK_DCHECK(i < weight_of_.size());
    Detach(i);
    weight_of_[i] = w;
    Attach(i, w);
  }

  // Samples a local edge index proportional to weight. Consumes a variable
  // number of draws from `rng` (walker-local, so placement-independent).
  uint32_t Sample(Rng& rng) const {
    KK_DCHECK(total_ > 0.0);
    const double r = rng.NextDouble(total_);
    const Bucket* chosen = nullptr;
    double cum = 0.0;
    for (const Bucket& b : buckets_) {
      if (b.items.empty() || b.total <= 0.0) continue;
      chosen = &b;
      cum += b.total;
      if (r < cum) break;
    }
    // FP drift in the running totals can leave r >= cum; the scan then lands
    // on the last non-empty bucket, which is the correct clamp.
    KK_CHECK(chosen != nullptr);
    for (int attempt = 0; attempt < kMaxRejects; ++attempt) {
      const uint32_t k = static_cast<uint32_t>(rng.NextUInt64(chosen->items.size()));
      const uint32_t idx = chosen->items[k];
      if (rng.NextFloat() * chosen->bound < weight_of_[idx]) {
        return idx;
      }
    }
    return ExactScan(*chosen, rng);
  }

  double total_weight() const { return total_; }

  // Monotone upper bound on every weight the row has ever held (removals do
  // not lower it). Callers use it as a width bound, so an over-estimate costs
  // efficiency, never correctness.
  real_t max_weight() const { return max_bound_; }

  uint32_t size() const { return static_cast<uint32_t>(weight_of_.size()); }

  uint64_t MemoryBytes() const {
    uint64_t bytes = sizeof(*this);
    for (const Bucket& b : buckets_) {
      bytes += b.items.capacity() * sizeof(uint32_t);
    }
    bytes += zero_items_.capacity() * sizeof(uint32_t);
    bytes += class_of_.capacity() * sizeof(int8_t);
    bytes += pos_of_.capacity() * sizeof(uint32_t);
    bytes += weight_of_.capacity() * sizeof(real_t);
    return bytes;
  }

 private:
  struct Bucket {
    std::vector<uint32_t> items;  // local edge indices in this weight class
    double total = 0.0;           // running sum of member weights
    real_t bound = 0.0f;          // >= every member weight (rejection ceiling)
  };

  static int8_t ClassOf(real_t w) { return weight_class_internal::ClassOf(w); }

  std::vector<uint32_t>& ItemsOf(int8_t c) {
    return c < 0 ? zero_items_ : buckets_[static_cast<size_t>(c)].items;
  }

  void Attach(uint32_t idx, real_t w) {
    const int8_t c = ClassOf(w);
    class_of_[idx] = c;
    if (c < 0) {
      pos_of_[idx] = static_cast<uint32_t>(zero_items_.size());
      zero_items_.push_back(idx);
      return;
    }
    Bucket& b = buckets_[static_cast<size_t>(c)];
    pos_of_[idx] = static_cast<uint32_t>(b.items.size());
    b.items.push_back(idx);
    b.total += static_cast<double>(w);
    total_ += static_cast<double>(w);
    const real_t class_ceiling = std::ldexp(1.0f, kMinExp + c + 1);
    if (b.bound < class_ceiling) b.bound = class_ceiling;
    if (b.bound < w) b.bound = w;
    if (max_bound_ < w) max_bound_ = w;
  }

  void Detach(uint32_t idx) {
    const int8_t c = class_of_[idx];
    const uint32_t pos = pos_of_[idx];
    std::vector<uint32_t>& items = ItemsOf(c);
    KK_DCHECK(pos < items.size() && items[pos] == idx);
    const uint32_t moved = items.back();
    items[pos] = moved;
    pos_of_[moved] = pos;
    items.pop_back();
    if (c >= 0) {
      Bucket& b = buckets_[static_cast<size_t>(c)];
      const double w = static_cast<double>(weight_of_[idx]);
      b.total -= w;
      total_ -= w;
      if (b.items.empty()) {
        // Zero the drift so an emptied class contributes exactly nothing.
        total_ -= b.total;
        b.total = 0.0;
        b.bound = 0.0f;
      }
      if (total_ < 0.0) total_ = 0.0;
    }
  }

  // Exact in-bucket CDF scan, reached only after kMaxRejects straight
  // rejections (clamped-weight pathology). O(bucket size), still correct and
  // deterministic.
  uint32_t ExactScan(const Bucket& b, Rng& rng) const {
    const double r = rng.NextDouble(b.total);
    double cum = 0.0;
    for (uint32_t idx : b.items) {
      cum += static_cast<double>(weight_of_[idx]);
      if (r < cum) return idx;
    }
    for (size_t k = b.items.size(); k-- > 0;) {
      if (weight_of_[b.items[k]] > 0.0f) return b.items[k];
    }
    return b.items.back();
  }

  std::array<Bucket, kNumClasses> buckets_;
  std::vector<uint32_t> zero_items_;
  std::vector<int8_t> class_of_;   // per local index; -1 = zero class
  std::vector<uint32_t> pos_of_;   // per local index: position within its bucket
  std::vector<real_t> weight_of_;  // per local index
  double total_ = 0.0;
  real_t max_bound_ = 0.0f;
};

// Lazy per-class alias row: Bingo's full radix bias factorization (ROADMAP
// item 2), the `kAliasClass` dynamic sampler. Where WeightClassRow eagerly
// builds every bucket's item list on first touch and rejection-samples inside
// a bucket, this row does the minimum work each event actually needs:
//
//   * Build() is one O(degree) summary pass — per-class counts and weight
//     totals plus a per-edge class tag. No item lists, no 64-bucket array.
//   * The first Sample() landing in a class materializes that class only:
//     its member list (ascending edge-index order) and a Vose alias table
//     over the member weights, O(degree) + O(bucket) once. Classes a walk
//     never touches are never built — the overlay counts these as
//     bucket_builds, distinct from full_builds.
//   * Sampling is a CDF walk over the live classes followed by one alias
//     draw: exactly three RNG draws, zero rejection attempts.
//   * Mutations stay O(1): they adjust the class summary and invalidate the
//     class's alias (and, when membership changes, its item list), which the
//     next sample rebuilds in O(bucket).
//
// Materialized state is always a pure function of the current (class, weight)
// assignment — item lists are kept in ascending index order and dropped
// whenever membership changes — so a crash-recovery replay that skips the
// sampling reproduces byte-identical draws once sampling resumes.
//
// Thread safety: mutators and Build are driver-only (between supersteps, no
// concurrent reader — same contract as WeightClassRow). Sample() runs on
// concurrent workers and may materialize a class: builds serialize on the
// row mutex and publish via a release-store on the per-class ready bitmask,
// which readers acquire-load before touching items/prob/alias lock-free.
class LazyAliasRow {
 public:
  static constexpr int kMinExp = weight_class_internal::kMinExp;
  static constexpr int kNumClasses = weight_class_internal::kNumClasses;

  // O(degree) summary build — the first-touch path when a clean row gets its
  // first mutation. Counted by the overlay as a full build.
  void Build(std::span<const real_t> weights) {
    classes_.clear();
    class_of_.clear();
    weight_of_.clear();
    total_ = 0.0;
    max_bound_ = 0.0f;
    ready_.store(0, std::memory_order_relaxed);
    class_of_.reserve(weights.size());
    weight_of_.reserve(weights.size());
    for (real_t w : weights) {
      PushBack(w);
    }
  }

  // Appends the edge at local index size() with weight w. O(1) amortized
  // (plus a one-time sorted insert when w opens a new weight class).
  void PushBack(real_t w) {
    KK_CHECK_MSG(std::isfinite(w) && w >= 0.0f, "weight-class row rejects weight %f",
                 static_cast<double>(w));
    const uint32_t idx = size();
    const int8_t c = weight_class_internal::ClassOf(w);
    weight_of_.push_back(w);
    class_of_.push_back(c);
    if (c < 0) return;
    ClassBucket& cb = BucketFor(c);
    ++cb.count;
    cb.total += static_cast<double>(w);
    total_ += static_cast<double>(w);
    if (max_bound_ < w) max_bound_ = w;
    if (cb.has_items) {
      // The appended index is the row's largest, so pushing it keeps the
      // item list in ascending (scan) order; only the alias goes stale.
      cb.items.push_back(idx);
    }
    ClearReady(c);
  }

  // Mirrors the overlay row's swap-with-last delete of local index i. O(1).
  void SwapRemove(uint32_t i) {
    const uint32_t last = size() - 1;
    KK_DCHECK(i <= last);
    DetachAt(i);
    if (i != last) {
      class_of_[i] = class_of_[last];
      weight_of_[i] = weight_of_[last];
      // Index `last` renumbers to `i`: its class's item list (if built)
      // holds a stale index now, so drop it back to rebuild-on-next-sample.
      DropItems(class_of_[last]);
    }
    class_of_.pop_back();
    weight_of_.pop_back();
  }

  // Changes the weight of local index i. O(1); an in-class reweight keeps
  // the (membership-unchanged) item list and only stales the alias.
  void Reweight(uint32_t i, real_t w) {
    KK_CHECK_MSG(std::isfinite(w) && w >= 0.0f, "weight-class row rejects weight %f",
                 static_cast<double>(w));
    KK_DCHECK(i < size());
    const int8_t oc = class_of_[i];
    const int8_t nc = weight_class_internal::ClassOf(w);
    if (oc == nc && oc >= 0) {
      ClassBucket& cb = *FindBucket(oc);
      const double old_w = static_cast<double>(weight_of_[i]);
      cb.total -= old_w;
      total_ -= old_w;
      cb.total += static_cast<double>(w);
      total_ += static_cast<double>(w);
      weight_of_[i] = w;
      if (max_bound_ < w) max_bound_ = w;
      ClearReady(oc);
      return;
    }
    DetachAt(i);
    weight_of_[i] = w;
    class_of_[i] = nc;
    if (nc < 0) return;
    ClassBucket& cb = BucketFor(nc);
    ++cb.count;
    cb.total += static_cast<double>(w);
    total_ += static_cast<double>(w);
    if (max_bound_ < w) max_bound_ = w;
    DropItems(nc);  // i is an arbitrary index: scan order is not maintainable
  }

  // Samples a local edge index proportional to weight: a CDF walk over the
  // live classes, then one alias draw — exactly three RNG draws, never a
  // rejection loop. Safe on concurrent workers (see class comment).
  uint32_t Sample(Rng& rng) {
    KK_DCHECK(total_ > 0.0);
    const double r = rng.NextDouble(total_);
    size_t chosen = classes_.size();
    double cum = 0.0;
    for (size_t k = 0; k < classes_.size(); ++k) {
      const ClassBucket& cb = classes_[k];
      if (cb.count == 0 || cb.total <= 0.0) continue;
      chosen = k;
      cum += cb.total;
      if (r < cum) break;
    }
    // FP drift in the running totals can leave r >= cum; the scan then lands
    // on the last live class, which is the correct clamp.
    KK_CHECK(chosen < classes_.size());
    ClassBucket& cb = classes_[chosen];
    const uint64_t bit = 1ull << static_cast<unsigned>(cb.cls);
    if ((ready_.load(std::memory_order_acquire) & bit) == 0) {
      MaterializeClass(cb, bit);
    }
    return cb.items[alias_internal::SampleAliasRow(cb.prob, cb.alias, rng)];
  }

  double total_weight() const { return total_; }

  // Monotone upper bound on every weight the row has ever held (removals do
  // not lower it) — same width-bound contract as WeightClassRow.
  real_t max_weight() const { return max_bound_; }

  uint32_t size() const { return static_cast<uint32_t>(weight_of_.size()); }

  // Class materializations + alias rebuilds performed by samples so far.
  uint64_t bucket_builds() const { return bucket_builds_.load(std::memory_order_relaxed); }

  uint64_t MemoryBytes() const {
    uint64_t bytes = sizeof(*this);
    for (const ClassBucket& cb : classes_) {
      bytes += sizeof(ClassBucket) + cb.items.capacity() * sizeof(uint32_t) +
               cb.prob.capacity() * sizeof(real_t) + cb.alias.capacity() * sizeof(uint32_t);
    }
    bytes += class_of_.capacity() * sizeof(int8_t);
    bytes += weight_of_.capacity() * sizeof(real_t);
    return bytes;
  }

 private:
  struct ClassBucket {
    int8_t cls = 0;      // class id in [0, kNumClasses); zero class never listed
    uint32_t count = 0;  // live members (entry persists at 0 for slot stability)
    double total = 0.0;  // running sum of member weights (exact-zeroed on empty)
    // Lazily built sampling state: `items` lists member edge indices in
    // ascending order, prob/alias is the Vose table over their weights.
    // Written under the row mutex (workers) or between phases (driver); read
    // lock-free only after an acquire-load sees this class's ready bit.
    bool has_items = false;
    std::vector<uint32_t> items;
    std::vector<real_t> prob;
    std::vector<uint32_t> alias;
  };

  // Live-class entry for c, inserted (sorted by class id) on first use.
  // Driver-only: samples never create classes.
  ClassBucket& BucketFor(int8_t c) {
    size_t k = 0;
    while (k < classes_.size() && classes_[k].cls < c) ++k;
    if (k == classes_.size() || classes_[k].cls != c) {
      ClassBucket cb;
      cb.cls = c;
      classes_.insert(classes_.begin() + static_cast<ptrdiff_t>(k), std::move(cb));
    }
    return classes_[k];
  }

  ClassBucket* FindBucket(int8_t c) {
    for (ClassBucket& cb : classes_) {
      if (cb.cls == c) return &cb;
    }
    KK_CHECK_MSG(false, "weight class %d has no bucket", static_cast<int>(c));
    return nullptr;
  }

  // Removes index i's weight from its class summary and drops the class's
  // materialized items (membership changed). Leaves class_of_/weight_of_
  // untouched for the caller to overwrite.
  void DetachAt(uint32_t i) {
    const int8_t c = class_of_[i];
    if (c < 0) return;
    ClassBucket& cb = *FindBucket(c);
    KK_DCHECK(cb.count > 0);
    --cb.count;
    const double w = static_cast<double>(weight_of_[i]);
    cb.total -= w;
    total_ -= w;
    if (cb.count == 0) {
      // Zero the drift so an emptied class contributes exactly nothing.
      total_ -= cb.total;
      cb.total = 0.0;
    }
    if (total_ < 0.0) total_ = 0.0;
    DropItems(c);
  }

  void DropItems(int8_t c) {
    if (c < 0) return;
    ClassBucket& cb = *FindBucket(c);
    cb.has_items = false;
    cb.items.clear();
    ClearReady(c);
  }

  // Driver-side staleness mark; visibility to workers rides on the engine's
  // superstep barrier, so relaxed ordering suffices.
  void ClearReady(int8_t c) {
    ready_.fetch_and(~(1ull << static_cast<unsigned>(c)), std::memory_order_relaxed);
  }

  // Worker-side (re)build of one class's item list + alias table: serialize
  // on the row mutex, publish with a release-store of the ready bit.
  void MaterializeClass(ClassBucket& cb, uint64_t bit) {
    MutexLock lock(mu_);
    if ((ready_.load(std::memory_order_relaxed) & bit) != 0) {
      return;  // another worker built it while we waited on the lock
    }
    if (!cb.has_items) {
      cb.items.clear();
      for (uint32_t i = 0; i < static_cast<uint32_t>(class_of_.size()); ++i) {
        if (class_of_[i] == cb.cls) cb.items.push_back(i);
      }
      cb.has_items = true;
    }
    KK_DCHECK(cb.items.size() == cb.count);
    std::vector<real_t> weights(cb.items.size());
    for (size_t k = 0; k < cb.items.size(); ++k) {
      weights[k] = weight_of_[cb.items[k]];
    }
    cb.prob.resize(cb.items.size());
    cb.alias.resize(cb.items.size());
    alias_internal::AliasScratch scratch;
    alias_internal::BuildAliasRow(weights, cb.prob, cb.alias, scratch);
    bucket_builds_.fetch_add(1, std::memory_order_relaxed);
    ready_.fetch_or(bit, std::memory_order_release);
  }

  std::vector<ClassBucket> classes_;  // live classes, sorted by class id
  std::vector<int8_t> class_of_;      // per local index; -1 = zero class
  std::vector<real_t> weight_of_;     // per local index
  double total_ = 0.0;
  real_t max_bound_ = 0.0f;
  // Bit c set <=> class c's items are current AND its alias is fresh.
  std::atomic<uint64_t> ready_{0};
  std::atomic<uint64_t> bucket_builds_{0};
  Mutex mu_;
};

// Dirty-row sampler implementation, selected per engine run
// (WalkEngineOptions::dynamic_sampler; docs/DYNAMIC_GRAPHS.md).
enum class DynamicSamplerMode : uint8_t {
  // Eager WeightClassRow per dirty vertex: every bucket's item list built on
  // first touch, CDF-over-buckets + in-bucket rejection. The byte-stable
  // default — the determinism matrix pins walk bytes against this mode's
  // RNG draw sequence.
  kLegacyRow = 0,
  // LazyAliasRow per dirty vertex: O(degree) summary on first touch, item
  // lists + per-class alias tables materialized by the first sample landing
  // in each class. Always three draws per sample — a different (and shorter)
  // draw sequence, so flipping modes legitimately changes walk bytes.
  kAliasClass = 1,
};

inline const char* DynamicSamplerModeName(DynamicSamplerMode mode) {
  return mode == DynamicSamplerMode::kAliasClass ? "alias" : "legacy";
}

// Per-dirty-vertex sampler rows, riding alongside the flat alias/ITS tables:
// the engine samples a clean vertex from the static tables and a dirty
// vertex from its overlay row, through whichever row type `mode` selects.
// Counts full builds (first touch, O(degree)) separately from bucket builds
// (lazy per-class materializations, kAliasClass only) and incremental
// updates (O(1)) — the tests pin "no rebuild per update" on these counters.
class DynamicSamplerOverlay {
 public:
  void Reset(vertex_id_t num_vertices,
             DynamicSamplerMode mode = DynamicSamplerMode::kLegacyRow) {
    mode_ = mode;
    slot_.assign(num_vertices, kInvalidSlot);
    rows_.clear();
    lazy_rows_.clear();
    full_builds_ = 0;
    incremental_updates_ = 0;
  }

  DynamicSamplerMode mode() const { return mode_; }

  bool HasRow(vertex_id_t v) const { return slot_[v] != kInvalidSlot; }

  void BuildRow(vertex_id_t v, std::span<const real_t> weights) {
    if (slot_[v] == kInvalidSlot) {
      if (mode_ == DynamicSamplerMode::kLegacyRow) {
        slot_[v] = static_cast<uint32_t>(rows_.size());
        rows_.emplace_back();
      } else {
        // LazyAliasRow is address-pinned (mutex + atomics), so rows live
        // behind unique_ptr instead of inline in the vector.
        slot_[v] = static_cast<uint32_t>(lazy_rows_.size());
        lazy_rows_.push_back(std::make_unique<LazyAliasRow>());
      }
    }
    if (mode_ == DynamicSamplerMode::kLegacyRow) {
      rows_[slot_[v]].Build(weights);
    } else {
      lazy_rows_[slot_[v]]->Build(weights);
    }
    ++full_builds_;
  }

  void PushBack(vertex_id_t v, real_t w) {
    if (mode_ == DynamicSamplerMode::kLegacyRow) {
      Row(v).PushBack(w);
    } else {
      Lazy(v).PushBack(w);
    }
    ++incremental_updates_;
  }

  void SwapRemove(vertex_id_t v, uint32_t local_index) {
    if (mode_ == DynamicSamplerMode::kLegacyRow) {
      Row(v).SwapRemove(local_index);
    } else {
      Lazy(v).SwapRemove(local_index);
    }
    ++incremental_updates_;
  }

  void Reweight(vertex_id_t v, uint32_t local_index, real_t w) {
    if (mode_ == DynamicSamplerMode::kLegacyRow) {
      Row(v).Reweight(local_index, w);
    } else {
      Lazy(v).Reweight(local_index, w);
    }
    ++incremental_updates_;
  }

  // Non-const: a kAliasClass sample may materialize the class it lands in
  // (thread-safe — see LazyAliasRow).
  uint32_t Sample(vertex_id_t v, Rng& rng) {
    return mode_ == DynamicSamplerMode::kLegacyRow ? Row(v).Sample(rng)
                                                   : Lazy(v).Sample(rng);
  }
  double TotalWeight(vertex_id_t v) const {
    return mode_ == DynamicSamplerMode::kLegacyRow ? Row(v).total_weight()
                                                   : Lazy(v).total_weight();
  }
  real_t MaxWeight(vertex_id_t v) const {
    return mode_ == DynamicSamplerMode::kLegacyRow ? Row(v).max_weight()
                                                   : Lazy(v).max_weight();
  }

  size_t NumRows() const {
    return mode_ == DynamicSamplerMode::kLegacyRow ? rows_.size() : lazy_rows_.size();
  }
  uint64_t full_builds() const { return full_builds_; }
  uint64_t incremental_updates() const { return incremental_updates_; }
  uint64_t bucket_builds() const {
    uint64_t total = 0;
    for (const auto& row : lazy_rows_) {
      total += row->bucket_builds();
    }
    return total;
  }

  uint64_t MemoryBytes() const {
    uint64_t bytes = slot_.capacity() * sizeof(uint32_t);
    for (const WeightClassRow& r : rows_) {
      bytes += r.MemoryBytes();
    }
    for (const auto& r : lazy_rows_) {
      bytes += r->MemoryBytes();
    }
    return bytes;
  }

 private:
  static constexpr uint32_t kInvalidSlot = 0xffffffffu;

  WeightClassRow& Row(vertex_id_t v) {
    KK_DCHECK(slot_[v] != kInvalidSlot);
    return rows_[slot_[v]];
  }
  const WeightClassRow& Row(vertex_id_t v) const {
    KK_DCHECK(slot_[v] != kInvalidSlot);
    return rows_[slot_[v]];
  }
  LazyAliasRow& Lazy(vertex_id_t v) {
    KK_DCHECK(slot_[v] != kInvalidSlot);
    return *lazy_rows_[slot_[v]];
  }
  const LazyAliasRow& Lazy(vertex_id_t v) const {
    KK_DCHECK(slot_[v] != kInvalidSlot);
    return *lazy_rows_[slot_[v]];
  }

  DynamicSamplerMode mode_ = DynamicSamplerMode::kLegacyRow;
  std::vector<uint32_t> slot_;
  std::vector<WeightClassRow> rows_;                     // kLegacyRow
  std::vector<std::unique_ptr<LazyAliasRow>> lazy_rows_;  // kAliasClass
  uint64_t full_builds_ = 0;
  uint64_t incremental_updates_ = 0;
};

// Driver-side log of one mutation batch's DynamicSamplerOverlay edits
// (docs/DYNAMIC_GRAPHS.md). The engine applies a batch's row edits to the
// delta store at once but mirrors them into the overlay only when the batch
// does not end in a merge: a merge relayouts the static tables over the
// merged rows and resets the overlay, so rows built for a merging batch
// would be freed unsampled. Each record carries the Ps the engine computed
// when the edit applied, so ReplayInto performs exactly the call sequence
// (and leaves exactly the bytes) that editing the overlay directly would
// have.
class OverlayEditLog {
 public:
  // Records a row build of `degree` entries at v and returns the slot the
  // caller fills with the row's Ps.
  std::span<real_t> BuildRow(vertex_id_t v, size_t degree) {
    edits_.push_back({Op::kBuildRow, v, static_cast<uint32_t>(degree), 0.0f});
    const size_t begin = row_ps_.size();
    row_ps_.resize(begin + degree);
    return {row_ps_.data() + begin, degree};
  }
  void PushBack(vertex_id_t v, real_t w) { edits_.push_back({Op::kPushBack, v, 0, w}); }
  void SwapRemove(vertex_id_t v, uint32_t local_index) {
    edits_.push_back({Op::kSwapRemove, v, local_index, 0.0f});
  }
  void Reweight(vertex_id_t v, uint32_t local_index, real_t w) {
    edits_.push_back({Op::kReweight, v, local_index, w});
  }

  // Applies every recorded edit to `overlay` in record order.
  void ReplayInto(DynamicSamplerOverlay& overlay) const {
    size_t ps_at = 0;
    for (const Edit& e : edits_) {
      switch (e.op) {
        case Op::kBuildRow:
          overlay.BuildRow(e.vertex, std::span<const real_t>(row_ps_.data() + ps_at, e.arg));
          ps_at += e.arg;
          break;
        case Op::kPushBack:
          overlay.PushBack(e.vertex, e.weight);
          break;
        case Op::kSwapRemove:
          overlay.SwapRemove(e.vertex, e.arg);
          break;
        case Op::kReweight:
          overlay.Reweight(e.vertex, e.arg, e.weight);
          break;
      }
    }
  }

  // Drops the records, keeping the buffers for the next batch.
  void Clear() {
    edits_.clear();
    row_ps_.clear();
  }

 private:
  enum class Op : uint8_t { kBuildRow, kPushBack, kSwapRemove, kReweight };
  struct Edit {
    Op op;
    vertex_id_t vertex;
    uint32_t arg;  // kBuildRow: row degree; kSwapRemove/kReweight: local index
    real_t weight;
  };

  std::vector<Edit> edits_;
  std::vector<real_t> row_ps_;  // Ps rows of the kBuildRow edits, in order
};

}  // namespace knightking

#endif  // SRC_SAMPLING_WEIGHT_CLASS_H_
