// Alias method for O(1) sampling from a discrete distribution (§3, Fig. 1b).
//
// KnightKing uses alias tables for the static transition component Ps: built
// once per vertex in O(degree), each trial then samples a candidate edge in
// O(1). This file provides both a standalone AliasTable (tests, small uses)
// and FlatAliasTables, which packs one table per vertex into flat arrays
// aligned with a CSR's adjacency layout.
#ifndef SRC_SAMPLING_ALIAS_TABLE_H_
#define SRC_SAMPLING_ALIAS_TABLE_H_

#include <span>
#include <vector>

#include "src/util/check.h"
#include "src/util/prefetch.h"
#include "src/util/rng.h"
#include "src/util/types.h"

namespace knightking {

class ThreadPool;

namespace alias_internal {

// Work lists of one Vose construction. Reused across rows so a table build
// allocates per worker, not per row; a row's result never depends on what
// the scratch held before.
struct AliasScratch {
  std::vector<double> scaled;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
};

// Vose's alias construction over weights[0..n) writing into prob/alias[0..n).
// Returns the total weight. Zero-weight entries are valid (never sampled); an
// all-zero distribution returns total 0 and must not be sampled from.
double BuildAliasRow(std::span<const real_t> weights, std::span<real_t> prob,
                     std::span<uint32_t> alias, AliasScratch& scratch);

// One alias draw over a row of size n.
inline size_t SampleAliasRow(std::span<const real_t> prob, std::span<const uint32_t> alias,
                             Rng& rng) {
  size_t n = prob.size();
  KK_DCHECK(n > 0);
  size_t bucket = static_cast<size_t>(rng.NextUInt64(n));
  return rng.NextFloat() < prob[bucket] ? bucket : alias[bucket];
}

}  // namespace alias_internal

// Standalone alias table over one weight vector.
class AliasTable {
 public:
  AliasTable() = default;

  explicit AliasTable(std::span<const real_t> weights) { Build(weights); }

  void Build(std::span<const real_t> weights) {
    prob_.resize(weights.size());
    alias_.resize(weights.size());
    alias_internal::AliasScratch scratch;
    total_weight_ = alias_internal::BuildAliasRow(weights, prob_, alias_, scratch);
  }

  size_t size() const { return prob_.size(); }
  double total_weight() const { return total_weight_; }

  // Samples index i with probability weights[i] / total_weight in O(1).
  size_t Sample(Rng& rng) const {
    KK_DCHECK(total_weight_ > 0);
    return alias_internal::SampleAliasRow(prob_, alias_, rng);
  }

 private:
  std::vector<real_t> prob_;
  std::vector<uint32_t> alias_;
  double total_weight_ = 0.0;
};

// Per-vertex alias tables packed into flat arrays parallel to a CSR
// adjacency array. Memory: 8 bytes per edge plus 12 bytes per vertex.
class FlatAliasTables {
 public:
  FlatAliasTables() = default;

  // offsets: CSR offsets (size V+1); weights: per-edge static weights in CSR
  // order (size E). Rows are independent, so a non-null `pool` builds them in
  // parallel (vertex-chunked); null builds sequentially.
  void Build(std::span<const edge_index_t> offsets, std::span<const real_t> weights,
             ThreadPool* pool = nullptr);

  // Row-wise construction, shared by Build and the overlay merge's relayout
  // (docs/DYNAMIC_GRAPHS.md). Layout() sizes the tables for `offsets`; every
  // row must then be written once, by BuildRow or MoveRows. Rows are
  // disjoint, so distinct vertex ranges may be written concurrently.
  //
  // A row's table is a pure function of its weights, so a merge that left a
  // row untouched moves it (byte-identical to rebuilding it) and rebuilds
  // only the rows the overlay touched. Relayout(offsets) is Layout() that
  // keeps the current tables readable as MoveRows' source; it writes into
  // the buffers the previous relayout retired instead of fresh ones.
  void Layout(std::span<const edge_index_t> offsets);
  void Relayout(std::span<const edge_index_t> offsets);
  void BuildRow(vertex_id_t v, std::span<const real_t> weights,
                alias_internal::AliasScratch& scratch);
  // Copies rows [begin, end) verbatim from the retired layout (one block:
  // consecutive rows are contiguous in both layouts). Their degrees must not
  // have changed.
  void MoveRows(vertex_id_t begin, vertex_id_t end);

  // Raw table arrays (tests compare relayouts against full builds bytewise).
  std::span<const edge_index_t> offsets() const { return offsets_; }
  std::span<const real_t> prob() const { return prob_; }
  std::span<const uint32_t> alias() const { return alias_; }
  std::span<const double> totals() const { return totals_; }
  std::span<const real_t> max_weights() const { return max_weight_; }

  // Samples a local edge index (offset within v's adjacency).
  vertex_id_t Sample(vertex_id_t v, Rng& rng) const {
    edge_index_t begin = offsets_[v];
    edge_index_t end = offsets_[v + 1];
    KK_DCHECK(end > begin);
    std::span<const real_t> prob(prob_.data() + begin, end - begin);
    std::span<const uint32_t> alias(alias_.data() + begin, end - begin);
    return static_cast<vertex_id_t>(alias_internal::SampleAliasRow(prob, alias, rng));
  }

  // Sum of static weights at v (the denominator of Eq. 3's effective area).
  double TotalWeight(vertex_id_t v) const { return totals_[v]; }

  // Maximum single static weight at v: used as the appendix width bound for
  // outlier folding with biased walks.
  real_t MaxWeight(vertex_id_t v) const { return max_weight_[v]; }

  bool empty() const { return prob_.empty(); }

  // Table footprint in bytes (metrics snapshot; a pure function of the
  // graph, so it is a stable metric).
  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(edge_index_t) + prob_.size() * sizeof(real_t) +
           alias_.size() * sizeof(uint32_t) + totals_.size() * sizeof(double) +
           max_weight_.size() * sizeof(real_t);
  }

  // Hints v's alias row into cache (engine locality pass).
  void Prefetch(vertex_id_t v) const {
    edge_index_t begin = offsets_[v];
    KK_PREFETCH(prob_.data() + begin);
    KK_PREFETCH(alias_.data() + begin);
    KK_PREFETCH(totals_.data() + v);
  }

 private:
  std::vector<edge_index_t> offsets_;
  std::vector<real_t> prob_;
  std::vector<uint32_t> alias_;
  std::vector<double> totals_;
  std::vector<real_t> max_weight_;
  // The layout before the last Relayout (MoveRows' source), kept afterwards
  // as the next relayout's buffers. Not counted in MemoryBytes.
  std::vector<edge_index_t> retired_offsets_;
  std::vector<real_t> retired_prob_;
  std::vector<uint32_t> retired_alias_;
};

}  // namespace knightking

#endif  // SRC_SAMPLING_ALIAS_TABLE_H_
