// Unified per-vertex static (Ps) candidate sampler.
//
// Wraps the three strategies of §3 behind one interface: uniform (unbiased
// graphs: no build cost, O(1) draws), alias (O(n) build, O(1) draws — the
// engine default for biased walks), and ITS (O(n) build, O(log n) draws).
#ifndef SRC_SAMPLING_STATIC_SAMPLER_H_
#define SRC_SAMPLING_STATIC_SAMPLER_H_

#include <functional>
#include <span>
#include <vector>

#include "src/graph/csr.h"
#include "src/sampling/alias_table.h"
#include "src/sampling/its.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace knightking {

enum class StaticSamplerKind {
  kAuto = 0,     // uniform when Ps == 1 everywhere, alias otherwise
  kUniform = 1,  // requires Ps == 1
  kAlias = 2,
  kIts = 3,
};

const char* StaticSamplerKindName(StaticSamplerKind kind);

// Per-vertex candidate sampler over the static component. Samples return a
// *local* edge index into Csr::Neighbors(v).
template <typename EdgeData>
class StaticSamplerSet {
 public:
  using StaticCompFn = std::function<real_t(vertex_id_t, const AdjUnit<EdgeData>&)>;

  // One thread's scratch for row builds: the row's Ps and the alias work
  // lists, reused across rows.
  struct RowScratch {
    std::vector<real_t> weights;
    alias_internal::AliasScratch alias;
  };

  // static_comp == nullptr means "use the edge weight, or 1 if unweighted".
  // A non-null `pool` builds the rows (Ps materialization + table) in
  // parallel vertex chunks; static_comp must then be safe to call
  // concurrently — the pure lambdas the apps supply are.
  void Build(const Csr<EdgeData>& csr, StaticSamplerKind kind, const StaticCompFn& static_comp,
             ThreadPool* pool = nullptr) {
    csr_ = &csr;
    bool weighted = static_cast<bool>(static_comp) || HasWeight<EdgeData>;
    kind_ = kind;
    if (kind_ == StaticSamplerKind::kAuto) {
      kind_ = weighted ? StaticSamplerKind::kAlias : StaticSamplerKind::kUniform;
    }
    if (kind_ == StaticSamplerKind::kUniform) {
      KK_CHECK(!weighted);  // uniform draws would silently ignore Ps
      return;
    }
    if (kind_ == StaticSamplerKind::kAlias) {
      alias_.Layout(csr.offsets());
    } else {
      its_.Layout(csr.offsets());
    }
    const size_t num_v = csr.num_vertices();
    auto build_rows = [&](size_t begin, size_t end) {
      RowScratch scratch;
      for (size_t v = begin; v < end; ++v) {
        BuildRow(csr, static_cast<vertex_id_t>(v), static_comp, scratch);
      }
    };
    if (pool != nullptr && pool->num_workers() > 0) {
      pool->ParallelFor(num_v, BuildChunkSize(num_v, pool->num_workers()), build_rows);
    } else {
      build_rows(0, num_v);
    }
  }

  // Overlay-merge relayout (docs/DYNAMIC_GRAPHS.md). `merged` is the graph
  // the tables were built over with some rows replaced; `dirty(v)` names
  // them. BeginRelayout lays the tables out on merged's offsets, recycling
  // the buffers the previous relayout retired. RelayoutRows then moves each
  // clean row's table verbatim (runs of clean rows as one block) and
  // rebuilds each dirty row from merged's adjacency; disjoint vertex ranges
  // may run concurrently, one scratch each. A table is a pure function of
  // its row's Ps, so the result is byte-identical to Build(merged) at O(E)
  // copy plus O(dirty) build cost.
  // The set stays bound to the Csr object Build was given: the caller moves
  // the merged graph into it (the engine swaps its graph buffers).
  void BeginRelayout(const Csr<EdgeData>& merged) {
    if (kind_ == StaticSamplerKind::kAlias) {
      alias_.Relayout(merged.offsets());
    } else if (kind_ == StaticSamplerKind::kIts) {
      its_.Relayout(merged.offsets());
    }
  }

  template <typename DirtyFn>
  void RelayoutRows(const Csr<EdgeData>& merged, size_t begin, size_t end, const DirtyFn& dirty,
                    const StaticCompFn& static_comp, RowScratch& scratch) {
    if (kind_ == StaticSamplerKind::kUniform) {
      return;
    }
    for (size_t v = begin; v < end;) {
      const auto vid = static_cast<vertex_id_t>(v);
      if (dirty(vid)) {
        BuildRow(merged, vid, static_comp, scratch);
        ++v;
        continue;
      }
      size_t run_end = v + 1;
      while (run_end < end && !dirty(static_cast<vertex_id_t>(run_end))) ++run_end;
      if (kind_ == StaticSamplerKind::kAlias) {
        alias_.MoveRows(vid, static_cast<vertex_id_t>(run_end));
      } else {
        its_.MoveRows(vid, static_cast<vertex_id_t>(run_end));
      }
      v = run_end;
    }
  }

  StaticSamplerKind kind() const { return kind_; }

  // Samples a local edge index at v proportional to Ps.
  vertex_id_t Sample(vertex_id_t v, Rng& rng) const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return static_cast<vertex_id_t>(rng.NextUInt32(csr_->OutDegree(v)));
      case StaticSamplerKind::kAlias:
        return alias_.Sample(v, rng);
      case StaticSamplerKind::kIts:
        return its_.Sample(v, rng);
      case StaticSamplerKind::kAuto:
        break;
    }
    KK_CHECK(false);
  }

  // Sum of Ps over v's out-edges (width of the rejection dartboard).
  double TotalWeight(vertex_id_t v) const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return static_cast<double>(csr_->OutDegree(v));
      case StaticSamplerKind::kAlias:
        return alias_.TotalWeight(v);
      case StaticSamplerKind::kIts:
        return its_.TotalWeight(v);
      case StaticSamplerKind::kAuto:
        break;
    }
    KK_CHECK(false);
  }

  // Hints v's sampler row into cache (engine locality pass). Uniform draws
  // touch no per-vertex tables, so there is nothing to pull.
  void Prefetch(vertex_id_t v) const {
    if (kind_ == StaticSamplerKind::kAlias) {
      alias_.Prefetch(v);
    } else if (kind_ == StaticSamplerKind::kIts) {
      its_.Prefetch(v);
    }
  }

  // Table footprint in bytes across all vertices (uniform draws keep no
  // tables). Exported in the engine's metrics snapshot.
  size_t MemoryBytes() const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return 0;
      case StaticSamplerKind::kAlias:
        return alias_.MemoryBytes();
      case StaticSamplerKind::kIts:
        return its_.MemoryBytes();
      case StaticSamplerKind::kAuto:
        break;
    }
    return 0;
  }

  // The underlying tables (tests compare relayouts against full builds).
  const FlatAliasTables& alias_tables() const { return alias_; }
  const FlatItsTables& its_tables() const { return its_; }

  // Max single Ps at v (outlier appendix width bound).
  real_t MaxWeight(vertex_id_t v) const {
    switch (kind_) {
      case StaticSamplerKind::kUniform:
        return 1.0f;
      case StaticSamplerKind::kAlias:
        return alias_.MaxWeight(v);
      case StaticSamplerKind::kIts:
        return its_.MaxWeight(v);
      case StaticSamplerKind::kAuto:
        break;
    }
    KK_CHECK(false);
  }

 private:
  // Materializes v's Ps row (in adjacency order) and builds its table.
  void BuildRow(const Csr<EdgeData>& csr, vertex_id_t v, const StaticCompFn& static_comp,
                RowScratch& scratch) {
    const auto row = csr.Neighbors(v);
    const bool custom = static_cast<bool>(static_comp);
    scratch.weights.resize(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      scratch.weights[i] = custom ? static_comp(v, row[i]) : StaticWeight(row[i].data);
    }
    if (kind_ == StaticSamplerKind::kAlias) {
      alias_.BuildRow(v, scratch.weights, scratch.alias);
    } else {
      its_.BuildRow(v, scratch.weights);
    }
  }

  const Csr<EdgeData>* csr_ = nullptr;
  StaticSamplerKind kind_ = StaticSamplerKind::kAuto;
  FlatAliasTables alias_;
  FlatItsTables its_;
};

}  // namespace knightking

#endif  // SRC_SAMPLING_STATIC_SAMPLER_H_
