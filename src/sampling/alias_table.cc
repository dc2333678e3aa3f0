#include "src/sampling/alias_table.h"

#include <algorithm>

#include "src/util/recycle.h"
#include "src/util/thread_pool.h"

namespace knightking {

namespace alias_internal {

double BuildAliasRow(std::span<const real_t> weights, std::span<real_t> prob,
                     std::span<uint32_t> alias, AliasScratch& scratch) {
  size_t n = weights.size();
  KK_CHECK(prob.size() == n && alias.size() == n);
  double total = 0.0;
  for (real_t w : weights) {
    KK_CHECK(w >= 0.0f);
    total += static_cast<double>(w);
  }
  if (n == 0) {
    return 0.0;
  }
  if (total <= 0.0) {
    // Degenerate: mark every bucket as "always itself" so sampling (which
    // callers must avoid) at least stays in range.
    for (size_t i = 0; i < n; ++i) {
      prob[i] = 1.0f;
      alias[i] = static_cast<uint32_t>(i);
    }
    return 0.0;
  }

  // Scale to mean 1 and split into small/large work lists (Vose).
  std::vector<double>& scaled = scratch.scaled;
  std::vector<uint32_t>& small = scratch.small;
  std::vector<uint32_t>& large = scratch.large;
  scaled.resize(n);
  small.clear();
  large.clear();
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = static_cast<double>(weights[i]) * static_cast<double>(n) / total;
  }
  for (size_t i = 0; i < n; ++i) {
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<uint32_t>(i));
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    // Intentional: construction math stays in double (`scaled`); this is the
    // storage boundary where bucket probabilities land in the real_t table.
    // kk-lint: narrow-ok
    prob[s] = static_cast<real_t>(scaled[s]);
    alias[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Remaining entries are (numerically) exactly 1.
  for (uint32_t l : large) {
    prob[l] = 1.0f;
    alias[l] = l;
  }
  for (uint32_t s : small) {
    prob[s] = 1.0f;
    alias[s] = s;
  }
  return total;
}

}  // namespace alias_internal

void FlatAliasTables::Build(std::span<const edge_index_t> offsets,
                            std::span<const real_t> weights, ThreadPool* pool) {
  KK_CHECK(!offsets.empty());
  size_t num_vertices = offsets.size() - 1;
  KK_CHECK(offsets.back() == weights.size());
  Layout(offsets);
  // Each vertex row writes a disjoint slice of prob_/alias_/totals_, so rows
  // build embarrassingly parallel over vertex chunks.
  auto build_rows = [&](size_t row_begin, size_t row_end) {
    alias_internal::AliasScratch scratch;
    for (size_t v = row_begin; v < row_end; ++v) {
      BuildRow(static_cast<vertex_id_t>(v),
               weights.subspan(offsets[v], offsets[v + 1] - offsets[v]), scratch);
    }
  };
  if (pool != nullptr && pool->num_workers() > 0) {
    pool->ParallelFor(num_vertices, BuildChunkSize(num_vertices, pool->num_workers()),
                      build_rows);
  } else {
    build_rows(0, num_vertices);
  }
}

void FlatAliasTables::Layout(std::span<const edge_index_t> offsets) {
  KK_CHECK(!offsets.empty());
  const size_t num_vertices = offsets.size() - 1;
  offsets_.assign(offsets.begin(), offsets.end());
  ResizeForOverwrite(prob_, offsets.back());
  ResizeForOverwrite(alias_, offsets.back());
  totals_.resize(num_vertices);
  max_weight_.resize(num_vertices);
}

void FlatAliasTables::Relayout(std::span<const edge_index_t> offsets) {
  KK_CHECK_MSG(offsets.size() == offsets_.size(),
               "relayout changes the vertex count (%zu -> %zu offsets)", offsets_.size(),
               offsets.size());
  offsets_.swap(retired_offsets_);
  prob_.swap(retired_prob_);
  alias_.swap(retired_alias_);
  Layout(offsets);
}

void FlatAliasTables::BuildRow(vertex_id_t v, std::span<const real_t> weights,
                               alias_internal::AliasScratch& scratch) {
  const edge_index_t begin = offsets_[v];
  const size_t deg = static_cast<size_t>(offsets_[v + 1] - begin);
  KK_DCHECK(weights.size() == deg);
  std::span<real_t> p(prob_.data() + begin, deg);
  std::span<uint32_t> a(alias_.data() + begin, deg);
  totals_[v] = alias_internal::BuildAliasRow(weights, p, a, scratch);
  real_t max_w = 0.0f;
  for (real_t x : weights) {
    max_w = std::max(max_w, x);
  }
  max_weight_[v] = max_w;
}

void FlatAliasTables::MoveRows(vertex_id_t begin, vertex_id_t end) {
  const edge_index_t from = retired_offsets_[begin];
  const edge_index_t count = retired_offsets_[end] - from;
  KK_DCHECK(offsets_[end] - offsets_[begin] == count);
  std::copy_n(retired_prob_.data() + from, count, prob_.data() + offsets_[begin]);
  std::copy_n(retired_alias_.data() + from, count, alias_.data() + offsets_[begin]);
}

}  // namespace knightking
