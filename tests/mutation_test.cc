// Streaming graph mutations: delta-store edge cases, weight-class sampler
// maintenance, and the tentpole determinism matrix.
//
// The acceptance bar mirrors the checkpoint suite's: a walk over a mutating
// graph must produce byte-identical path logs across worker counts {0, 4},
// with and without message faults, and across a crash-and-replay recovery
// that restores the snapshot's mutation-log prefix from the pristine CSR
// (docs/DYNAMIC_GRAPHS.md). On top of the matrix, the incremental-sampler
// counters pin the O(1) update contract: one O(degree) row build per dirty
// vertex, every subsequent mutation an O(1) bucket edit, never a rebuild.
//
// The CI deterministic-sim job's mutation-soak leg re-runs this binary under
// TSan with KK_SIM_WORKERS=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/no_return.h"
#include "src/apps/node2vec.h"
#include "src/engine/checkpoint.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/generators.h"
#include "src/obs/metrics_registry.h"
#include "src/sampling/static_sampler.h"
#include "src/sampling/weight_class.h"
#include "src/testing/fault_injector.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 77;

size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

std::string SnapshotPath(const std::string& tag) {
  return testing::TempDir() + "kk_mut_" + tag + ".bin";
}

WalkEngineOptions BaseOptions(node_rank_t num_nodes, size_t workers) {
  WalkEngineOptions opts;
  opts.num_nodes = num_nodes;
  opts.workers_per_node = workers;
  opts.collect_paths = true;
  opts.seed = kSeed;
  return opts;
}

EdgeMutation Ins(vertex_id_t src, vertex_id_t dst, real_t w) {
  return EdgeMutation{src, dst, w, MutationOp::kInsert};
}
EdgeMutation Del(vertex_id_t src, vertex_id_t dst) {
  return EdgeMutation{src, dst, 0.0f, MutationOp::kDelete};
}
EdgeMutation Rew(vertex_id_t src, vertex_id_t dst, real_t w) {
  return EdgeMutation{src, dst, w, MutationOp::kReweight};
}

// ---------------------------------------------------------------------------
// MutationLog: canonical ordering and prefix hashing.
// ---------------------------------------------------------------------------

TEST(MutationLogTest, BatchIdIndependentOfSubmissionOrder) {
  std::vector<EdgeMutation> fwd = {Ins(0, 1, 2.0f), Ins(2, 3, 1.0f), Del(4, 5),
                                   Rew(6, 7, 0.5f)};
  std::vector<EdgeMutation> rev(fwd.rbegin(), fwd.rend());
  MutationLog a(kSeed);
  MutationLog b(kSeed);
  uint64_t id_a = a.Append(1, fwd);
  uint64_t id_b = b.Append(1, rev);
  EXPECT_EQ(id_a, id_b);
  ASSERT_EQ(a.batch(0).mutations.size(), b.batch(0).mutations.size());
  for (size_t i = 0; i < a.batch(0).mutations.size(); ++i) {
    EXPECT_EQ(a.batch(0).mutations[i], b.batch(0).mutations[i]) << i;
  }
  EXPECT_EQ(a.PrefixHash(1), b.PrefixHash(1));
}

TEST(MutationLogTest, PrefixHashChainsPerBatch) {
  MutationLog log(kSeed);
  uint64_t empty = log.PrefixHash(0);
  log.Append(0, {Ins(0, 1, 1.0f)});
  log.Append(2, {Del(0, 1)});
  EXPECT_NE(log.PrefixHash(1), empty);
  EXPECT_NE(log.PrefixHash(2), log.PrefixHash(1));
  EXPECT_EQ(log.num_batches(), 2u);
  EXPECT_EQ(log.num_mutations(), 2u);
}

TEST(MutationLogTest, ContentChangesTheId) {
  MutationLog a(kSeed);
  MutationLog b(kSeed);
  uint64_t id_a = a.Append(1, {Ins(0, 1, 2.0f)});
  uint64_t id_b = b.Append(1, {Ins(0, 1, 2.5f)});
  EXPECT_NE(id_a, id_b);
}

TEST(MutationLogDeathTest, RejectsEpochRegressionAndBadWeights) {
  MutationLog log(kSeed);
  log.Append(3, {Ins(0, 1, 1.0f)});
  EXPECT_DEATH(log.Append(2, {Ins(0, 1, 1.0f)}), "epoch");
  EXPECT_DEATH(log.Append(3, {Ins(0, 1, -1.0f)}), "weight");
}

// ---------------------------------------------------------------------------
// DeltaStore edge cases.
// ---------------------------------------------------------------------------

Csr<WeightedEdgeData> SmallWeightedCsr() {
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 6;
  list.edges = {{0, 1, {1.0f}}, {0, 2, {2.0f}}, {0, 3, {4.0f}},
                {1, 0, {1.0f}}, {2, 0, {1.0f}}, {3, 0, {1.0f}}};
  return Csr<WeightedEdgeData>::FromEdgeList(list);
}

TEST(DeltaStoreTest, DeleteOfNeverInsertedEdgeIsCountedNoOp) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  RowEdit edit = delta.Apply(Del(0, 5), /*merge_threshold=*/0);
  EXPECT_EQ(edit.kind, RowEdit::Kind::kNone);
  EXPECT_EQ(delta.stats().rejected, 1u);
  EXPECT_EQ(delta.OutDegree(0), 3u);
  // A rejected mutation still counts toward nothing else: row untouched.
  EXPECT_EQ(delta.stats().removed, 0u);
  EXPECT_FALSE(delta.pending_merge());
}

TEST(DeltaStoreTest, DeleteSwapsWithLastAndPreservesMembership) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  RowEdit edit = delta.Apply(Del(0, 1), 0);
  ASSERT_EQ(edit.kind, RowEdit::Kind::kRemove);
  EXPECT_EQ(delta.OutDegree(0), 2u);
  std::vector<vertex_id_t> left;
  for (const auto& u : delta.Neighbors(0)) {
    left.push_back(u.neighbor);
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<vertex_id_t>{2, 3}));
  // Clean vertices keep reading the base CSR.
  EXPECT_EQ(delta.Neighbors(1).data(), csr.Neighbors(1).data());
}

TEST(DeltaStoreTest, ReweightToZeroKeepsEdgeInRow) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  RowEdit edit = delta.Apply(Rew(0, 2, 0.0f), 0);
  ASSERT_EQ(edit.kind, RowEdit::Kind::kReweight);
  EXPECT_EQ(delta.OutDegree(0), 3u);
  bool found = false;
  for (const auto& u : delta.Neighbors(0)) {
    if (u.neighbor == 2) {
      found = true;
      EXPECT_EQ(u.data.weight, 0.0f);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeltaStoreTest, MergeThresholdExactlyHitSetsPendingMerge) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  EXPECT_EQ(delta.Apply(Ins(0, 4, 1.0f), 3).kind, RowEdit::Kind::kInsert);
  EXPECT_FALSE(delta.pending_merge());
  EXPECT_EQ(delta.Apply(Ins(0, 5, 1.0f), 3).kind, RowEdit::Kind::kInsert);
  EXPECT_FALSE(delta.pending_merge());
  // Third mutation lands exactly on the threshold — pending, not deferred
  // past it. (The engine still defers the merge itself to the enclosing
  // batch boundary.)
  EXPECT_EQ(delta.Apply(Rew(0, 1, 9.0f), 3).kind, RowEdit::Kind::kReweight);
  EXPECT_TRUE(delta.pending_merge());
  // Rejected mutations never advance a row toward its merge threshold.
  auto csr2 = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> d2;
  d2.Reset(&csr2);
  d2.Materialize(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d2.Apply(Del(0, 5), 3).kind, RowEdit::Kind::kNone);
  }
  EXPECT_FALSE(d2.pending_merge());
}

TEST(DeltaStoreTest, MergedCsrFoldsOverlayAndRestoresSortedRows) {
  auto csr = SmallWeightedCsr();
  DeltaStore<WeightedEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  delta.Apply(Ins(0, 5, 7.0f), 0);
  delta.Apply(Del(0, 1), 0);
  delta.Apply(Rew(0, 3, 0.25f), 0);
  Csr<WeightedEdgeData> merged;
  delta.ShapeMerged(merged);
  delta.FillMergedRows(merged, 0, merged.num_vertices());
  ASSERT_EQ(merged.OutDegree(0), 3u);
  std::map<vertex_id_t, real_t> row;
  vertex_id_t prev = 0;
  bool first = true;
  for (const auto& u : merged.Neighbors(0)) {
    if (!first) {
      EXPECT_LT(prev, u.neighbor) << "merged row must be neighbor-sorted";
    }
    first = false;
    prev = u.neighbor;
    row[u.neighbor] = u.data.weight;
  }
  EXPECT_EQ(row.count(1), 0u);
  EXPECT_EQ(row[2], 2.0f);
  EXPECT_EQ(row[3], 0.25f);
  EXPECT_EQ(row[5], 7.0f);
  // Untouched rows survive the fold verbatim.
  EXPECT_EQ(merged.OutDegree(2), csr.OutDegree(2));
}

TEST(DeltaStoreTest, ReweightOnUnweightedPayloadIsRejected) {
  auto edges = GenerateUniformDegree(10, 3, 5);
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(edges);
  DeltaStore<EmptyEdgeData> delta;
  delta.Reset(&csr);
  delta.Materialize(0);
  vertex_id_t dst = csr.Neighbors(0)[0].neighbor;
  EXPECT_EQ(delta.Apply(Rew(0, dst, 2.0f), 0).kind, RowEdit::Kind::kNone);
  EXPECT_EQ(delta.stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Merge relayout: the static tables an overlay merge relayouts (clean rows
// moved, dirty rows rebuilt) equal a full build over the merged CSR, byte
// for byte.
// ---------------------------------------------------------------------------

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

void ExpectSameTables(const StaticSamplerSet<WeightedEdgeData>& got,
                      const StaticSamplerSet<WeightedEdgeData>& want) {
  ASSERT_EQ(got.kind(), want.kind());
  if (want.kind() == StaticSamplerKind::kAlias) {
    const FlatAliasTables& g = got.alias_tables();
    const FlatAliasTables& w = want.alias_tables();
    EXPECT_TRUE(SameBytes(g.offsets(), w.offsets()));
    EXPECT_TRUE(SameBytes(g.prob(), w.prob()));
    EXPECT_TRUE(SameBytes(g.alias(), w.alias()));
    EXPECT_TRUE(SameBytes(g.totals(), w.totals()));
    EXPECT_TRUE(SameBytes(g.max_weights(), w.max_weights()));
  } else {
    const FlatItsTables& g = got.its_tables();
    const FlatItsTables& w = want.its_tables();
    EXPECT_TRUE(SameBytes(g.offsets(), w.offsets()));
    EXPECT_TRUE(SameBytes(g.cdf(), w.cdf()));
    EXPECT_TRUE(SameBytes(g.totals(), w.totals()));
    EXPECT_TRUE(SameBytes(g.max_weights(), w.max_weights()));
  }
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
}

// Applies `m` the way the engine does: materialize on first touch.
void ApplyToOverlay(DeltaStore<WeightedEdgeData>& delta, const EdgeMutation& m) {
  if (!delta.IsDirty(m.src)) delta.Materialize(m.src);
  delta.Apply(m, /*merge_threshold=*/0);
}

// One round of overlay edits over `graph` (300 base vertices plus isolated
// vertices 300..309): random inserts / deletes / reweights (some to zero) on
// sources in [20, 300), then targeted rows: one emptied by deletes, one grown
// by 40 inserts, one reweighted to zero, and a degree-0 vertex that gains
// edges. Round r shifts the targets so successive merges touch new rows.
void ApplyRandomOverlay(const Csr<WeightedEdgeData>& graph, DeltaStore<WeightedEdgeData>& delta,
                        uint32_t round) {
  const vertex_id_t n = graph.num_vertices();
  Rng rng(HashCombine64(kSeed, round));
  for (uint32_t i = 0; i < 400; ++i) {
    const vertex_id_t src = 20 + rng.NextUInt32(280);
    const auto row = delta.Neighbors(src);
    const real_t w = rng.NextUInt32(5) == 0 ? 0.0f : 0.5f + 4.0f * rng.NextFloat();
    const vertex_id_t picked =
        row.empty() ? 0 : row[rng.NextUInt32(static_cast<uint32_t>(row.size()))].neighbor;
    switch (rng.NextUInt32(3)) {
      case 0:
        ApplyToOverlay(delta, Ins(src, rng.NextUInt32(n), w));
        break;
      case 1:
        ApplyToOverlay(delta, Del(src, picked));
        break;
      default:
        ApplyToOverlay(delta, Rew(src, picked, w));
        break;
    }
  }
  const vertex_id_t emptied = 7 + round;
  std::vector<vertex_id_t> nbrs;
  for (const auto& u : graph.Neighbors(emptied)) nbrs.push_back(u.neighbor);
  for (vertex_id_t d : nbrs) ApplyToOverlay(delta, Del(emptied, d));
  for (uint32_t i = 0; i < 40; ++i) {
    ApplyToOverlay(delta, Ins(11 + round, rng.NextUInt32(n), 0.25f + static_cast<real_t>(i)));
  }
  for (const auto& u : graph.Neighbors(13 + round)) {
    ApplyToOverlay(delta, Rew(13 + round, u.neighbor, 0.0f));
  }
  ApplyToOverlay(delta, Ins(301 + round, 2, 1.5f));
  ApplyToOverlay(delta, Ins(301 + round, 3, 0.0f));
}

TEST(MergeRelayoutTest, RelayoutEqualsFullBuildAcrossMerges) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(300, 6, 301), 0.5f, 4.0f, 11);
  edges.num_vertices = 310;  // 300..309 start with degree 0
  for (auto& e : edges.edges) {
    if (e.src == 5) e.data.weight = 0.0f;  // a base row with zero total
  }
  const StaticSamplerSet<WeightedEdgeData>::StaticCompFn custom =
      [](vertex_id_t v, const AdjUnit<WeightedEdgeData>& adj) {
        return adj.data.weight * static_cast<real_t>(1 + (v + adj.neighbor) % 3);
      };
  for (StaticSamplerKind kind : {StaticSamplerKind::kAlias, StaticSamplerKind::kIts}) {
    for (bool use_custom : {false, true}) {
      for (size_t workers : {size_t{0}, size_t{4}}) {
        SCOPED_TRACE(std::string(StaticSamplerKindName(kind)) + " custom=" +
                     std::to_string(use_custom) + " workers=" + std::to_string(workers));
        const auto comp = use_custom ? custom : nullptr;
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        Csr<WeightedEdgeData> graph = Csr<WeightedEdgeData>::FromEdgeList(edges);
        Csr<WeightedEdgeData> retired;
        StaticSamplerSet<WeightedEdgeData> sampler;
        sampler.Build(graph, kind, comp, pool.get());
        // Successive merges: from the second on, the relayout writes into
        // the buffers the previous one retired, as the engine's do.
        for (uint32_t round = 0; round < 3; ++round) {
          DeltaStore<WeightedEdgeData> delta;
          delta.Reset(&graph);
          ApplyRandomOverlay(graph, delta, round);
          ASSERT_TRUE(delta.IsDirty(301 + round));
          ASSERT_EQ(delta.OutDegree(7 + round), 0u);
          delta.ShapeMerged(retired);
          sampler.BeginRelayout(retired);
          const auto dirty = [&](vertex_id_t v) { return delta.IsDirty(v); };
          auto pass = [&](size_t begin, size_t end) {
            StaticSamplerSet<WeightedEdgeData>::RowScratch scratch;
            delta.FillMergedRows(retired, begin, end);
            sampler.RelayoutRows(retired, begin, end, dirty, comp, scratch);
          };
          if (pool != nullptr) {
            pool->ParallelFor(graph.num_vertices(), /*chunk_size=*/7, pass);
          } else {
            pass(0, graph.num_vertices());
          }
          std::swap(graph, retired);
          StaticSamplerSet<WeightedEdgeData> fresh;
          fresh.Build(graph, kind, comp);
          ExpectSameTables(sampler, fresh);
          EXPECT_EQ(sampler.TotalWeight(5), 0.0);
          EXPECT_EQ(sampler.TotalWeight(7 + round), 0.0);
          EXPECT_GT(sampler.TotalWeight(301 + round), 0.0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WeightClassRow: O(1) maintenance and sampling correctness.
// ---------------------------------------------------------------------------

TEST(WeightClassRowTest, SampleMatchesWeightsAfterIncrementalEdits) {
  WeightClassRow row;
  std::vector<real_t> weights = {1.0f, 2.0f, 4.0f, 0.5f};
  row.Build(weights);
  row.PushBack(8.0f);          // weights: 1 2 4 .5 8
  row.Reweight(1, 6.0f);       // weights: 1 6 4 .5 8
  row.SwapRemove(0);           // index 0 now holds old last: 8 6 4 .5
  std::vector<double> expect = {8.0, 6.0, 4.0, 0.5};
  EXPECT_NEAR(row.total_weight(), 18.5, 1e-9);
  Rng rng(kSeed);
  std::vector<uint64_t> counts(expect.size(), 0);
  for (int i = 0; i < 40000; ++i) {
    uint32_t idx = row.Sample(rng);
    ASSERT_LT(idx, counts.size());
    ++counts[idx];
  }
  ExpectChiSquareOk(counts, expect);
}

TEST(WeightClassRowTest, ZeroWeightEntriesAreNeverSampled) {
  WeightClassRow row;
  row.Build(std::vector<real_t>{1.0f, 0.0f, 3.0f});
  row.Reweight(2, 0.0f);
  row.PushBack(5.0f);  // live: index 0 (1.0) and index 3 (5.0)
  Rng rng(kSeed);
  for (int i = 0; i < 5000; ++i) {
    uint32_t idx = row.Sample(rng);
    EXPECT_TRUE(idx == 0 || idx == 3) << idx;
  }
  EXPECT_NEAR(row.total_weight(), 6.0, 1e-9);
}

TEST(WeightClassRowTest, WideDynamicRangeStaysExact) {
  // 2^-20 vs 2^20: an alias table would be rebuilt; the class row keeps the
  // tiny weight in its own bucket, so it is still sampled (rarely) and the
  // CDF walk stays proportional across 40 doublings.
  WeightClassRow row;
  row.Build(std::vector<real_t>{0x1.0p-20f, 0x1.0p20f});
  Rng rng(kSeed);
  uint64_t big = 0;
  for (int i = 0; i < 10000; ++i) {
    big += row.Sample(rng) == 1 ? 1 : 0;
  }
  EXPECT_EQ(big, 10000u);  // tiny weight ~ 1e-12 probability: never in 1e4 draws
  EXPECT_EQ(row.max_weight(), 0x1.0p20f);
}

// ---------------------------------------------------------------------------
// LazyAliasRow: the kAliasClass sampler — same exact distribution, lazy
// per-class materialization, zero-rejection alias draws.
// ---------------------------------------------------------------------------

TEST(LazyAliasRowTest, SampleMatchesWeightsAfterIncrementalEdits) {
  LazyAliasRow row;
  std::vector<real_t> weights = {1.0f, 2.0f, 4.0f, 0.5f};
  row.Build(weights);
  row.PushBack(8.0f);          // weights: 1 2 4 .5 8
  row.Reweight(1, 6.0f);       // weights: 1 6 4 .5 8
  row.SwapRemove(0);           // index 0 now holds old last: 8 6 4 .5
  std::vector<double> expect = {8.0, 6.0, 4.0, 0.5};
  EXPECT_NEAR(row.total_weight(), 18.5, 1e-9);
  Rng rng(kSeed);
  std::vector<uint64_t> counts(expect.size(), 0);
  for (int i = 0; i < 40000; ++i) {
    uint32_t idx = row.Sample(rng);
    ASSERT_LT(idx, counts.size());
    ++counts[idx];
  }
  ExpectChiSquareOk(counts, expect);
}

TEST(LazyAliasRowTest, ZeroWeightEntriesAreNeverSampled) {
  LazyAliasRow row;
  row.Build(std::vector<real_t>{1.0f, 0.0f, 3.0f});
  row.Reweight(2, 0.0f);
  row.PushBack(5.0f);  // live: index 0 (1.0) and index 3 (5.0)
  Rng rng(kSeed);
  for (int i = 0; i < 5000; ++i) {
    uint32_t idx = row.Sample(rng);
    EXPECT_TRUE(idx == 0 || idx == 3) << idx;
  }
  EXPECT_NEAR(row.total_weight(), 6.0, 1e-9);
}

TEST(LazyAliasRowTest, WideDynamicRangeStaysExact) {
  // 2^-20 vs 2^20: both weights sit in their own class, the class CDF stays
  // proportional across 40 doublings, and the dominant class is the only one
  // that ever materializes.
  LazyAliasRow row;
  row.Build(std::vector<real_t>{0x1.0p-20f, 0x1.0p20f});
  Rng rng(kSeed);
  uint64_t big = 0;
  for (int i = 0; i < 10000; ++i) {
    big += row.Sample(rng) == 1 ? 1 : 0;
  }
  EXPECT_EQ(big, 10000u);  // tiny weight ~ 1e-12 probability: never in 1e4 draws
  EXPECT_EQ(row.max_weight(), 0x1.0p20f);
  EXPECT_EQ(row.bucket_builds(), 1u);  // the 2^-20 class was never built
}

TEST(LazyAliasRowTest, BucketsMaterializeLazilyAndRebuildOnStale) {
  // All three weights share ilogb == 1, so the row has exactly one class.
  LazyAliasRow row;
  row.Build(std::vector<real_t>{2.0f, 2.5f, 3.0f});
  EXPECT_EQ(row.bucket_builds(), 0u);  // Build is summary-only
  Rng rng(kSeed);
  for (int i = 0; i < 50; ++i) {
    row.Sample(rng);
  }
  EXPECT_EQ(row.bucket_builds(), 1u);  // first sample built it, rest reused
  // An in-class reweight keeps membership but stales the alias: exactly one
  // rebuild on the next sample, O(bucket) not O(degree * samples).
  row.Reweight(0, 3.5f);
  EXPECT_EQ(row.bucket_builds(), 1u);
  for (int i = 0; i < 50; ++i) {
    row.Sample(rng);
  }
  EXPECT_EQ(row.bucket_builds(), 2u);
  // A new class costs nothing until a sample lands in it.
  row.PushBack(1000.0f);
  EXPECT_EQ(row.bucket_builds(), 2u);
  for (int i = 0; i < 2000; ++i) {
    row.Sample(rng);
  }
  // The 1000-class built once; the small class was already fresh.
  EXPECT_EQ(row.bucket_builds(), 3u);
}

// ---------------------------------------------------------------------------
// Engine integration: the determinism matrix (tentpole acceptance).
// ---------------------------------------------------------------------------

// A mutation schedule exercising every op against the 200-vertex fixture:
// inserts (new + duplicate-tolerant), deletes (real + never-inserted),
// reweights (including to zero), spread over three superstep epochs.
MutationLog BuildSchedule(const Csr<WeightedEdgeData>& csr) {
  MutationLog log(kSeed);
  vertex_id_t d0 = csr.Neighbors(4)[0].neighbor;
  vertex_id_t d1 = csr.Neighbors(9)[1].neighbor;
  log.Append(1, {Ins(4, 100, 3.5f), Ins(9, 120, 0.75f), Rew(4, d0, 8.0f),
                 Ins(50, 51, 2.0f), Ins(50, 52, 1.0f)});
  log.Append(3, {Del(9, d1), Del(4, 199), /* never inserted -> rejected */
                 Ins(120, 9, 1.5f), Rew(9, 120, 4.0f)});
  log.Append(5, {Rew(4, 100, 0.0f), Ins(4, 101, 1.0f), Del(50, 51)});
  return log;
}

struct MatrixRun {
  std::vector<PathEntry> paths;
  SamplingStats stats;
  MutationCounters mutations;
  CheckpointStats ckpt;
};

// One cell of the matrix. `crash_epoch` schedules an epoch-keyed crash;
// `crash_batch` additionally pins a crash to a mutation batch id.
MatrixRun RunDeepWalkWithMutations(const EdgeList<WeightedEdgeData>& edges,
                                   const MutationLog& log, size_t workers, bool faulty,
                                   std::optional<uint64_t> crash_epoch,
                                   std::optional<uint64_t> crash_batch,
                                   uint32_t merge_threshold, const std::string& tag,
                                   DynamicSamplerMode sampler = DynamicSamplerMode::kLegacyRow) {
  WalkEngineOptions opts = BaseOptions(/*num_nodes=*/4, workers);
  opts.mutation_log = &log;
  opts.merge_threshold = merge_threshold;
  opts.dynamic_sampler = sampler;
  FaultInjector* injector_ptr = nullptr;
  FaultPolicy policy;
  if (faulty) {
    policy.drop = 0.1;
    policy.delay = 0.1;
  }
  FaultInjector injector(policy);
  if (faulty || crash_epoch.has_value() || crash_batch.has_value()) {
    injector_ptr = &injector;
    opts.fault_injector = injector_ptr;
  }
  if (crash_epoch.has_value()) {
    injector.CrashNode(1, *crash_epoch);
  }
  if (crash_batch.has_value()) {
    injector.CrashOnMutationBatch(2, *crash_batch);
  }
  if (crash_epoch.has_value() || crash_batch.has_value()) {
    opts.checkpoint_every = 2;
    opts.checkpoint_path = SnapshotPath(tag);
  }
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  MatrixRun run;
  run.stats =
      engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(100, {.walk_length = 12}));
  run.paths = engine.TakePathEntries();
  run.mutations = engine.mutation_counters();
  run.ckpt = engine.checkpoint_stats();
  EXPECT_EQ(engine.mutation_batches_applied(), log.num_batches());
  if (injector_ptr != nullptr) {
    EXPECT_EQ(injector.pending_crashes(), 0u);
    EXPECT_EQ(injector.pending_batch_crashes(), 0u);
  }
  if (!opts.checkpoint_path.empty()) {
    std::remove(opts.checkpoint_path.c_str());
  }
  return run;
}

TEST(MutationDeterminismTest, DeepWalkMatrixIsByteIdentical) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);

  // On a mutating graph the fault schedule is part of the seeded trajectory:
  // a deterministically delayed walker takes its step one superstep later
  // and legitimately observes a younger graph (docs/DYNAMIC_GRAPHS.md). So
  // the reference is per fault policy, and byte-identity is required across
  // worker placement and crash-and-replay recovery within each policy —
  // exactly the axes an operator cannot control.
  for (uint32_t merge_threshold : {0u, 4u}) {
    for (bool faulty : {false, true}) {
      SCOPED_TRACE("merge_threshold=" + std::to_string(merge_threshold) +
                   " faulty=" + std::to_string(faulty));
      MatrixRun reference =
          RunDeepWalkWithMutations(edges, log, /*workers=*/0, faulty, std::nullopt,
                                   std::nullopt, merge_threshold, "ref");
      ASSERT_FALSE(reference.paths.empty());
      EXPECT_GT(reference.mutations.applied(), 0u);
      if (merge_threshold != 0) {
        EXPECT_GT(reference.mutations.merges, 0u);
      }
      int variant = 0;
      for (size_t workers : {size_t{0}, size_t{4}}) {
        for (bool crash : {false, true}) {
          SCOPED_TRACE("workers=" + std::to_string(workers) + " crash=" +
                       std::to_string(crash));
          std::string tag = "m" + std::to_string(merge_threshold) + "_f" +
                            std::to_string(faulty) + "_" + std::to_string(variant++);
          MatrixRun run = RunDeepWalkWithMutations(
              edges, log, workers, faulty,
              crash ? std::optional<uint64_t>(4) : std::nullopt, std::nullopt,
              merge_threshold, tag);
          EXPECT_EQ(run.paths, reference.paths) << "mutating walk diverged";
          EXPECT_EQ(run.stats.steps, reference.stats.steps);
          // Post-recovery mutation counters must match an uncrashed run's:
          // the replay re-derives them rather than double-counting.
          EXPECT_EQ(run.mutations.applied(), reference.mutations.applied());
          EXPECT_EQ(run.mutations.rejected, reference.mutations.rejected);
          EXPECT_EQ(run.mutations.merges, reference.mutations.merges);
          if (crash) {
            EXPECT_GT(run.ckpt.recoveries, 0u);
          }
        }
      }
    }
  }
}

TEST(MutationDeterminismTest, CrashPinnedToMutationBatchRecovers) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  MatrixRun reference = RunDeepWalkWithMutations(edges, log, 0, false, std::nullopt,
                                                 std::nullopt, 0, "bref");
  // Crash node 2 the instant the epoch-3 batch applies. Its id is a content
  // hash — the test does not need to know the epoch schedule. That batch
  // mutates vertices 4/9/120, including the crashed node's own vertex range
  // (4 nodes x 200 vertices -> node 2 owns [100, 150)): recovery must replay
  // the mutation for the crashed range, not just restore walker state.
  MatrixRun run = RunDeepWalkWithMutations(edges, log, WorkersFromEnv(), false,
                                           std::nullopt, log.batch(1).id, 0, "batchcrash");
  EXPECT_EQ(run.paths, reference.paths);
  EXPECT_GT(run.ckpt.recoveries, 0u);
}

TEST(MutationDeterminismTest, DynamicTransitionWithMutationsIsDeterministic) {
  // Non-backtracking walk (dynamic Pd, first-order) over a mutating graph:
  // exercises the envelope refresh on overlay edits.
  auto edges = AssignUniformWeights(GenerateUniformDegree(120, 6, 17), 1.0f, 3.0f, 5);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log(kSeed);
  log.Append(1, {Ins(3, 60, 6.0f), Rew(3, csr.Neighbors(3)[0].neighbor, 0.5f)});
  log.Append(2, {Del(60, csr.Neighbors(60)[0].neighbor), Ins(60, 3, 2.0f)});

  auto run_once = [&](size_t workers) {
    WalkEngineOptions opts = BaseOptions(3, workers);
    opts.mutation_log = &log;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(NoReturnTransition<WeightedEdgeData>(),
               NoReturnWalkers(80, {.walk_length = 10}));
    return engine.TakePathEntries();
  };
  std::vector<PathEntry> base = run_once(0);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(run_once(4), base);
}

TEST(MutationDeterminismTest, DynamicSamplerLegacyVsAliasAB) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  auto run = [&](DynamicSamplerMode mode, size_t workers) {
    return RunDeepWalkWithMutations(edges, log, workers, /*faulty=*/false, std::nullopt,
                                    std::nullopt, /*merge_threshold=*/0, "ab", mode)
        .paths;
  };
  // Each mode is byte-stable across worker placement...
  std::vector<PathEntry> legacy = run(DynamicSamplerMode::kLegacyRow, 0);
  ASSERT_FALSE(legacy.empty());
  EXPECT_EQ(run(DynamicSamplerMode::kLegacyRow, 4), legacy);
  std::vector<PathEntry> alias = run(DynamicSamplerMode::kAliasClass, 0);
  ASSERT_FALSE(alias.empty());
  EXPECT_EQ(run(DynamicSamplerMode::kAliasClass, 4), alias);
  // ...but the modes consume different RNG draw sequences on dirty rows, so
  // their walks legitimately diverge — which is exactly why kAliasClass is
  // gated behind the option instead of silently replacing the default.
  EXPECT_NE(alias, legacy);
}

TEST(MutationDeterminismTest, AliasSamplerCrashRecoveryIsByteIdentical) {
  // Crash-and-replay under kAliasClass: the replay rebuilds overlay rows
  // without sampling, so recovery only stays byte-identical because
  // materialized class state is a pure function of current row membership
  // (item lists in ascending index order, rebuilt on first post-recovery
  // sample) — the property this test pins.
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  MatrixRun reference = RunDeepWalkWithMutations(
      edges, log, 0, false, std::nullopt, std::nullopt, /*merge_threshold=*/4, "alref",
      DynamicSamplerMode::kAliasClass);
  ASSERT_FALSE(reference.paths.empty());
  MatrixRun run = RunDeepWalkWithMutations(
      edges, log, WorkersFromEnv(), false, std::optional<uint64_t>(4), std::nullopt,
      /*merge_threshold=*/4, "alcrash", DynamicSamplerMode::kAliasClass);
  EXPECT_EQ(run.paths, reference.paths);
  EXPECT_GT(run.ckpt.recoveries, 0u);
  EXPECT_EQ(run.mutations.applied(), reference.mutations.applied());
  EXPECT_EQ(run.mutations.merges, reference.mutations.merges);
}

// ---------------------------------------------------------------------------
// Option validation: bad configs are rejected with an actionable error
// before any setup runs (so a service can refuse them instead of dying on
// the KK_CHECK inside Run).
// ---------------------------------------------------------------------------

TEST(ValidateRunTest, RejectsMutatingSecondOrderAndStaleStateCombos) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(50, 6, 301), 1.0f, 5.0f, 11);
  MutationLog log(kSeed);
  log.Append(1, {Ins(0, 30, 2.0f)});

  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  // First-order transitions are fine under mutation.
  EXPECT_EQ(engine.ValidateRun(DeepWalkTransition<WeightedEdgeData>()), "");
  // Second-order x mutation: rejected with a pointer at the fix.
  std::string err =
      engine.ValidateRun(Node2VecTransition(engine.graph(), Node2VecParams{}));
  EXPECT_NE(err.find("second-order"), std::string::npos) << err;
  EXPECT_NE(err.find("mutation_log"), std::string::npos) << err;

  // reuse_static_state x mutation: also rejected, distinct message.
  WalkEngineOptions sopts = BaseOptions(2, 0);
  sopts.mutation_log = &log;
  sopts.reuse_static_state = true;
  WalkEngine<WeightedEdgeData> stale(Csr<WeightedEdgeData>::FromEdgeList(edges), sopts);
  std::string serr = stale.ValidateRun(DeepWalkTransition<WeightedEdgeData>());
  EXPECT_NE(serr.find("reuse_static_state"), std::string::npos) << serr;

  // Without a mutation log the same transitions validate cleanly.
  WalkEngineOptions copts = BaseOptions(2, 0);
  WalkEngine<WeightedEdgeData> clean(Csr<WeightedEdgeData>::FromEdgeList(edges), copts);
  EXPECT_EQ(clean.ValidateRun(Node2VecTransition(clean.graph(), Node2VecParams{})), "");
}

TEST(ValidateRunTest, RejectsMutationOutsideVertexRange) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(50, 6, 301), 1.0f, 5.0f, 11);
  for (bool bad_src : {true, false}) {
    SCOPED_TRACE(bad_src ? "src out of range" : "dst out of range");
    MutationLog log(kSeed);
    log.Append(1, {Ins(0, 30, 2.0f)});
    log.Append(2, {bad_src ? Ins(50, 3, 1.0f) : Rew(3, 77, 1.0f)});
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &log;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    const TransitionSpec<WeightedEdgeData> transition = DeepWalkTransition<WeightedEdgeData>();
    const std::string err = engine.ValidateRun(transition);
    EXPECT_NE(err.find("batch 1 (epoch 2)"), std::string::npos) << err;
    EXPECT_NE(err.find(bad_src ? "50->3" : "3->77"), std::string::npos) << err;
    EXPECT_NE(err.find("[0, 50)"), std::string::npos) << err;
    // Run refuses the log before any setup, with the same message, instead
    // of reading past the overlay's vertex table at that batch's superstep.
    const WalkerSpec<> walkers = DeepWalkWalkers(20, {.walk_length = 4});
    EXPECT_DEATH(engine.Run(transition, walkers), "\\[0, 50\\)");
  }
}

// ---------------------------------------------------------------------------
// Incremental-maintenance cost: the O(1) counter pins.
// ---------------------------------------------------------------------------

TEST(IncrementalSamplerTest, OneRowBuildPerDirtyVertexThenO1Updates) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  WalkEngineOptions opts = BaseOptions(2, WorkersFromEnv());
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(60, {.walk_length = 10}));
  MutationCounters mc = engine.mutation_counters();
  // BuildSchedule touches vertices {4, 9, 50, 120}: exactly one O(degree)
  // materialization + sampler row build each, no matter how many mutations
  // land on the row afterwards.
  EXPECT_EQ(mc.rows_materialized, 4u);
  EXPECT_EQ(mc.full_builds, 4u);
  // Legacy rows build every bucket eagerly: no lazy materializations.
  EXPECT_EQ(mc.bucket_builds, 0u);
  // Every accepted mutation is one O(1) bucket edit; the rejected delete
  // (4 -> 199) mirrors nothing.
  EXPECT_EQ(mc.rejected, 1u);
  EXPECT_EQ(mc.applied(), log.num_mutations() - mc.rejected);
  EXPECT_EQ(mc.incremental_updates, mc.applied());
  EXPECT_EQ(mc.merges, 0u);
  EXPECT_GT(mc.delta_mutations, 0u);

  // Metrics surface the same story.
  obs::MetricsRegistry reg;
  engine.ExportMetrics(reg);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("graph.delta_edges"), std::string::npos);
  EXPECT_NE(json.find("graph.merge_micros"), std::string::npos);
  EXPECT_NE(json.find("graph.mutations_applied"), std::string::npos);
  EXPECT_NE(json.find("sampler.incremental_updates"), std::string::npos);
  EXPECT_NE(json.find("sampler.full_builds"), std::string::npos);
  EXPECT_NE(json.find("sampler.bucket_builds"), std::string::npos);
}

TEST(IncrementalSamplerTest, AliasModeBuildsSummariesEagerlyBucketsLazily) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  WalkEngineOptions opts = BaseOptions(2, WorkersFromEnv());
  opts.mutation_log = &log;
  opts.dynamic_sampler = DynamicSamplerMode::kAliasClass;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(60, {.walk_length = 10}));
  MutationCounters mc = engine.mutation_counters();
  // Same O(degree)-once / O(1)-after contract as legacy rows...
  EXPECT_EQ(mc.rows_materialized, 4u);
  EXPECT_EQ(mc.full_builds, 4u);
  EXPECT_EQ(mc.incremental_updates, mc.applied());
  // ...plus lazy class materializations, only where samples actually landed:
  // strictly fewer than a full eager build of every class of every dirty row
  // would cost, but nonzero because walkers do hit the dirty vertices.
  EXPECT_GT(mc.bucket_builds, 0u);
  EXPECT_LT(mc.bucket_builds,
            mc.rows_materialized * static_cast<uint64_t>(LazyAliasRow::kNumClasses));
}

TEST(IncrementalSamplerTest, TouchedBytesEstimateGrowsWithDeltaRows) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  WalkEngineOptions opts = BaseOptions(2, 0);
  WalkEngine<WeightedEdgeData> clean(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  clean.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(40, {.walk_length = 6}));
  uint64_t clean_estimate = clean.EstimatedBatchTouchedBytes(64);

  MutationLog log = BuildSchedule(csr);
  WalkEngineOptions mopts = BaseOptions(2, 0);
  mopts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> mutated(Csr<WeightedEdgeData>::FromEdgeList(edges), mopts);
  mutated.Run(DeepWalkTransition<WeightedEdgeData>(),
              DeepWalkWalkers(40, {.walk_length = 6}));
  // kAuto batch sorting must see the overlay rows + weight-class rows a
  // mutated batch drags into cache, not just the flat per-vertex footprint.
  EXPECT_GT(mutated.EstimatedBatchTouchedBytes(64), clean_estimate);
}

// Every batch crosses merge_threshold 4 on vertex 4's row, so every batch
// ends in a merge. Batch sources: {4, 9}, {4, 50}, {4, 120}.
MutationLog EveryBatchMergesSchedule(const Csr<WeightedEdgeData>& csr) {
  MutationLog log(kSeed);
  auto four_reweights = [&](real_t w) {
    std::vector<EdgeMutation> ms;
    for (size_t i = 0; i < 4; ++i) {
      ms.push_back(Rew(4, csr.Neighbors(4)[i].neighbor, w + static_cast<real_t>(i)));
    }
    return ms;
  };
  std::vector<EdgeMutation> b0 = four_reweights(2.0f);
  b0.push_back(Ins(9, 120, 0.75f));
  std::vector<EdgeMutation> b1 = four_reweights(6.0f);
  b1.push_back(Ins(50, 51, 2.0f));
  std::vector<EdgeMutation> b2 = four_reweights(0.5f);
  b2.push_back(Del(120, csr.Neighbors(120)[0].neighbor));
  log.Append(1, std::move(b0));
  log.Append(3, std::move(b1));
  log.Append(5, std::move(b2));
  return log;
}

TEST(DeferredOverlayEditTest, MergingBatchesBuildNoOverlayRows) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = EveryBatchMergesSchedule(csr);
  MatrixRun run = RunDeepWalkWithMutations(edges, log, WorkersFromEnv(), false, std::nullopt,
                                           std::nullopt, /*merge_threshold=*/4, "allmerge");
  ASSERT_FALSE(run.paths.empty());
  const MutationCounters& mc = run.mutations;
  // Two rows materialize per batch and every batch merges...
  EXPECT_EQ(mc.rows_materialized, 6u);
  EXPECT_EQ(mc.merges, 3u);
  EXPECT_EQ(mc.applied(), log.num_mutations());
  // ...so no overlay row is ever built or edited: each merge rebuilds its
  // batch's dirty rows in the flat tables instead.
  EXPECT_EQ(mc.full_builds, 0u);
  EXPECT_EQ(mc.incremental_updates, 0u);
  EXPECT_EQ(mc.delta_mutations, 0u);
}

TEST(DeferredOverlayEditTest, MixedMergeScheduleIsByteIdentical) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  // Batches at epochs 1 and 5 stay below merge_threshold 4 and are sampled
  // from overlay rows; the epoch-3 and epoch-7 batches merge. The epoch-3
  // merge folds the epoch-1 rows too, and the epoch-5 rows are built on the
  // merged graph.
  MutationLog log(kSeed);
  const vertex_id_t d4 = csr.Neighbors(4)[0].neighbor;
  const vertex_id_t d9 = csr.Neighbors(9)[1].neighbor;
  log.Append(1, {Ins(4, 100, 3.5f), Ins(9, 120, 0.75f), Rew(4, d4, 8.0f)});
  log.Append(3, {Rew(9, d9, 2.0f), Ins(9, 31, 1.0f), Del(9, d9), Ins(9, 32, 6.0f),
                 Ins(50, 51, 2.0f)});
  log.Append(5, {Rew(4, 100, 0.0f), Ins(4, 101, 1.0f), Del(50, 51), Ins(120, 9, 1.5f)});
  log.Append(7, {Ins(120, 10, 2.0f), Ins(120, 11, 2.0f), Rew(120, 9, 0.25f), Ins(120, 12, 4.0f)});
  // One cell at merge_threshold 4; crash_epoch 0 means no crash.
  auto run_cell = [&](size_t workers, uint64_t crash_epoch, const std::string& tag) {
    std::optional<uint64_t> crash;
    if (crash_epoch > 0) crash = crash_epoch;
    return RunDeepWalkWithMutations(edges, log, workers, false, crash, std::nullopt, 4, tag);
  };
  const MatrixRun reference = run_cell(0, 0, "mixref");
  ASSERT_FALSE(reference.paths.empty());
  EXPECT_EQ(reference.mutations.merges, 2u);
  // Only the non-merging batches reach the overlay: rows 4 and 9 at epoch 1,
  // rows 4, 50 and 120 at epoch 5.
  EXPECT_EQ(reference.mutations.full_builds, 5u);
  EXPECT_EQ(reference.mutations.incremental_updates, 7u);
  int variant = 0;
  for (size_t workers : {size_t{0}, size_t{4}}) {
    for (uint64_t crash_epoch : {uint64_t{0}, uint64_t{4}, uint64_t{6}}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " crash_epoch=" << crash_epoch);
      const MatrixRun run = run_cell(workers, crash_epoch, "mix" + std::to_string(variant++));
      EXPECT_EQ(run.paths, reference.paths);
      EXPECT_EQ(run.mutations.merges, reference.mutations.merges);
      EXPECT_EQ(run.mutations.full_builds, reference.mutations.full_builds);
      EXPECT_EQ(run.mutations.incremental_updates, reference.mutations.incremental_updates);
      if (crash_epoch > 0) {
        EXPECT_GT(run.ckpt.recoveries, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Distribution correctness over a mutated row.
// ---------------------------------------------------------------------------

TEST(MutationDistributionTest, FirstStepsMatchLiveRowWeights) {
  // Star graph: every walk starts at the hub, so first steps sample the
  // hub's (mutated) row directly.
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 8;
  list.edges = {{0, 1, {1.0f}}, {0, 2, {2.0f}}, {0, 3, {3.0f}},
                {1, 0, {1.0f}}, {2, 0, {1.0f}}, {3, 0, {1.0f}}};
  MutationLog log(kSeed);
  log.Append(0, {Ins(0, 4, 4.0f), Rew(0, 2, 6.0f), Del(0, 1)});
  WalkEngineOptions opts = BaseOptions(1, WorkersFromEnv());
  opts.mutation_log = &log;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(list), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 30000;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng&) -> vertex_id_t { return 0; };
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), walkers);
  auto paths = engine.TakePathEntries();
  // Live row after the epoch-0 batch: {2: 6, 3: 3, 4: 4}; 1 deleted.
  std::vector<uint64_t> counts(5, 0);
  for (const PathEntry& p : paths) {
    if (p.step == 1) {
      ASSERT_LT(p.vertex, counts.size());
      ++counts[p.vertex];
    }
  }
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  ExpectChiSquareOk({counts[2], counts[3], counts[4]}, {6.0, 3.0, 4.0});
}

TEST(MutationDistributionTest, FirstStepsMatchLiveRowWeightsAliasSampler) {
  // Same star-graph fixture through the kAliasClass read path: the lazy
  // class CDF + per-class alias draw must reproduce the exact edge-weight
  // law over the mutated hub row.
  EdgeList<WeightedEdgeData> list;
  list.num_vertices = 8;
  list.edges = {{0, 1, {1.0f}}, {0, 2, {2.0f}}, {0, 3, {3.0f}},
                {1, 0, {1.0f}}, {2, 0, {1.0f}}, {3, 0, {1.0f}}};
  MutationLog log(kSeed);
  log.Append(0, {Ins(0, 4, 4.0f), Rew(0, 2, 6.0f), Del(0, 1)});
  WalkEngineOptions opts = BaseOptions(1, WorkersFromEnv());
  opts.mutation_log = &log;
  opts.dynamic_sampler = DynamicSamplerMode::kAliasClass;
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(list), opts);
  WalkerSpec<> walkers;
  walkers.num_walkers = 30000;
  walkers.max_steps = 1;
  walkers.start_vertex = [](walker_id_t, Rng&) -> vertex_id_t { return 0; };
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), walkers);
  auto paths = engine.TakePathEntries();
  // Live row after the epoch-0 batch: {2: 6, 3: 3, 4: 4}; 1 deleted.
  std::vector<uint64_t> counts(5, 0);
  for (const PathEntry& p : paths) {
    if (p.step == 1) {
      ASSERT_LT(p.vertex, counts.size());
      ++counts[p.vertex];
    }
  }
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  ExpectChiSquareOk({counts[2], counts[3], counts[4]}, {6.0, 3.0, 4.0});
}

// ---------------------------------------------------------------------------
// Checkpoint v2 interplay.
// ---------------------------------------------------------------------------

TEST(MutationCheckpointTest, SnapshotRecordsMutationCutAndHash) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.mutation_log = &log;
  opts.checkpoint_every = 4;  // snapshot at superstep 8 sits after all batches
  opts.checkpoint_path = SnapshotPath("cut");
  WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(60, {.walk_length = 12}));

  CheckpointInfo info;
  std::string error;
  ASSERT_TRUE(InspectCheckpoint(opts.checkpoint_path, &info, &error)) << error;
  EXPECT_EQ(info.header.version, 2u);
  EXPECT_EQ(info.header.mutation_batches, log.num_batches());
  EXPECT_EQ(info.header.mutation_hash, log.PrefixHash(log.num_batches()));
  std::remove(opts.checkpoint_path.c_str());
}

TEST(MutationCheckpointTest, RestoreRefusesMismatchedLog) {
  auto edges = AssignUniformWeights(GenerateUniformDegree(200, 8, 301), 1.0f, 5.0f, 11);
  auto csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log = BuildSchedule(csr);
  std::string path = SnapshotPath("mismatch");
  {
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &log;
    opts.checkpoint_every = 4;
    opts.checkpoint_path = path;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(),
               DeepWalkWalkers(60, {.walk_length = 12}));
  }
  // Same run shape, different mutation history: the snapshot's prefix hash
  // cannot match, so LoadCheckpoint must refuse before touching state.
  MutationLog other(kSeed);
  other.Append(1, {Ins(4, 100, 3.5f)});
  other.Append(3, {Del(9, 1)});
  other.Append(5, {Ins(50, 51, 1.0f)});
  {
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.mutation_log = &other;
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(),
               DeepWalkWalkers(60, {.walk_length = 12}));
    EXPECT_FALSE(engine.LoadCheckpoint(path));
  }
  // No log at all: a mutation-bearing snapshot is not restorable either.
  {
    WalkEngineOptions opts = BaseOptions(2, 0);
    WalkEngine<WeightedEdgeData> engine(Csr<WeightedEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<WeightedEdgeData>(),
               DeepWalkWalkers(60, {.walk_length = 12}));
    EXPECT_FALSE(engine.LoadCheckpoint(path));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace knightking
