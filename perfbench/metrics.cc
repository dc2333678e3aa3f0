// Unit costs (tight loops over public calls on the workload's own data) and
// the per-layer metric helpers every workload shares.
#include <algorithm>
#include <memory>
#include <type_traits>

#include "src/engine/mailbox.h"
#include "src/graph/neighbor_index.h"
#include "src/sampling/alias_table.h"
#include "src/sampling/weight_class.h"
#include "workloads.h"

namespace perfbench {

using namespace knightking;

namespace {

// Keeps loop results alive without a memory round trip per iteration.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

constexpr int kRounds = 3;  // report the median round

template <typename Fn>
double MedianNsPerCall(uint64_t calls, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const double t = NowSeconds();
    fn(r);
    ns.push_back((NowSeconds() - t) * 1e9 / static_cast<double>(calls));
  }
  return Median(ns);
}

}  // namespace

void AddEngineMetrics(Report& report, const EngineLayer& e) {
  const EnginePhaseTimes& ph = e.phases;
  const SamplingStats& s = e.stats;
  report.Add("engine.ctor_s", e.ctor_s, "s");
  report.Add("engine.run_s", e.run_s, "s");
  report.Add("engine.sample_s", ph.sample, "s");
  report.Add("engine.respond_s", ph.respond, "s");
  report.Add("engine.resolve_s", ph.resolve, "s");
  report.Add("engine.exchange_s", ph.exchange, "s");
  // Prepare, deploy, mutation apply and merges: whatever no phase covers.
  const double phases = ph.sample + ph.respond + ph.resolve + ph.exchange;
  report.Add("engine.other_s", e.run_s - phases, "s");
  report.Add("engine.steps", static_cast<double>(s.steps), "count");
  report.Add("engine.trials", static_cast<double>(s.trials), "count");
  report.Add("engine.accept_ratio",
             s.trials == 0 ? 0.0
                           : static_cast<double>(s.steps) / static_cast<double>(s.trials),
             "ratio");
  report.Add("engine.edges_per_step", s.EdgesPerStep(), "ratio");
  report.Add("engine.supersteps", static_cast<double>(s.iterations), "count");
  report.Add("engine.cross_node_messages", static_cast<double>(e.cross_node_messages), "count");
  report.Add("engine.cross_node_bytes", static_cast<double>(e.cross_node_bytes), "bytes");
  report.Add("engine.partition_batches", static_cast<double>(e.partition_batches), "count");
  report.Add("engine.partition_walkers", static_cast<double>(e.partition_walkers), "count");
  report.Add("engine.interleave_groups", static_cast<double>(e.interleave_groups), "count");
}

void AddDeltaMetrics(Report& report, const DeltaLayer& d) {
  const MutationCounters& mc = d.counters;
  report.Add("delta.log_append_s", d.log_append_s, "s");
  report.Add("delta.mutations_applied", static_cast<double>(mc.applied()), "count");
  report.Add("delta.mutations_rejected", static_cast<double>(mc.rejected), "count");
  report.Add("delta.rows_materialized", static_cast<double>(mc.rows_materialized), "count");
  report.Add("delta.full_builds", static_cast<double>(mc.full_builds), "count");
  report.Add("delta.bucket_builds", static_cast<double>(mc.bucket_builds), "count");
  report.Add("delta.incremental_updates", static_cast<double>(mc.incremental_updates), "count");
  report.Add("delta.merges", static_cast<double>(mc.merges), "count");
  report.Add("delta.merge_s", d.merge_s, "s");
}

void AddServiceMetrics(Report& report, const ServiceLayer& s) {
  report.Add("service.index_build_s", s.index_build_s, "s");
  report.Add("service.index_mib", s.index_mib, "MiB");
  report.Add("service.batch_ms.p50", s.batch_ms_p50, "ms");
  report.Add("service.batch_ms.p99", s.batch_ms_p99, "ms");
  report.Add("service.batch_size.mean", s.batch_size_mean, "queries");
  report.Add("service.queue_wait_ms.p50", s.queue_wait_ms_p50, "ms");
  report.Add("service.queue_wait_ms.p99", s.queue_wait_ms_p99, "ms");
  report.Add("service.p99_ms", s.p99_ms, "ms");
  report.Add("service.cache_hit_ratio", s.cache_hit_ratio, "ratio");
  report.Add("service.segments_per_query", s.segments_per_query, "count");
  report.Add("service.live_walks_per_query", s.live_walks_per_query, "count");
  report.Add("service.rejected", s.rejected, "count");
  report.Add("service.gen_late_ms.max", s.gen_late_ms_max, "ms");
}

double MeasureRngNs(uint64_t seed) {
  constexpr uint64_t kCalls = 20000000;
  Rng rng(seed);
  return MedianNsPerCall(kCalls, [&](int) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < kCalls; ++i) acc ^= rng.Next();
    Keep(acc);
  });
}

double MeasureMailboxMsgNs(uint64_t seed) {
  // The engine's shape: 4 nodes, each posting one batch per destination per
  // superstep, then one Exchange barrier.
  constexpr node_rank_t kNodes = 4;
  constexpr size_t kBatch = 2048;
  constexpr int kSupersteps = 200;
  const uint64_t calls = static_cast<uint64_t>(kNodes) * kNodes * kBatch * kSupersteps;
  // Post moves the elements out and leaves the vector's storage with the
  // caller; a trivially copyable walker is unchanged by the move, so one
  // prebuilt batch is posted again and again and the timed loop allocates
  // nothing once the mailbox buffers have grown in the warm-up superstep.
  static_assert(std::is_trivially_copyable_v<Walker<>>);
  Walker<> proto;
  proto.rng.Seed(seed);
  std::vector<Walker<>> batch(kBatch, proto);
  Mailbox<Walker<>> mail(kNodes);
  auto superstep = [&] {
    for (node_rank_t src = 0; src < kNodes; ++src) {
      for (node_rank_t dst = 0; dst < kNodes; ++dst) mail.Post(src, dst, std::move(batch));
    }
    mail.Exchange();
    Keep(mail.Inbox(0).size());
  };
  superstep();
  return MedianNsPerCall(calls, [&](int) {
    for (int s = 0; s < kSupersteps; ++s) superstep();
  });
}

double MeasureNeighborLookupNs(const Csr<EmptyEdgeData>& graph, uint64_t seed) {
  constexpr uint64_t kCalls = 4000000;
  const NeighborIndex index = NeighborIndex::Build(graph);
  // Half true neighbors, half random vertices: node2vec asks about both.
  CounterRng rng(HashCombine64(seed, 0x6e6272ULL));
  const vertex_id_t n = graph.num_vertices();
  std::vector<std::pair<vertex_id_t, vertex_id_t>> pairs(kCalls);
  for (uint64_t i = 0; i < kCalls; ++i) {
    const auto v = static_cast<vertex_id_t>(rng.Next() % n);
    const auto row = graph.Neighbors(v);
    const vertex_id_t dst = (i % 2 == 0 && !row.empty())
                                ? row[rng.Next() % row.size()].neighbor
                                : static_cast<vertex_id_t>(rng.Next() % n);
    pairs[i] = {v, dst};
  }
  return MedianNsPerCall(kCalls, [&](int) {
    uint64_t hits = 0;
    for (const auto& [v, d] : pairs) hits += index.Contains(v, d) ? 1 : 0;
    Keep(hits);
  });
}

void MeasureWeightedUnits(const Csr<WeightedEdgeData>& graph, const std::vector<vertex_id_t>& hot,
                          uint64_t seed, UnitCosts* out) {
  const vertex_id_t n = graph.num_vertices();
  CounterRng pick(HashCombine64(seed, 0x756e6974ULL));  // "unit"

  // Static alias draws over every row, as the engine's clean-row sampler.
  {
    constexpr uint64_t kCalls = 4000000;
    std::vector<edge_index_t> offsets(n + 1);
    std::vector<real_t> weights(graph.num_edges());
    for (vertex_id_t v = 0; v < n; ++v) {
      offsets[v] = graph.EdgeBegin(v);
      const auto row = graph.Neighbors(v);
      for (size_t j = 0; j < row.size(); ++j) weights[offsets[v] + j] = row[j].data.weight;
    }
    offsets[n] = graph.num_edges();
    FlatAliasTables tables;
    tables.Build(offsets, weights);
    std::vector<vertex_id_t> at;
    at.reserve(kCalls);
    while (at.size() < kCalls) {
      const auto v = static_cast<vertex_id_t>(pick.Next() % n);
      if (graph.OutDegree(v) > 0) at.push_back(v);
    }
    Rng rng(seed);
    out->alias_draw_ns = MedianNsPerCall(kCalls, [&](int) {
      uint64_t acc = 0;
      for (vertex_id_t v : at) acc += tables.Sample(v, rng);
      Keep(acc);
    });
  }

  std::vector<std::vector<real_t>> rows;
  for (vertex_id_t v : hot) {
    std::vector<real_t> w;
    for (const auto& e : graph.Neighbors(v)) w.push_back(e.data.weight);
    if (!w.empty()) rows.push_back(std::move(w));
  }
  if (rows.empty()) return;
  constexpr uint64_t kRowCalls = 2000000;

  // Lazy per-class alias rows on the hot rows.
  {
    std::vector<std::unique_ptr<LazyAliasRow>> lazy;
    for (const auto& w : rows) {
      lazy.push_back(std::make_unique<LazyAliasRow>());
      lazy.back()->Build(w);
    }
    Rng rng(seed);
    out->lazy_alias_draw_ns = MedianNsPerCall(kRowCalls, [&](int) {
      uint64_t acc = 0;
      for (uint64_t i = 0; i < kRowCalls; ++i) acc += lazy[i % lazy.size()]->Sample(rng);
      Keep(acc);
    });
  }

  // The overlay in the engine's default dirty-row mode: draws and O(1)
  // reweights on the same hot rows.
  DynamicSamplerOverlay overlay;
  overlay.Reset(n, WalkEngineOptions{}.dynamic_sampler);
  std::vector<vertex_id_t> ids;
  for (vertex_id_t v : hot) {
    if (graph.OutDegree(v) == 0) continue;
    std::vector<real_t> w;
    for (const auto& e : graph.Neighbors(v)) w.push_back(e.data.weight);
    overlay.BuildRow(v, w);
    ids.push_back(v);
  }
  {
    Rng rng(seed);
    out->dirty_row_draw_ns = MedianNsPerCall(kRowCalls, [&](int) {
      uint64_t acc = 0;
      for (uint64_t i = 0; i < kRowCalls; ++i) acc += overlay.Sample(ids[i % ids.size()], rng);
      Keep(acc);
    });
  }
  {
    struct Update {
      vertex_id_t v;
      uint32_t idx;
      real_t w;
    };
    std::vector<Update> updates(kRowCalls);
    for (uint64_t i = 0; i < kRowCalls; ++i) {
      const vertex_id_t v = ids[pick.Next() % ids.size()];
      updates[i] = {v, static_cast<uint32_t>(pick.Next() % graph.OutDegree(v)),
                    static_cast<real_t>(0.25 + pick.NextDouble() * 4.0)};
    }
    out->overlay_update_ns = MedianNsPerCall(kRowCalls, [&](int) {
      for (const Update& u : updates) overlay.Reweight(u.v, u.idx, u.w);
    });
  }
}

void AddUnitMetrics(Report& report, const UnitCosts& u) {
  report.Add("unit.rng_ns", u.rng_ns, "ns");
  report.Add("unit.alias_draw_ns", u.alias_draw_ns, "ns");
  report.Add("unit.lazy_alias_draw_ns", u.lazy_alias_draw_ns, "ns");
  report.Add("unit.dirty_row_draw_ns", u.dirty_row_draw_ns, "ns");
  report.Add("unit.overlay_update_ns", u.overlay_update_ns, "ns");
  report.Add("unit.neighbor_lookup_ns", u.neighbor_lookup_ns, "ns");
  report.Add("unit.mailbox_msg_ns", u.mailbox_msg_ns, "ns");
}

void AddProcMetrics(Report& report, const ProcDiagnostics& diag, int max_threads) {
  report.Add("proc.cpu_util", diag.cpu_util(), "cores");
  report.Add("proc.vol_ctx_switches", static_cast<double>(diag.vol_ctx()), "count");
  report.Add("proc.invol_ctx_switches", static_cast<double>(diag.invol_ctx()), "count");
  report.Add("proc.minor_faults", static_cast<double>(diag.minor_faults()), "count");
  report.Add("host.steal_frac", diag.steal_frac(), "ratio");
  report.Add("host.probe_ns", diag.host_probe_ns(), "ns");
  report.Add("proc.threads_max", max_threads, "count");
}

void PrintNoise(const ProcDiagnostics& diag, int max_threads) {
  std::printf("noise: host.steal_frac %.4f host.probe_ns %.4f proc.cpu_util %.3f cores, "
              "ctx %lld vol / %lld invol, %lld minor faults, threads %d\n",
              diag.steal_frac(), diag.host_probe_ns(), diag.cpu_util(),
              static_cast<long long>(diag.vol_ctx()),
              static_cast<long long>(diag.invol_ctx()),
              static_cast<long long>(diag.minor_faults()), max_threads);
}

void AddEngineEndToEnd(Report& report, const char* workload, double walkers,
                       const std::vector<double>& setup_s, const std::vector<double>& run_s,
                       double peak_rss_mib) {
  const double run = Median(run_s);
  std::printf("%s: %zu runs, run_s median %.4f (min %.4f max %.4f), setup_s median %.4f\n",
              workload, run_s.size(), run, *std::min_element(run_s.begin(), run_s.end()),
              *std::max_element(run_s.begin(), run_s.end()), Median(setup_s));
  std::vector<double> wps;
  for (double r : run_s) wps.push_back(walkers / r);
  report.Add("walks_per_s", Median(wps), "walks/s");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mib", peak_rss_mib, "MiB");
  report.Add("p50_ms", run * 1e3, "ms");
  report.Add("sat_qps", 1.0 / run, "queries/s");
}

void AddTraceMetrics(Report& report, const SpanLog* spans,
                     const std::vector<obs::TraceRecorder::Event>& events, double overhead_s) {
  const auto self = LayerSelfTimes(DriverTimeline(spans->spans(), events));
  for (const char* layer : {"graph", "engine", "delta", "service"}) {
    double s = 0.0;
    for (const auto& [name, v] : self) {
      if (name == layer) s = v;
    }
    report.Add(std::string("trace.") + layer + "_self_s", s, "s");
  }
  report.Add("trace.spans", static_cast<double>(spans->spans().size() + events.size()), "count");
  report.Add("trace.overhead_s", overhead_s, "s");
}

}  // namespace perfbench
