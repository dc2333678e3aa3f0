// ppr_service: a WalkService with a segment index and an LRU result cache,
// fed by a Zipf user population (90% PPR with count 32, 10% context with
// count 10). Two phases on one service:
//   * open loop: Poisson arrivals at one fixed offered rate, sent by the
//     same thread that calls ProcessBatch; each query is timed from its due
//     time to the return of the ProcessBatch call that answered it;
//   * closed loop: the admission queue is topped up to its limit before
//     every batch, measuring capacity.
// Index stitching, the cache, batching and live-walk fallback carry the run;
// the engine only runs small first-order batches.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "src/graph/generators.h"
#include "src/service/walk_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace knightking;

constexpr vertex_id_t kVertices = 30000;
constexpr uint64_t kUsers = 20000;
constexpr double kUserTheta = 0.99;
// queries/s: 40% of the median closed-loop capacity (1810 q/s) first measured
// on a 4-CPU VM. That capacity drifts with the host (1.6k-3.8k q/s), and at
// 900 q/s, half of it, p50 spread half as much again between runs (README.md).
constexpr double kOfferedRate = 750.0;
constexpr size_t kQueueDepth = 256;
constexpr int kSetupReps = 4;  // timed set-ups per run, the serving one included
constexpr size_t kWarmupQueries = 500;
constexpr size_t kReplaySampleMax = 200;
constexpr uint64_t kReplayEvery = 40;  // sample ~1 in 40 answers for replay

using Service = WalkService<EmptyEdgeData>;

WalkServiceOptions ServiceOptions(uint64_t seed) {
  WalkServiceOptions opts;
  opts.seed = seed;
  opts.segments_per_vertex = 8;
  opts.segment_cap = 16;
  opts.cache_capacity = 256;
  opts.max_batch = 64;
  opts.max_queue_depth = kQueueDepth;
  // The engine stays at its defaults: one logical node run inline on the
  // thread that calls ProcessBatch. Live-walk batches are small; 3 pool
  // workers served no more queries per second on 4 CPUs and added ~100k
  // context switches per run (see README.md).
  return opts;
}

// A seeded query stream: Zipf-ranked users mapped to vertices.
std::vector<ServiceQuery> MakeQueries(uint64_t seed, uint64_t salt, size_t count) {
  static const ZipfSampler zipf(kUsers, kUserTheta);
  CounterRng rng(HashCombine64(seed, salt));
  const uint64_t user_key = HashCombine64(seed, 0x75736572ULL);  // "user"
  std::vector<ServiceQuery> out(count);
  for (ServiceQuery& q : out) {
    const uint64_t user = zipf.Sample(rng);
    q.vertex = static_cast<vertex_id_t>(Mix64(user_key ^ user) % kVertices);
    if (rng.Next() % 10 == 0) {
      q.kind = QueryKind::kContext;
      q.count = 10;
    } else {
      q.kind = QueryKind::kPpr;
      q.count = 32;
    }
  }
  return out;
}

struct Setup {
  std::unique_ptr<Service> service;
  double csr_s = 0.0;
  double ctor_s = 0.0;
  double index_s = 0.0;
  double total() const { return csr_s + ctor_s + index_s; }
};

Setup BuildService(const EdgeList<EmptyEdgeData>& edges, const WalkServiceOptions& sopts,
                   SpanLog* spans) {
  ReleaseFreedMemory();
  Setup s;
  double t = NowSeconds();
  Csr<EmptyEdgeData> csr;
  {
    ScopedSpan span(spans, "Csr::FromEdgeList", "graph");
    csr = Csr<EmptyEdgeData>::FromEdgeList(edges);
  }
  s.csr_s = NowSeconds() - t;
  t = NowSeconds();
  {
    ScopedSpan span(spans, "WalkService::WalkService", "service");
    s.service = std::make_unique<Service>(std::move(csr), sopts);
  }
  s.ctor_s = NowSeconds() - t;
  t = NowSeconds();
  {
    ScopedSpan span(spans, "WalkService::BuildIndex", "service");
    s.service->BuildIndex();
  }
  s.index_s = NowSeconds() - t;
  return s;
}

// Answer checks and the replay sample, shared by both loops.
class AnswerLedger {
 public:
  AnswerLedger(uint64_t seed, Checks* checks) : key_(HashCombine64(seed, 0x7265706cULL)),
                                                checks_(checks) {}

  // Checks every answer and keeps a seeded sample for Replay.
  void Check(const std::vector<ServiceResult>& results) {
    for (const ServiceResult& r : results) {
      bool ok = true;
      if (r.query.kind == QueryKind::kPpr) {
        uint64_t endpoints = 0;
        for (const auto& [v, c] : r.endpoints) endpoints += c;
        double total = 0.0;
        for (const auto& [v, s] : r.scores) total += s;
        ok = endpoints == r.query.count && std::abs(total - 1.0) < 1e-9;
      } else {
        ok = r.context.size() <= r.query.count;
      }
      if (!ok) {
        if (bad_total_ == 0) {
          checks_->Expect(false, Format("ppr_service: malformed answer for vertex %u kind %d",
                                        r.query.vertex, static_cast<int>(r.query.kind)));
        }
        bad_total_ += 1;
      }
      if (sample_.size() < kReplaySampleMax && Mix64(key_ ^ answers_) % kReplayEvery == 0) {
        sample_.push_back({r.query, r.Canonical()});
      }
      answers_ += 1;
    }
  }

  // Replays the sample through ServeOne on `fresh`; counts mismatches.
  uint64_t Replay(Service& fresh) {
    uint64_t mismatches = 0;
    for (const auto& [q, canonical] : sample_) {
      if (fresh.ServeOne(q).Canonical() != canonical) mismatches += 1;
    }
    checks_->Expect(!sample_.empty(), "ppr_service: replay sample is empty");
    checks_->Expect(mismatches == 0,
                    Format("ppr_service: %llu of %zu replayed answers differ",
                           static_cast<unsigned long long>(mismatches), sample_.size()));
    return mismatches;
  }

  uint64_t bad_total() const { return bad_total_; }

 private:
  uint64_t key_;
  Checks* checks_;
  uint64_t answers_ = 0;
  uint64_t bad_total_ = 0;
  std::vector<std::pair<ServiceQuery, std::string>> sample_;
};

struct OpenLoopResult {
  std::vector<OpenLoopQuery> queries;
  std::vector<double> batch_s;
  std::vector<double> batch_sizes;
  uint64_t refused = 0;
};

OpenLoopResult OpenLoop(Service& service, const std::vector<ServiceQuery>& queries,
                        const std::vector<double>& schedule, AnswerLedger& ledger,
                        SpanLog* spans) {
  OpenLoopResult res;
  const double origin = NowSeconds() + 0.001;
  auto now = [origin] { return NowSeconds() - origin; };
  int64_t next_batch_req = 0;
  res.queries = RunOpenLoop(
      schedule, now,
      [&](size_t i) {
        ScopedSpan span(spans, "WalkService::Submit", "service", static_cast<int64_t>(i));
        const bool ok = service.Submit(queries[i]);
        if (!ok) res.refused += 1;
        return ok;
      },
      [&]() {
        const double t = NowSeconds();
        std::vector<ServiceResult> results;
        {
          ScopedSpan span(spans, "WalkService::ProcessBatch", "service", next_batch_req);
          results = service.ProcessBatch();
          span.set_req_last(next_batch_req + static_cast<int64_t>(results.size()) - 1);
        }
        res.batch_s.push_back(NowSeconds() - t);
        res.batch_sizes.push_back(static_cast<double>(results.size()));
        next_batch_req += static_cast<int64_t>(results.size());
        ledger.Check(results);
        return results.size();
      },
      [&](double due) {
        const double ahead = due - now();
        if (ahead > 300e-6) {
          std::this_thread::sleep_for(std::chrono::duration<double>(ahead - 200e-6));
        }
        while (now() < due) {
        }
      });
  return res;
}

struct ClosedLoopResult {
  uint64_t served = 0;
  double wall = 0.0;
  // Rates over consecutive windows of the loop while the queue is kept full.
  std::vector<double> window_qps;
  std::vector<double> window_walks_per_s;
};

constexpr double kWindowSeconds = 0.5;

// Keeps the queue at its limit and drains it batch by batch: for `seconds`
// (then drains), or for exactly `fixed_count` queries when that is non-zero.
ClosedLoopResult ClosedLoop(Service& service, const std::vector<ServiceQuery>& queries,
                            double seconds, size_t fixed_count, AnswerLedger& ledger,
                            SpanLog* spans, Checks& checks) {
  ClosedLoopResult res;
  size_t next = 0;
  const size_t limit = fixed_count > 0 ? std::min(fixed_count, queries.size()) : queries.size();
  const double begin = NowSeconds();
  double window_start = begin;
  uint64_t window_served = 0, window_walks = 0;
  for (;;) {
    const double t = NowSeconds();
    const bool topping = fixed_count > 0 || t - begin < seconds;
    if (topping && t - window_start >= kWindowSeconds) {
      res.window_qps.push_back(static_cast<double>(window_served) / (t - window_start));
      res.window_walks_per_s.push_back(static_cast<double>(window_walks) / (t - window_start));
      window_start = t;
      window_served = 0;
      window_walks = 0;
    }
    while (topping && next < limit && service.queue_depth() < kQueueDepth) {
      ScopedSpan span(spans, "WalkService::Submit", "service", static_cast<int64_t>(next));
      if (!service.Submit(queries[next])) break;
      next += 1;
    }
    if (service.queue_depth() == 0) break;
    std::vector<ServiceResult> results;
    {
      ScopedSpan span(spans, "WalkService::ProcessBatch", "service",
                      static_cast<int64_t>(res.served));
      results = service.ProcessBatch();
      span.set_req_last(static_cast<int64_t>(res.served + results.size()) - 1);
    }
    for (const ServiceResult& r : results) {
      window_walks += r.query.kind == QueryKind::kPpr ? r.query.count : 1;
    }
    window_served += results.size();
    res.served += results.size();
    ledger.Check(results);
  }
  res.wall = NowSeconds() - begin;
  checks.Expect(fixed_count > 0 || next < queries.size(),
                "ppr_service: closed loop ran out of pre-generated queries");
  return res;
}

ServiceLayer ReadServiceLayer(const Service& service, const OpenLoopResult& open,
                              double index_s) {
  std::vector<double> lat, wait, late;
  for (const OpenLoopQuery& q : open.queries) {
    if (q.refused) continue;
    lat.push_back(q.LatencySeconds() * 1e3);
    wait.push_back(q.QueueWaitSeconds() * 1e3);
    late.push_back(q.LatenessSeconds() * 1e3);
  }
  std::vector<double> batch_ms;
  for (double s : open.batch_s) batch_ms.push_back(s * 1e3);
  double used = 0.0;
  const ServiceCounters c = service.counters();
  const double served = std::max<double>(1.0, static_cast<double>(c.served));
  const double lookups =
      static_cast<double>(service.cache().hits() + service.cache().misses());
  ServiceLayer l;
  l.index_build_s = index_s;
  l.index_mib = static_cast<double>(service.index().PayloadBytes()) / (1024.0 * 1024.0);
  l.batch_ms_p50 = Summarize(batch_ms).p50;
  l.batch_ms_p99 = CappedPercentile(batch_ms, 0.99, &used);
  l.batch_size_mean = Summarize(open.batch_sizes).mean;
  l.queue_wait_ms_p50 = Summarize(wait).p50;
  l.queue_wait_ms_p99 = CappedPercentile(wait, 0.99, &used);
  l.p99_ms = CappedPercentile(lat, 0.99, &used);
  l.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(service.cache().hits()) / lookups : 0.0;
  l.segments_per_query = static_cast<double>(c.segments_stitched) / served;
  l.live_walks_per_query = static_cast<double>(c.live_walks) / served;
  l.rejected = static_cast<double>(c.rejected);
  l.gen_late_ms_max = Summarize(late).max;
  return l;
}

}  // namespace

Outcome RunPprService(const RunOptions& opts) {
  Outcome out;
  const uint64_t graph_seed = HashCombine64(opts.seed, 0x7070725f67ULL);
  const EdgeList<EmptyEdgeData> edges =
      GenerateTruncatedPowerLaw(kVertices, 2.0, 4, 100, graph_seed);
  const WalkServiceOptions sopts = ServiceOptions(HashCombine64(opts.seed, 0x73727663ULL));
  const double open_s = std::max(1.0, 0.4 * opts.seconds);
  const double closed_s = std::max(1.0, 0.6 * opts.seconds);
  const std::vector<double> schedule = PoissonSchedule(opts.seed, kOfferedRate, open_s);
  const std::vector<ServiceQuery> warmup = MakeQueries(opts.seed, 1, kWarmupQueries);
  const std::vector<ServiceQuery> open_queries = MakeQueries(opts.seed, 2, schedule.size());
  const std::vector<ServiceQuery> closed_queries =
      MakeQueries(opts.seed, 3, static_cast<size_t>(closed_s * 20000.0));
  std::printf("ppr_service: %u vertices, %zu directed edges, %llu users; open loop %.1f s at "
              "%.0f q/s (%zu queries), closed loop %.1f s at queue depth %zu\n",
              kVertices, edges.edges.size(), static_cast<unsigned long long>(kUsers), open_s,
              kOfferedRate, schedule.size(), closed_s, kQueueDepth);

  AnswerLedger ledger(opts.seed, &out.checks);
  ProcDiagnostics diag;
  int max_threads = 0;
  std::vector<double> setups, index_s, ctor_s, csr_s;
  auto record_setup = [&](const Setup& s) {
    setups.push_back(s.total());
    index_s.push_back(s.index_s);
    ctor_s.push_back(s.ctor_s);
    csr_s.push_back(s.csr_s);
  };

  // The first build serves; set-up is then timed again on builds made after
  // it is gone, so one service is alive at a time and peak_rss_mib covers
  // exactly one set-up plus the serving phases.
  Setup serving = BuildService(edges, sopts, nullptr);
  record_setup(serving);
  Service& service = *serving.service;
  ClosedLoop(service, warmup, 0.0, warmup.size(), ledger, nullptr, out.checks);

  diag.Begin();
  const OpenLoopResult open = OpenLoop(service, open_queries, schedule, ledger, nullptr);
  diag.End();
  max_threads = std::max(max_threads, ThreadCount());
  diag.Begin();
  const ClosedLoopResult closed =
      ClosedLoop(service, closed_queries, closed_s, 0, ledger, nullptr, out.checks);
  diag.End();
  out.attempted += warmup.size() + schedule.size() + closed.served;
  out.failed_ops += open.refused + ledger.bad_total();
  if (opts.trace) {
    Report& r = out.per_layer;
    AddGraphMetrics(r, service.graph(), Median(csr_s));
    // Engine runs happen inside ProcessBatch, out of the benchmark's reach;
    // the WalkService constructor is mostly the engine constructor.
    EngineLayer engine;
    engine.ctor_s = Median(ctor_s);
    AddEngineMetrics(r, engine);
    AddDeltaMetrics(r, DeltaLayer{});
    AddServiceMetrics(r, ReadServiceLayer(service, open, Median(index_s)));
  }
  const double peak_rss_mib = PeakRssMib();
  serving.service.reset();
  for (int rep = 1; rep < (opts.trace ? 1 : kSetupReps - 1); ++rep) {
    record_setup(BuildService(edges, sopts, nullptr));
  }
  {
    // Replay on a fresh service, outside the measured loops.
    Setup fresh = BuildService(edges, sopts, nullptr);
    record_setup(fresh);
    ledger.Replay(*fresh.service);
  }

  std::vector<double> lat;
  double late_max = 0.0;
  for (const OpenLoopQuery& q : open.queries) {
    if (!q.refused) lat.push_back(q.LatencySeconds() * 1e3);
    late_max = std::max(late_max, q.LatenessSeconds() * 1e3);
  }
  const TailSummary lat_sum = Summarize(lat);
  std::printf("ppr_service: open loop n=%zu p50 %.4f ms, p%g %.4f ms, max %.4f ms, "
              "generator late max %.4f ms, %llu refused\n",
              lat_sum.n, lat_sum.p50, lat_sum.tail_q * 100.0, lat_sum.tail, lat_sum.max,
              late_max, static_cast<unsigned long long>(open.refused));
  std::printf("ppr_service: closed loop %llu queries in %.4f s; %zu windows of %.1f s, q/s:",
              static_cast<unsigned long long>(closed.served), closed.wall,
              closed.window_qps.size(), kWindowSeconds);
  for (double q : closed.window_qps) std::printf(" %.0f", q);
  std::printf("\nppr_service: setup_s runs:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  PrintNoise(diag, max_threads);

  if (opts.trace) {
    Report& r = out.per_layer;
    // Traced twin: same inputs on a new service with the engine's recorder
    // attached and spans around every public call. Its closed loop serves
    // the same queries from the same cache state as the untraced one, so
    // the wall-time difference is the tracing overhead.
    obs::TraceRecorder recorder;
    SpanLog spans(&recorder);
    WalkServiceOptions traced_opts = sopts;
    traced_opts.engine.trace = &recorder;
    Setup traced = BuildService(edges, traced_opts, &spans);
    AnswerLedger traced_ledger(opts.seed, &out.checks);
    ClosedLoop(*traced.service, warmup, 0.0, warmup.size(), traced_ledger, &spans, out.checks);
    const OpenLoopResult traced_open =
        OpenLoop(*traced.service, open_queries, schedule, traced_ledger, &spans);
    const ClosedLoopResult traced_closed = ClosedLoop(*traced.service, closed_queries, 0.0,
                                                      closed.served, traced_ledger, &spans,
                                                      out.checks);
    out.attempted += warmup.size() + schedule.size() + traced_closed.served;
    out.failed_ops += traced_open.refused + traced_ledger.bad_total();
    const auto events = recorder.TakeEvents();

    UnitCosts units;
    units.rng_ns = MeasureRngNs(opts.seed);
    AddUnitMetrics(r, units);
    AddProcMetrics(r, diag, max_threads);
    AddTraceMetrics(r, &spans, events, traced_closed.wall - closed.wall);
    if (!opts.trace_out.empty()) {
      out.checks.Expect(WriteChromeTrace(opts.trace_out, spans.spans(), events),
                        "write chrome trace " + opts.trace_out);
    }
  }

  out.end_to_end.Add("walks_per_s", Median(closed.window_walks_per_s), "walks/s");
  out.end_to_end.Add("setup_s", Median(setups), "s");
  out.end_to_end.Add("peak_rss_mib", peak_rss_mib, "MiB");
  out.end_to_end.Add("p50_ms", lat_sum.p50, "ms");
  out.end_to_end.Add("sat_qps", Median(closed.window_qps), "queries/s");
  return out;
}

}  // namespace perfbench
