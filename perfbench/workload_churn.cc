// deepwalk_churn: a weighted first-order DeepWalk (length 80) while a seeded
// mutation log edits the graph (~60% reweight, 25% insert, 15% delete) in
// batches spread across the walk's supersteps. Sources are Zipf-skewed, so
// hot rows cross the default merge threshold and merges run mid-walk. The
// delta overlay, dirty-row samplers and merges carry the run; the query
// protocol is bypassed (first-order walk).
#include <algorithm>
#include <memory>
#include <unordered_map>

#include "src/apps/deepwalk.h"
#include "src/graph/annotate.h"
#include "src/graph/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace knightking;

constexpr vertex_id_t kVertices = 200000;
constexpr walker_id_t kWalkers = 40000;
constexpr step_t kWalkLength = 80;
constexpr int kMinReps = 3;
constexpr size_t kHotRows = 64;

struct Rep {
  double csr_s = 0.0;
  double ctor_s = 0.0;
  double append_s = 0.0;
  double run_s = 0.0;
  double setup_s() const { return csr_s + ctor_s + append_s; }
};

using Engine = WalkEngine<WeightedEdgeData>;

template <typename After>
Rep RunOnce(const EdgeList<WeightedEdgeData>& edges, const std::vector<ChurnBatch>& batches,
            uint64_t log_seed, WalkEngineOptions eopts, const WalkerSpec<>& walkers,
            SpanLog* spans, ProcDiagnostics* diag, After&& after) {
  ReleaseFreedMemory();
  Rep rep;
  // Copies handed to Append are made before its clock starts.
  std::vector<std::vector<EdgeMutation>> copies;
  copies.reserve(batches.size());
  for (const ChurnBatch& b : batches) copies.push_back(b.mutations);
  MutationLog log(log_seed);
  eopts.mutation_log = &log;

  double t = NowSeconds();
  std::unique_ptr<Engine> engine;
  {
    Csr<WeightedEdgeData> csr;
    {
      ScopedSpan span(spans, "Csr::FromEdgeList", "graph");
      csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
    }
    rep.csr_s = NowSeconds() - t;
    t = NowSeconds();
    ScopedSpan span(spans, "WalkEngine::WalkEngine", "engine");
    engine = std::make_unique<Engine>(std::move(csr), eopts);
  }
  rep.ctor_s = NowSeconds() - t;
  t = NowSeconds();
  {
    ScopedSpan span(spans, "MutationLog::Append", "delta");
    for (size_t b = 0; b < batches.size(); ++b) {
      log.Append(batches[b].epoch, std::move(copies[b]));
    }
  }
  rep.append_s = NowSeconds() - t;
  const TransitionSpec<WeightedEdgeData> transition = DeepWalkTransition<WeightedEdgeData>();
  if (diag != nullptr) diag->Begin();
  t = NowSeconds();
  {
    ScopedSpan span(spans, "WalkEngine::Run", "engine");
    engine->Run(transition, walkers);
  }
  rep.run_s = NowSeconds() - t;
  if (diag != nullptr) diag->End();
  after(*engine, log, rep);
  return rep;
}

}  // namespace

Outcome RunDeepwalkChurn(const RunOptions& opts) {
  Outcome out;
  const uint64_t graph_seed = HashCombine64(opts.seed, 0x6477675f67ULL);
  const uint64_t weight_seed = HashCombine64(opts.seed, 0x6477675f77ULL);
  const uint64_t start_key = HashCombine64(opts.seed, 0x6477675f73ULL);
  const uint64_t log_seed = HashCombine64(opts.seed, 0x6477675f6cULL);
  const EdgeList<WeightedEdgeData> edges = AssignUniformWeights(
      GenerateTruncatedPowerLaw(kVertices, 2.0, 4, 100, graph_seed), 0.5f, 4.0f, weight_seed);
  std::vector<ChurnBatch> batches;
  {
    const Csr<WeightedEdgeData> base = Csr<WeightedEdgeData>::FromEdgeList(edges);
    batches = GenerateZipfChurn(base, log_seed, ChurnSpec{});
  }
  uint64_t log_size = 0;
  for (const ChurnBatch& b : batches) log_size += b.mutations.size();
  WalkerSpec<> walkers = DeepWalkWalkers(kWalkers, {.walk_length = kWalkLength});
  walkers.start_vertex = [start_key](walker_id_t id, Rng&) {
    return static_cast<vertex_id_t>(Mix64(start_key ^ id) % kVertices);
  };
  const WalkEngineOptions eopts = EngineWorkloadOptions(opts.seed);
  std::printf("deepwalk_churn: %u vertices, %zu directed edges, %u walkers x %u steps, "
              "%llu mutations in %zu batches\n",
              kVertices, edges.edges.size(), static_cast<unsigned>(kWalkers),
              static_cast<unsigned>(kWalkLength),
              static_cast<unsigned long long>(log_size), batches.size());

  const uint64_t max_steps = static_cast<uint64_t>(kWalkers) * kWalkLength;
  auto check = [&](const Engine& engine, const MutationLog& log) {
    const MutationCounters mc = engine.mutation_counters();
    out.checks.Expect(mc.applied() + mc.rejected == log.num_mutations(),
                      Format("churn: applied %llu + rejected %llu != log size %llu",
                             static_cast<unsigned long long>(mc.applied()),
                             static_cast<unsigned long long>(mc.rejected),
                             static_cast<unsigned long long>(log.num_mutations())));
    out.checks.Expect(engine.mutation_batches_applied() == log.num_batches(),
                      Format("churn: %zu of %zu batches applied",
                             engine.mutation_batches_applied(), log.num_batches()));
    out.checks.Expect(mc.merges > 0, "churn: no overlay merge ran");
    const uint64_t steps = engine.last_stats().steps;
    out.checks.Expect(steps > 0 && steps <= max_steps,
                      Format("churn: %llu steps outside (0, walkers x 80]",
                             static_cast<unsigned long long>(steps)));
  };

  ProcDiagnostics diag;
  std::vector<Rep> reps;
  std::vector<double> merges_s;
  int max_threads = 0;
  // Peak RSS over one set-up and run; later repetitions would add only the
  // allocator's fragmentation from the ones before.
  double peak_rss_mib = 0.0;
  if (!opts.trace) {
    const double begin = NowSeconds();
    while (static_cast<int>(reps.size()) < kMinReps || NowSeconds() - begin < opts.seconds) {
      reps.push_back(RunOnce(edges, batches, log_seed, eopts, walkers, nullptr, &diag,
                             [&](const Engine& engine, const MutationLog& log, const Rep&) {
                               check(engine, log);
                               merges_s.push_back(static_cast<double>(engine.merge_micros()) *
                                                  1e-6);
                               max_threads = std::max(max_threads, ThreadCount());
                             }));
      out.attempted += kWalkers;
      if (reps.size() == 1) peak_rss_mib = PeakRssMib();
    }
  } else {
    const double t0 = NowSeconds();
    reps.push_back(RunOnce(edges, batches, log_seed, eopts, walkers, nullptr, &diag,
                           [&](const Engine& engine, const MutationLog& log, const Rep& rep) {
                             check(engine, log);
                             merges_s.push_back(static_cast<double>(engine.merge_micros()) * 1e-6);
                             max_threads = std::max(max_threads, ThreadCount());
                             AddGraphMetrics(out.per_layer, engine.graph(), rep.csr_s);
                             AddEngineMetrics(out.per_layer,
                                              ReadEngineLayer(engine, rep.ctor_s, rep.run_s));
                             AddDeltaMetrics(out.per_layer,
                                             {rep.append_s, engine.mutation_counters(),
                                              static_cast<double>(engine.merge_micros()) * 1e-6});
                           }));
    const double untraced_wall = NowSeconds() - t0;
    peak_rss_mib = PeakRssMib();
    out.attempted += kWalkers;

    obs::TraceRecorder recorder;
    SpanLog spans(&recorder);
    WalkEngineOptions traced_opts = eopts;
    traced_opts.trace = &recorder;
    const double t1 = NowSeconds();
    RunOnce(edges, batches, log_seed, traced_opts, walkers, &spans, nullptr,
            [&](const Engine& engine, const MutationLog& log, const Rep&) {
              check(engine, log);
            });
    const double traced_wall = NowSeconds() - t1;
    out.attempted += kWalkers;
    const auto events = recorder.TakeEvents();
    AddServiceMetrics(out.per_layer, ServiceLayer{});

    // Hot rows: the most-mutated sources of the log.
    std::unordered_map<vertex_id_t, uint64_t> touches;
    for (const ChurnBatch& b : batches) {
      for (const EdgeMutation& m : b.mutations) touches[m.src] += 1;
    }
    std::vector<std::pair<uint64_t, vertex_id_t>> ranked;
    for (const auto& [v, c] : touches) ranked.push_back({c, v});
    std::sort(ranked.rbegin(), ranked.rend());
    std::vector<vertex_id_t> hot;
    for (size_t i = 0; i < ranked.size() && i < kHotRows; ++i) hot.push_back(ranked[i].second);

    UnitCosts units;
    units.rng_ns = MeasureRngNs(opts.seed);
    units.mailbox_msg_ns = MeasureMailboxMsgNs(opts.seed);
    {
      const Csr<WeightedEdgeData> csr = Csr<WeightedEdgeData>::FromEdgeList(edges);
      MeasureWeightedUnits(csr, hot, opts.seed, &units);
    }
    AddUnitMetrics(out.per_layer, units);
    AddProcMetrics(out.per_layer, diag, max_threads);
    AddTraceMetrics(out.per_layer, &spans, events, traced_wall - untraced_wall);
    if (!opts.trace_out.empty()) {
      out.checks.Expect(WriteChromeTrace(opts.trace_out, spans.spans(), events),
                        "write chrome trace " + opts.trace_out);
    }
  }

  std::vector<double> setup, run;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s());
    run.push_back(r.run_s);
  }
  std::printf("deepwalk_churn: merge_s median %.4f\n", Median(merges_s));
  PrintNoise(diag, max_threads);
  AddEngineEndToEnd(out.end_to_end, "deepwalk_churn", kWalkers, setup, run, peak_rss_mib);
  return out;
}

}  // namespace perfbench
