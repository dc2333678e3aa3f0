// node2vec: the paper's second-order walk (p = 0.5, q = 2, length 80) on an
// unweighted truncated power-law graph ten times larger than L2. The query
// protocol (respond/resolve rounds and their mailboxes), rejection sampling
// and the locality pass carry the run; no mutation or service code runs.
#include <algorithm>
#include <memory>

#include "src/apps/node2vec.h"
#include "src/graph/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace knightking;

// ~22 MiB of hot data (CSR, NeighborIndex, walkers and mailboxes): ten times
// L2 and well inside the LLC. Larger graphs spread far more between runs on a
// shared host (see README.md).
constexpr vertex_id_t kVertices = 50000;
constexpr walker_id_t kWalkers = 50000;
constexpr step_t kWalkLength = 80;
constexpr walker_id_t kPathSampleWalkers = 2000;
const Node2VecParams kParams{.p = 0.5, .q = 2.0, .walk_length = kWalkLength};
constexpr int kMinReps = 3;

struct Rep {
  double csr_s = 0.0;
  double ctor_s = 0.0;
  double transition_s = 0.0;
  double run_s = 0.0;
  double setup_s() const { return csr_s + ctor_s + transition_s; }
};

WalkerSpec<> Walkers(walker_id_t count, uint64_t key) {
  WalkerSpec<> spec = Node2VecWalkers(count, kParams);
  spec.start_vertex = [key](walker_id_t id, Rng&) {
    return static_cast<vertex_id_t>(Mix64(key ^ id) % kVertices);
  };
  return spec;
}

// Builds the graph and engine, then runs the walk once. `after` sees the
// engine before it is destroyed.
template <typename After>
Rep RunOnce(const EdgeList<EmptyEdgeData>& edges, const WalkEngineOptions& eopts,
            const WalkerSpec<>& walkers, SpanLog* spans, ProcDiagnostics* diag,
            After&& after) {
  ReleaseFreedMemory();
  Rep rep;
  double t = NowSeconds();
  std::unique_ptr<WalkEngine<EmptyEdgeData>> engine;
  {
    Csr<EmptyEdgeData> csr;
    {
      ScopedSpan span(spans, "Csr::FromEdgeList", "graph");
      csr = Csr<EmptyEdgeData>::FromEdgeList(edges);
    }
    rep.csr_s = NowSeconds() - t;
    t = NowSeconds();
    ScopedSpan span(spans, "WalkEngine::WalkEngine", "engine");
    engine = std::make_unique<WalkEngine<EmptyEdgeData>>(std::move(csr), eopts);
  }
  rep.ctor_s = NowSeconds() - t;
  t = NowSeconds();
  TransitionSpec<EmptyEdgeData> transition;
  {
    ScopedSpan span(spans, "Node2VecTransition", "engine");
    transition = Node2VecTransition(engine->graph(), kParams);
  }
  rep.transition_s = NowSeconds() - t;
  if (diag != nullptr) diag->Begin();
  t = NowSeconds();
  {
    ScopedSpan span(spans, "WalkEngine::Run", "engine");
    engine->Run(transition, walkers);
  }
  rep.run_s = NowSeconds() - t;
  if (diag != nullptr) diag->End();
  after(*engine, rep);
  return rep;
}

}  // namespace

Outcome RunNode2vec(const RunOptions& opts) {
  Outcome out;
  const uint64_t graph_seed = HashCombine64(opts.seed, 0x6e32765f67ULL);
  const uint64_t start_key = HashCombine64(opts.seed, 0x6e32765f73ULL);
  const EdgeList<EmptyEdgeData> edges =
      GenerateTruncatedPowerLaw(kVertices, 2.0, 4, 100, graph_seed);
  const walker_id_t num_walkers = kWalkers;
  const WalkerSpec<> walkers = Walkers(num_walkers, start_key);
  const WalkEngineOptions eopts = EngineWorkloadOptions(opts.seed);
  std::printf("node2vec: %u vertices, %zu directed edges, %u walkers x %u steps\n",
              kVertices, edges.edges.size(), static_cast<unsigned>(num_walkers),
              static_cast<unsigned>(kWalkLength));

  const uint64_t want_steps = static_cast<uint64_t>(num_walkers) * kWalkLength;
  auto check_steps = [&](const WalkEngine<EmptyEdgeData>& engine) {
    out.checks.Expect(engine.last_stats().steps == want_steps,
                      Format("node2vec steps %llu != walkers x 80 = %llu",
                             static_cast<unsigned long long>(engine.last_stats().steps),
                             static_cast<unsigned long long>(want_steps)));
  };

  ProcDiagnostics diag;
  std::vector<Rep> reps;
  int max_threads = 0;
  // Peak RSS over one set-up and run; later repetitions would add only the
  // allocator's fragmentation from the ones before.
  double peak_rss_mib = 0.0;
  if (!opts.trace) {
    const double begin = NowSeconds();
    while (static_cast<int>(reps.size()) < kMinReps || NowSeconds() - begin < opts.seconds) {
      reps.push_back(RunOnce(edges, eopts, walkers, nullptr, &diag,
                             [&](const WalkEngine<EmptyEdgeData>& engine, const Rep&) {
                               check_steps(engine);
                               max_threads = std::max(max_threads, ThreadCount());
                             }));
      out.attempted += num_walkers;
      if (reps.size() == 1) peak_rss_mib = PeakRssMib();
    }
  } else {
    // Untraced, then traced, over the same inputs: the difference is the
    // tracing overhead; layer counters come from the untraced run.
    const double t0 = NowSeconds();
    Rep untraced = RunOnce(edges, eopts, walkers, nullptr, &diag,
                           [&](const WalkEngine<EmptyEdgeData>& engine, const Rep& rep) {
                             check_steps(engine);
                             max_threads = std::max(max_threads, ThreadCount());
                             AddGraphMetrics(out.per_layer, engine.graph(), rep.csr_s);
                             AddEngineMetrics(out.per_layer,
                                              ReadEngineLayer(engine, rep.ctor_s, rep.run_s));
                             // No mutation log: the prediction is all zeros,
                             // read from the engine rather than assumed.
                             AddDeltaMetrics(out.per_layer,
                                             {0.0, engine.mutation_counters(),
                                              static_cast<double>(engine.merge_micros()) * 1e-6});
                           });
    const double untraced_wall = NowSeconds() - t0;
    peak_rss_mib = PeakRssMib();
    out.attempted += num_walkers;
    reps.push_back(untraced);

    obs::TraceRecorder recorder;
    SpanLog spans(&recorder);
    WalkEngineOptions traced_opts = eopts;
    traced_opts.trace = &recorder;
    const double t1 = NowSeconds();
    RunOnce(edges, traced_opts, walkers, &spans, nullptr,
            [&](const WalkEngine<EmptyEdgeData>& engine, const Rep&) { check_steps(engine); });
    const double traced_wall = NowSeconds() - t1;
    out.attempted += num_walkers;
    const auto events = recorder.TakeEvents();
    AddServiceMetrics(out.per_layer, ServiceLayer{});

    UnitCosts units;
    units.rng_ns = MeasureRngNs(opts.seed);
    units.mailbox_msg_ns = MeasureMailboxMsgNs(opts.seed);
    {
      const Csr<EmptyEdgeData> csr = Csr<EmptyEdgeData>::FromEdgeList(edges);
      units.neighbor_lookup_ns = MeasureNeighborLookupNs(csr, opts.seed);
    }
    AddUnitMetrics(out.per_layer, units);
    AddProcMetrics(out.per_layer, diag, max_threads);
    AddTraceMetrics(out.per_layer, &spans, events, traced_wall - untraced_wall);
    if (!opts.trace_out.empty()) {
      out.checks.Expect(WriteChromeTrace(opts.trace_out, spans.spans(), events),
                        "write chrome trace " + opts.trace_out);
    }
  }

  // Outside the timed runs: a seeded walker sample with paths collected;
  // every hop must be an edge of the graph and every walk 80 steps long.
  {
    WalkEngineOptions popts = eopts;
    popts.collect_paths = true;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), popts);
    const auto transition = Node2VecTransition(engine.graph(), kParams);
    engine.Run(transition, Walkers(kPathSampleWalkers, HashCombine64(start_key, 1)));
    const auto paths = engine.TakePaths();
    uint64_t bad_hops = 0, bad_lengths = 0;
    for (const auto& path : paths) {
      if (path.size() != kWalkLength + 1) bad_lengths += 1;
      for (size_t i = 1; i < path.size(); ++i) {
        if (!engine.graph().HasNeighbor(path[i - 1], path[i])) bad_hops += 1;
      }
    }
    out.checks.Expect(paths.size() == kPathSampleWalkers,
                      Format("node2vec path sample has %zu paths", paths.size()));
    out.checks.Expect(bad_lengths == 0, Format("node2vec: %llu sampled walks are not 80 steps",
                                               static_cast<unsigned long long>(bad_lengths)));
    out.checks.Expect(bad_hops == 0, Format("node2vec: %llu sampled hops are not edges",
                                            static_cast<unsigned long long>(bad_hops)));
  }

  std::vector<double> setup, run;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s());
    run.push_back(r.run_s);
  }
  PrintNoise(diag, max_threads);
  AddEngineEndToEnd(out.end_to_end, "node2vec", num_walkers, setup, run, peak_rss_mib);
  return out;
}

}  // namespace perfbench
