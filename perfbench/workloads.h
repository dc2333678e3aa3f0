// The three benchmark workloads and what they share. Each runs in its own
// process (see main.cc) and prints its metrics through a Report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"
#include "src/engine/walk_engine.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // chrome JSON path of a traced run
};

// What a workload hands back to main: its checks and both metric sets.
struct Outcome {
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed_ops = 0;  // refused or failed operations (checks add to this)
  Report end_to_end;
  Report per_layer;
};

Outcome RunNode2vec(const RunOptions& opts);
Outcome RunDeepwalkChurn(const RunOptions& opts);
Outcome RunPprService(const RunOptions& opts);

// Engine options shared by the two engine workloads: 4 logical nodes whose
// phases run one after another on the calling thread, the engine's default
// driver. Every other option stays at its default too. Parallel node phases
// (4 threads joined at every BSP barrier) were tried: on a 4-CPU VM with
// steal time, each barrier waits for the most-delayed CPU and node2vec
// throughput spread 2x between runs (see README.md).
inline knightking::WalkEngineOptions EngineWorkloadOptions(uint64_t seed) {
  knightking::WalkEngineOptions opts;
  opts.num_nodes = 4;
  opts.seed = seed;
  return opts;
}

// Unit costs: tight loops over public calls, each returning ns per call.
struct UnitCosts {
  double rng_ns = 0.0;
  double alias_draw_ns = 0.0;
  double lazy_alias_draw_ns = 0.0;
  double dirty_row_draw_ns = 0.0;
  double overlay_update_ns = 0.0;
  double neighbor_lookup_ns = 0.0;
  double mailbox_msg_ns = 0.0;
};

double MeasureRngNs(uint64_t seed);
double MeasureMailboxMsgNs(uint64_t seed);
double MeasureNeighborLookupNs(const knightking::Csr<knightking::EmptyEdgeData>& graph,
                               uint64_t seed);
// Alias draws over the graph's static weights, plus lazy-alias and engine-
// default dirty-row draws and overlay reweights on the `hot` rows.
void MeasureWeightedUnits(const knightking::Csr<knightking::WeightedEdgeData>& graph,
                          const std::vector<knightking::vertex_id_t>& hot, uint64_t seed,
                          UnitCosts* out);

void AddUnitMetrics(Report& report, const UnitCosts& u);
void AddProcMetrics(Report& report, const ProcDiagnostics& diag, int max_threads);

// Prints the noise diagnostics of the measured regions on one line.
void PrintNoise(const ProcDiagnostics& diag, int max_threads);

// End-to-end metrics of an engine workload from its repetitions' set-up and
// Run wall times (medians; one Run is one batch job).
void AddEngineEndToEnd(Report& report, const char* workload, double walkers,
                       const std::vector<double>& setup_s, const std::vector<double>& run_s,
                       double peak_rss_mib);

// Trace self time per layer and the tracing overhead (traced - untraced
// wall of the same work).
void AddTraceMetrics(Report& report, const SpanLog* spans,
                     const std::vector<knightking::obs::TraceRecorder::Event>& events,
                     double overhead_s);

// Graph-layer metrics of a CSR built in `build_s` seconds.
template <typename EdgeData>
void AddGraphMetrics(Report& report, const knightking::Csr<EdgeData>& g, double build_s) {
  const double bytes =
      static_cast<double>(g.num_vertices() + 1) * sizeof(knightking::edge_index_t) +
      static_cast<double>(g.num_edges()) * sizeof(knightking::AdjUnit<EdgeData>);
  report.Add("graph.csr_build_s", build_s, "s");
  report.Add("graph.vertices", static_cast<double>(g.num_vertices()), "count");
  report.Add("graph.edges", static_cast<double>(g.num_edges()), "count");
  report.Add("graph.csr_mib", bytes / (1024.0 * 1024.0), "MiB");
}

// Every workload prints every per-layer metric: a layer that does not run
// reports its default-constructed (all zero) values.

struct EngineLayer {
  double ctor_s = 0.0;
  double run_s = 0.0;
  knightking::EnginePhaseTimes phases;
  knightking::SamplingStats stats;
  uint64_t cross_node_messages = 0;
  uint64_t cross_node_bytes = 0;
  uint64_t partition_batches = 0;
  uint64_t partition_walkers = 0;
  uint64_t interleave_groups = 0;
};

// The engine layer of the last Run of `engine`, which took `run_s` wall
// seconds after a constructor that took `ctor_s`.
template <typename Engine>
EngineLayer ReadEngineLayer(const Engine& engine, double ctor_s, double run_s) {
  EngineLayer e;
  e.ctor_s = ctor_s;
  e.run_s = run_s;
  e.phases = engine.phase_times();
  e.stats = engine.last_stats();
  e.cross_node_messages = engine.cross_node_messages();
  e.cross_node_bytes = engine.cross_node_bytes();
  for (knightking::node_rank_t n = 0; n < engine.options().num_nodes; ++n) {
    const auto& acc = engine.node_observability(n);
    e.partition_batches += acc.partition_batches;
    e.partition_walkers += acc.partition_walkers;
    e.interleave_groups += acc.interleave_groups;
  }
  return e;
}
void AddEngineMetrics(Report& report, const EngineLayer& e);

struct DeltaLayer {
  double log_append_s = 0.0;
  knightking::MutationCounters counters;
  double merge_s = 0.0;
};
void AddDeltaMetrics(Report& report, const DeltaLayer& d);

struct ServiceLayer {
  double index_build_s = 0.0;
  double index_mib = 0.0;
  double batch_ms_p50 = 0.0;
  double batch_ms_p99 = 0.0;
  double batch_size_mean = 0.0;
  double queue_wait_ms_p50 = 0.0;
  double queue_wait_ms_p99 = 0.0;  // due time -> start of the serving batch
  double p99_ms = 0.0;
  double cache_hit_ratio = 0.0;
  double segments_per_query = 0.0;
  double live_walks_per_query = 0.0;
  double rejected = 0.0;
  double gen_late_ms_max = 0.0;
};
void AddServiceMetrics(Report& report, const ServiceLayer& s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
