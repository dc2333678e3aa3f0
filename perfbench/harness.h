// Helpers shared by the benchmark workloads: clocks and percentiles, the
// seeded input generators (Poisson arrivals, Zipf ranks, the churn mutation
// log), the single-thread open-loop runner, process/host noise diagnostics,
// benchmark-side trace spans, and the result report.
//
// Everything here sits outside the program under test: the workloads time
// calls into the engine's public API and read the counters it exports.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/edge.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace perfbench {

using knightking::CounterRng;

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Median(std::vector<double> values);

// Nearest-rank percentile of an ascending-sorted sample (q in [0, 1]).
double PercentileSorted(const std::vector<double>& sorted, double q);

// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least
// `min_beyond` samples of `n` strictly above it; 0 when even p50 does not.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

// Median plus the tail percentile a sample of this size supports.
struct TailSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // 0 = no tail percentile is supported
  double tail = 0.0;
  double max = 0.0;
  double mean = 0.0;
};
TailSummary Summarize(std::vector<double> values);

// The q-th percentile when the sample leaves >= 10 values beyond it, else the
// highest percentile that does (the median for tiny samples). *used_q gets
// the percentile actually reported.
double CappedPercentile(std::vector<double> values, double q, double* used_q);

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

// Arrival times (seconds from 0) of a Poisson process of `rate` per second
// over [0, duration), drawn from a counter RNG keyed on `seed`.
std::vector<double> PoissonSchedule(uint64_t seed, double rate, double duration);

// Zipf ranks over a fixed population: P(rank r) ~ 1 / (r + 1)^theta.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t population, double theta);
  uint64_t Sample(CounterRng& rng) const;

 private:
  std::vector<double> cdf_;
};

// One epoch-tagged batch of the churn log, before MutationLog::Append.
struct ChurnBatch {
  uint64_t epoch = 0;
  std::vector<knightking::EdgeMutation> mutations;
};

// The deepwalk_churn log: 400k mutations in 20 batches at supersteps
// 2, 6, ..., 78. Every batch sends a hot row past the default merge
// threshold, so each batch boundary merges.
struct ChurnSpec {
  size_t batches = 20;
  size_t per_batch = 20000;
  double theta = 0.9;         // Zipf skew of mutation sources over vertices
  uint64_t first_epoch = 2;   // superstep of the first batch
  uint64_t epoch_stride = 4;  // supersteps between batches
  // Op mix in percent: reweight, insert; the rest are deletes.
  uint32_t reweight_pct = 60;
  uint32_t insert_pct = 25;
};

// Generates the churn log from `seed` alone (plus the graph it edits):
// sources are Zipf-ranked vertices under a seeded rank->vertex map, so the
// same hot rows absorb mutations batch after batch.
std::vector<ChurnBatch> GenerateZipfChurn(
    const knightking::Csr<knightking::WeightedEdgeData>& graph, uint64_t seed,
    const ChurnSpec& spec);

// ---------------------------------------------------------------------------
// Open-loop runner.
// ---------------------------------------------------------------------------

// Timestamps of one open-loop query, all on the runner's clock.
struct OpenLoopQuery {
  double due = 0.0;          // scheduled send time
  double submitted = 0.0;    // when the generator actually sent it
  double batch_start = 0.0;  // start of the serving call that answered it
  double answered = 0.0;     // when that serving call returned
  bool refused = false;

  double LatencySeconds() const { return answered - due; }
  double QueueWaitSeconds() const { return batch_start - due; }
  double LatenessSeconds() const { return submitted - due; }
};

// Drives a single-thread open loop: sends every query whose due time has
// passed, serves one batch while any is queued, and otherwise waits for the
// next due time. Latency runs from the due time, so a stall of the server or
// the generator is charged to every query that came due during it.
//   now()            -> current time, seconds (same base as `due`)
//   submit(i)        -> false when the server refuses query i
//   serve()          -> number of queued queries the batch answered, in FIFO
//                       order (0 is an error: the loop stops)
//   wait_until(t)    -> block until about time t
template <typename Now, typename Submit, typename Serve, typename WaitUntil>
std::vector<OpenLoopQuery> RunOpenLoop(const std::vector<double>& due, Now&& now,
                                       Submit&& submit, Serve&& serve,
                                       WaitUntil&& wait_until) {
  std::vector<OpenLoopQuery> out(due.size());
  std::deque<size_t> queued;
  size_t next = 0;
  size_t done = 0;
  while (done < due.size()) {
    const double t = now();
    while (next < due.size() && due[next] <= t) {
      out[next].due = due[next];
      out[next].submitted = t;
      if (submit(next)) {
        queued.push_back(next);
      } else {
        out[next].refused = true;
        out[next].batch_start = t;
        out[next].answered = t;
        done += 1;
      }
      next += 1;
    }
    if (!queued.empty()) {
      const double start = now();
      const size_t served = serve();
      const double end = now();
      if (served == 0 || served > queued.size()) {
        break;
      }
      for (size_t k = 0; k < served; ++k) {
        OpenLoopQuery& q = out[queued.front()];
        queued.pop_front();
        q.batch_start = start;
        q.answered = end;
      }
      done += served;
    } else if (next < due.size()) {
      wait_until(due[next]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process and host diagnostics.
// ---------------------------------------------------------------------------

struct ProcSnapshot {
  double wall = 0.0;
  double cpu = 0.0;  // user + system seconds of this process
  int64_t vol_ctx = 0;
  int64_t invol_ctx = 0;
  int64_t minor_faults = 0;
  uint64_t host_steal = 0;  // /proc/stat jiffies
  uint64_t host_total = 0;

  static ProcSnapshot Take();
};

// ns per step of a fixed dependent chain of integer operations: how fast
// this CPU runs right now. Frequency and cache contention from neighbours
// slow it without showing up as steal time.
double HostProbeNs();

// Sums process/host counters over the measured regions only, and probes the
// host's speed right after each region.
class ProcDiagnostics {
 public:
  void Begin() { open_ = ProcSnapshot::Take(); }
  void End();

  double cpu_util() const { return wall_ > 0.0 ? cpu_ / wall_ : 0.0; }  // cores busy
  int64_t vol_ctx() const { return vol_ctx_; }
  int64_t invol_ctx() const { return invol_ctx_; }
  int64_t minor_faults() const { return minor_faults_; }
  double host_probe_ns() const { return Median(probe_ns_); }
  double steal_frac() const {
    return host_total_ == 0 ? 0.0
                            : static_cast<double>(host_steal_) /
                                  static_cast<double>(host_total_);
  }

 private:
  ProcSnapshot open_;
  double wall_ = 0.0;
  double cpu_ = 0.0;
  int64_t vol_ctx_ = 0;
  int64_t invol_ctx_ = 0;
  int64_t minor_faults_ = 0;
  uint64_t host_steal_ = 0;
  uint64_t host_total_ = 0;
  std::vector<double> probe_ns_;
};

double PeakRssMib();
// Returns freed heap pages to the OS, so every repetition starts from the
// same footprint instead of from the previous one's fragmentation.
void ReleaseFreedMemory();
int ThreadCount();  // threads of this process right now

// ---------------------------------------------------------------------------
// Benchmark-side trace spans.
// ---------------------------------------------------------------------------

// Spans the benchmark records around its calls into each layer. They share
// the clock of the engine's TraceRecorder, so both land on one timeline.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    int64_t id = 0;
    int64_t parent = -1;  // enclosing benchmark span, -1 = none
    int64_t req = -1;     // service query id, -1 = none
    int64_t req_last = -1;  // last query id of a serving batch
    double ts = 0.0;
    double dur = 0.0;
  };

  explicit SpanLog(knightking::obs::TraceRecorder* clock) : clock_(clock) {}

  int64_t Begin(const char* name, const char* layer, int64_t req = -1);
  void End(int64_t id, int64_t req_last = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  knightking::obs::TraceRecorder* clock_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer, int64_t req = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, layer, req) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_, req_last_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_req_last(int64_t r) { req_last_ = r; }

 private:
  SpanLog* log_;
  int64_t id_;
  int64_t req_last_ = -1;
};

// One interval on the driver thread's timeline, tagged with its layer.
struct TimelineSpan {
  std::string layer;
  double ts = 0.0;
  double dur = 0.0;
};

// Self time per layer: each span's duration minus the part covered by the
// spans nested directly inside it. Spans must come from one thread, so they
// nest properly.
std::vector<std::pair<std::string, double>> LayerSelfTimes(std::vector<TimelineSpan> spans);

// The benchmark spans plus the engine's driver-lane events (layer "engine").
std::vector<TimelineSpan> DriverTimeline(
    const std::vector<SpanLog::Span>& spans,
    const std::vector<knightking::obs::TraceRecorder::Event>& engine_events);

// Writes benchmark spans and engine events as one chrome://tracing file.
// Engine events past the first kMaxTraceEngineEvents are left out of the
// file (a service run records millions); the metrics use all of them.
inline constexpr size_t kMaxTraceEngineEvents = 200000;
bool WriteChromeTrace(const std::string& path, const std::vector<SpanLog::Span>& spans,
                      const std::vector<knightking::obs::TraceRecorder::Event>& engine_events);

// ---------------------------------------------------------------------------
// Checks and the result report.
// ---------------------------------------------------------------------------

class Checks {
 public:
  // Records one check; prints the message to stderr when it fails.
  bool Expect(bool ok, const std::string& what);
  uint64_t failed() const { return failed_; }
  uint64_t run() const { return run_; }

 private:
  uint64_t run_ = 0;
  uint64_t failed_ = 0;
};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Prints "name value unit" lines, then the one-line JSON result.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
