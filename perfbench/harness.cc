#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

using knightking::EdgeMutation;
using knightking::MutationOp;
using knightking::real_t;
using knightking::vertex_id_t;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  static const double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  double best = 0.0;
  for (double q : kLadder) {
    // Samples strictly above the nearest-rank q-th percentile.
    const auto at = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n >= at && n - at >= min_beyond) best = q;
  }
  return best;
}

TailSummary Summarize(std::vector<double> values) {
  TailSummary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = PercentileSorted(values, 0.5);
  s.tail_q = HighestSupportedPercentile(values.size());
  s.tail = s.tail_q > 0.0 ? PercentileSorted(values, s.tail_q) : values.back();
  s.max = values.back();
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  return s;
}

double CappedPercentile(std::vector<double> values, double q, double* used_q) {
  std::sort(values.begin(), values.end());
  const double supported = std::max(0.5, HighestSupportedPercentile(values.size()));
  *used_q = std::min(q, supported);
  return PercentileSorted(values, *used_q);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate, double duration) {
  CounterRng rng(knightking::HashCombine64(seed, 0x706f6973736f6eULL));  // "poisson"
  std::vector<double> due;
  due.reserve(static_cast<size_t>(rate * duration * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

ZipfSampler::ZipfSampler(uint64_t population, double theta) : cdf_(population) {
  double total = 0.0;
  for (uint64_t r = 0; r < population; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint64_t ZipfSampler::Sample(CounterRng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint64_t>(it - cdf_.begin());
}

std::vector<ChurnBatch> GenerateZipfChurn(
    const knightking::Csr<knightking::WeightedEdgeData>& graph, uint64_t seed,
    const ChurnSpec& spec) {
  const vertex_id_t n = graph.num_vertices();
  ZipfSampler zipf(n, spec.theta);
  CounterRng rng(knightking::HashCombine64(seed, 0x636875726eULL));  // "churn"
  const uint64_t rank_key = rng.Next();
  auto vertex_of_rank = [&](uint64_t r) {
    return static_cast<vertex_id_t>(knightking::Mix64(rank_key ^ r) % n);
  };
  auto weight = [&rng] { return static_cast<real_t>(0.25 + rng.NextDouble() * 4.0); };
  std::vector<ChurnBatch> out(spec.batches);
  for (size_t b = 0; b < spec.batches; ++b) {
    ChurnBatch& batch = out[b];
    batch.epoch = spec.first_epoch + b * spec.epoch_stride;
    batch.mutations.reserve(spec.per_batch);
    while (batch.mutations.size() < spec.per_batch) {
      const vertex_id_t src = vertex_of_rank(zipf.Sample(rng));
      const uint64_t kind = rng.Next() % 100;
      const vertex_id_t degree = graph.OutDegree(src);
      if (kind >= spec.reweight_pct && kind < spec.reweight_pct + spec.insert_pct) {
        const auto dst = static_cast<vertex_id_t>(rng.Next() % n);
        batch.mutations.push_back({src, dst, weight(), MutationOp::kInsert});
      } else if (degree > 0) {
        const vertex_id_t dst = graph.Neighbors(src)[rng.Next() % degree].neighbor;
        if (kind < spec.reweight_pct) {
          batch.mutations.push_back({src, dst, weight(), MutationOp::kReweight});
        } else {
          batch.mutations.push_back({src, dst, 0.0f, MutationOp::kDelete});
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

namespace {

void ReadHostCpu(uint64_t* steal, uint64_t* total) {
  *steal = 0;
  *total = 0;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already counted in user/nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return;
    *total += v;
    if (field == 7) *steal = v;
  }
}

}  // namespace

ProcSnapshot ProcSnapshot::Take() {
  ProcSnapshot s;
  s.wall = NowSeconds();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  s.cpu = secs(ru.ru_utime) + secs(ru.ru_stime);
  s.vol_ctx = ru.ru_nvcsw;
  s.invol_ctx = ru.ru_nivcsw;
  s.minor_faults = ru.ru_minflt;
  ReadHostCpu(&s.host_steal, &s.host_total);
  return s;
}

double HostProbeNs() {
  constexpr uint64_t kSteps = 5000000;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double t = NowSeconds();
  for (uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ns = (NowSeconds() - t) * 1e9 / static_cast<double>(kSteps);
  asm volatile("" : : "r"(x));
  return ns;
}

void ProcDiagnostics::End() {
  const ProcSnapshot now = ProcSnapshot::Take();
  wall_ += now.wall - open_.wall;
  cpu_ += now.cpu - open_.cpu;
  vol_ctx_ += now.vol_ctx - open_.vol_ctx;
  invol_ctx_ += now.invol_ctx - open_.invol_ctx;
  minor_faults_ += now.minor_faults - open_.minor_faults;
  host_steal_ += now.host_steal - open_.host_steal;
  host_total_ += now.host_total - open_.host_total;
  probe_ns_.push_back(HostProbeNs());
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void ReleaseFreedMemory() { malloc_trim(0); }

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

// ---------------------------------------------------------------------------

int64_t SpanLog::Begin(const char* name, const char* layer, int64_t req) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.req = req;
  s.ts = clock_->Now();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanLog::End(int64_t id, int64_t req_last) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.dur = clock_->Now() - s.ts;
  s.req_last = req_last;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> LayerSelfTimes(std::vector<TimelineSpan> spans) {
  // Outer spans first: earlier start, then longer duration.
  std::sort(spans.begin(), spans.end(), [](const TimelineSpan& a, const TimelineSpan& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
  });
  std::map<std::string, double> self;
  std::vector<size_t> stack;
  std::vector<double> child(spans.size(), 0.0);
  auto close = [&](size_t i) { self[spans[i].layer] += spans[i].dur - child[i]; };
  for (size_t i = 0; i < spans.size(); ++i) {
    const double start = spans[i].ts;
    while (!stack.empty() &&
           spans[stack.back()].ts + spans[stack.back()].dur <= start + 1e-9) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += spans[i].dur;
    stack.push_back(i);
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return {self.begin(), self.end()};
}

std::vector<TimelineSpan> DriverTimeline(
    const std::vector<SpanLog::Span>& spans,
    const std::vector<knightking::obs::TraceRecorder::Event>& engine_events) {
  std::vector<TimelineSpan> out;
  for (const auto& s : spans) out.push_back({s.layer, s.ts, s.dur});
  for (const auto& e : engine_events) {
    if (e.pid == 0) out.push_back({"engine", e.ts, e.dur});
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<SpanLog::Span>& spans,
                      const std::vector<knightking::obs::TraceRecorder::Event>& engine_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  constexpr uint32_t kBenchPid = 1000;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
               "\"args\":{\"name\":\"benchmark\"}}",
               kBenchPid);
  for (const auto& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld",
                 s.name, s.layer, kBenchPid, s.ts * 1e6, s.dur * 1e6,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent));
    if (s.req >= 0) std::fprintf(f, ",\"req\":%lld", static_cast<long long>(s.req));
    if (s.req_last >= 0) {
      std::fprintf(f, ",\"req_last\":%lld", static_cast<long long>(s.req_last));
    }
    std::fprintf(f, "}}");
  }
  const size_t written = std::min(engine_events.size(), kMaxTraceEngineEvents);
  std::fprintf(f,
               ",\n{\"name\":\"engine_events\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
               "\"args\":{\"recorded\":%zu,\"written\":%zu}}",
               kBenchPid, engine_events.size(), written);
  for (size_t i = 0; i < written; ++i) {
    const auto& e = engine_events[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":%u,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"superstep\":%llu}}",
                 e.name, e.pid, e.tid, e.ts * 1e6, e.dur * 1e6,
                 static_cast<unsigned long long>(e.iteration));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

bool Checks::Expect(bool ok, const std::string& what) {
  run_ += 1;
  if (!ok) {
    failed_ += 1;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
