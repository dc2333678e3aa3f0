// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload node2vec|deepwalk_churn|ppr_service --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is the
// separate traced run that prints the per-layer metrics (and writes the
// chrome trace to --trace-out). The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when any correctness check fails.
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload node2vec|deepwalk_churn|ppr_service --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.seconds <= 0.0) return Usage();

  perfbench::Outcome out;
  if (opts.workload == "node2vec") {
    out = perfbench::RunNode2vec(opts);
  } else if (opts.workload == "deepwalk_churn") {
    out = perfbench::RunDeepwalkChurn(opts);
  } else if (opts.workload == "ppr_service") {
    out = perfbench::RunPprService(opts);
  } else {
    return Usage();
  }
  const uint64_t failed = out.failed_ops + out.checks.failed();
  const bool correct = out.checks.failed() == 0 && failed == 0;
  std::printf("%s: %llu checks, %llu failed; %llu operations attempted, %llu failed\n",
              opts.workload.c_str(), static_cast<unsigned long long>(out.checks.run()),
              static_cast<unsigned long long>(out.checks.failed()),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(failed));
  (opts.trace ? out.per_layer : out.end_to_end)
      .Print(correct, out.attempted > 0 ? out.attempted : 1, failed);
  return correct ? 0 : 1;
}
