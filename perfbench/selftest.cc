// Tests of the benchmark's own helpers: the percentile rule, the seeded
// input generators, due-time latency accounting and trace self time.
#include <gtest/gtest.h>

#include <numeric>

#include "harness.h"
#include "src/graph/annotate.h"
#include "src/graph/generators.h"

namespace perfbench {
namespace {

using namespace knightking;

TEST(PercentileRuleTest, HighestPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);  // p50 leaves 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(99), 0.5);   // p90 leaves 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);  // p99 leaves 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(100000), 0.9999);
}

TEST(PercentileRuleTest, CappedPercentileFallsBackToSupportedTail) {
  std::vector<double> v(500);
  std::iota(v.begin(), v.end(), 1.0);  // 1..500
  double used = 0.0;
  EXPECT_EQ(CappedPercentile(v, 0.99, &used), 450.0);  // p90 of 500, 50 beyond
  EXPECT_EQ(used, 0.9);
  v.resize(1000);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_EQ(CappedPercentile(v, 0.99, &used), 990.0);
  EXPECT_EQ(used, 0.99);
  const TailSummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.max, 1000.0);
}

TEST(PoissonScheduleTest, ReproducesFromSeed) {
  const auto a = PoissonSchedule(7, 800.0, 2.0);
  const auto b = PoissonSchedule(7, 800.0, 2.0);
  const auto c = PoissonSchedule(8, 800.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // 1600 expected arrivals; 5 standard deviations is +-200.
  EXPECT_NEAR(static_cast<double>(a.size()), 1600.0, 200.0);
}

TEST(ZipfChurnTest, ReproducesFromSeedWithTheOpMix) {
  const auto edges =
      AssignUniformWeights(GenerateTruncatedPowerLaw(5000, 2.0, 4, 50, 3), 0.5f, 4.0f, 4);
  const auto graph = Csr<WeightedEdgeData>::FromEdgeList(edges);
  ChurnSpec spec;
  spec.batches = 6;
  spec.per_batch = 2000;
  const auto a = GenerateZipfChurn(graph, 11, spec);
  const auto b = GenerateZipfChurn(graph, 11, spec);
  const auto c = GenerateZipfChurn(graph, 12, spec);
  ASSERT_EQ(a.size(), 6u);
  uint64_t ops[3] = {0, 0, 0};
  std::vector<uint64_t> per_src(graph.num_vertices(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, 2 + 4 * i);
    EXPECT_EQ(a[i].mutations, b[i].mutations);
    EXPECT_EQ(a[i].mutations.size(), 2000u);
    for (const EdgeMutation& m : a[i].mutations) {
      ops[static_cast<size_t>(m.op)] += 1;
      per_src[m.src] += 1;
    }
  }
  EXPECT_NE(a[0].mutations, c[0].mutations);
  const double total = 12000.0;
  EXPECT_NEAR(static_cast<double>(ops[static_cast<size_t>(MutationOp::kReweight)]) / total, 0.60,
              0.03);
  EXPECT_NEAR(static_cast<double>(ops[static_cast<size_t>(MutationOp::kInsert)]) / total, 0.25,
              0.03);
  EXPECT_NEAR(static_cast<double>(ops[static_cast<size_t>(MutationOp::kDelete)]) / total, 0.15,
              0.03);
  // Zipf skew: the hottest row absorbs far more than the default merge
  // threshold (64) within the log.
  EXPECT_GT(*std::max_element(per_src.begin(), per_src.end()), 64u * 6u);
  // The same log seed gives the same MutationLog content hash.
  MutationLog la(5), lb(5);
  for (const ChurnBatch& batch : a) la.Append(batch.epoch, batch.mutations);
  for (const ChurnBatch& batch : b) lb.Append(batch.epoch, batch.mutations);
  EXPECT_EQ(la.PrefixHash(la.num_batches()), lb.PrefixHash(lb.num_batches()));
}

TEST(OpenLoopTest, DueTimeLatencyIncludesGeneratorLateness) {
  // A fake clock: every serve() call takes 10 ms; waiting jumps the clock.
  double clock = 0.0;
  const std::vector<double> due = {0.0, 0.001, 0.002, 0.050};
  const auto out = RunOpenLoop(
      due, [&] { return clock; }, [](size_t) { return true; },
      [&] {
        clock += 0.010;
        return size_t{1};  // one query per batch
      },
      [&](double t) { clock = t; });
  ASSERT_EQ(out.size(), 4u);
  // q0 served at once: 10 ms.
  EXPECT_DOUBLE_EQ(out[0].LatencySeconds(), 0.010);
  // q1 and q2 came due during q0's batch: the generator sent them late.
  EXPECT_DOUBLE_EQ(out[1].submitted, 0.010);
  EXPECT_DOUBLE_EQ(out[1].LatenessSeconds(), 0.009);
  EXPECT_DOUBLE_EQ(out[1].answered, 0.020);
  EXPECT_DOUBLE_EQ(out[1].LatencySeconds(), 0.019);
  EXPECT_GT(out[1].LatencySeconds(), out[1].answered - out[1].submitted);
  // q2 waits for q1's batch as well.
  EXPECT_DOUBLE_EQ(out[2].QueueWaitSeconds(), 0.018);
  EXPECT_DOUBLE_EQ(out[2].LatencySeconds(), 0.028);
  // q3 arrives after the backlog drained: no lateness.
  EXPECT_DOUBLE_EQ(out[3].LatenessSeconds(), 0.0);
  EXPECT_NEAR(out[3].LatencySeconds(), 0.010, 1e-12);
}

TEST(OpenLoopTest, RefusedQueriesAreMarked) {
  double clock = 0.0;
  const std::vector<double> due = {0.0, 0.0};
  const auto out = RunOpenLoop(
      due, [&] { return clock; }, [](size_t i) { return i == 0; },
      [&] {
        clock += 0.001;
        return size_t{1};
      },
      [&](double t) { clock = t; });
  EXPECT_FALSE(out[0].refused);
  EXPECT_TRUE(out[1].refused);
}

TEST(TraceSelfTimeTest, ChildrenAreSubtractedFromTheirParentLayer) {
  // service batch [0, 10) holding two engine phases [1, 3) and [4, 8); a
  // graph span [10, 12) after it.
  const std::vector<TimelineSpan> spans = {
      {"service", 0.0, 10.0}, {"engine", 1.0, 2.0}, {"engine", 4.0, 4.0},
      {"graph", 10.0, 2.0}};
  const auto self = LayerSelfTimes(spans);
  std::map<std::string, double> by_layer(self.begin(), self.end());
  EXPECT_DOUBLE_EQ(by_layer["service"], 4.0);
  EXPECT_DOUBLE_EQ(by_layer["engine"], 6.0);
  EXPECT_DOUBLE_EQ(by_layer["graph"], 2.0);
}

}  // namespace
}  // namespace perfbench
