// The benchmark's own tests: generator determinism, the tail-percentile
// rule, self-time arithmetic on nested spans (and on the spans the traced
// run builds from the pipeline's own timings), and open-loop lateness
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>

#include "gen.hpp"
#include "openloop.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------------- catalog --

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::string per_layer = json.substr(json.find("\"per_layer\""));
  std::size_t listed = 0;
  for (std::size_t p = 0; (p = per_layer.find("\"name\":", p)) !=
                          std::string::npos;
       ++p) {
    ++listed;
  }
  EXPECT_EQ(listed, Report::catalog().size());
  for (const auto& [name, unit] : Report::catalog()) {
    EXPECT_NE(per_layer.find("\"name\": \"" + name + "\", \"unit\": \"" +
                             unit + "\""),
              std::string::npos)
        << name;
  }
}

// ------------------------------------------------------------ generator --

TEST(Generator, SameSeedSameBytes) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 123456789ULL}) {
    EXPECT_EQ(serialize(gen_qft_scale(seed)), serialize(gen_qft_scale(seed)));
    EXPECT_EQ(serialize(gen_route(seed)), serialize(gen_route(seed)));
    EXPECT_EQ(serialize(gen_sat(seed)), serialize(gen_sat(seed)));
    EXPECT_EQ(serialize(gen_serve(seed)), serialize(gen_serve(seed)));
  }
}

TEST(Generator, SeedChangesInputs) {
  EXPECT_NE(serialize(gen_route(1)), serialize(gen_route(2)));
  EXPECT_NE(serialize(gen_serve(1)), serialize(gen_serve(2)));
}

TEST(Generator, ServeMixHasExactShares) {
  const ServeInputs in = gen_serve(3);
  int counts[5] = {};
  for (const ServeReq& r : in.light.reqs) ++counts[static_cast<int>(r.kind)];
  EXPECT_EQ(counts[static_cast<int>(ReqKind::kHot)], 400);
  EXPECT_EQ(counts[static_cast<int>(ReqKind::kDistinct)], 350);
  EXPECT_EQ(counts[static_cast<int>(ReqKind::kQasm)], 200);
  EXPECT_EQ(counts[static_cast<int>(ReqKind::kDevice)], 40);
  EXPECT_EQ(counts[static_cast<int>(ReqKind::kScale)], 10);
  EXPECT_TRUE(std::is_sorted(in.light.offsets.begin(), in.light.offsets.end()));
}

// ------------------------------------------------------ percentile rule --

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.5), 50.0);
  EXPECT_EQ(quantile(v, 0.99), 99.0);
  EXPECT_EQ(quantile(v, 1.0), 100.0);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

// ------------------------------------------------------------ self time --

TEST(SelfTime, NestedOverlappingAndClippedChildren) {
  std::vector<Span> s(5);
  s[0] = {"root", 0.0, 10.0, -1, 1};
  s[1] = {"a", 1.0, 4.0, 0, 1};
  s[2] = {"b", 3.0, 6.0, 0, 1};   // overlaps a: the union counts once
  s[3] = {"a.x", 2.0, 3.0, 1, 1};
  s[4] = {"c", 8.0, 12.0, 0, 1};  // runs past its parent: clipped
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 4.0);
  const auto by_name = self_time_by_name(s);
  EXPECT_DOUBLE_EQ(by_name.at("a"), 2.0);
}

TEST(SelfTime, TracerRecordsParents) {
  Tracer t(true);
  {
    Scope outer(t, "outer", 7);
    { Scope inner(t, "inner", 7); }
    t.record("measured", now_s(), now_s(), 7);
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_LE(t.spans()[1].end, t.spans()[0].end);

  Tracer off(false);
  { Scope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(SelfTime, PipelineTimingsBecomeChildrenOfTheRun) {
  Tracer t(true);
  const qfto::MapResult r = traced_run(t, 4, "mapper.map.lnn", [] {
    qfto::MapResult out;
    out.timings.map_seconds = 0.002;
    out.timings.check_seconds = 0.001;
    const double until = now_s() + 0.005;
    while (now_s() < until) {
    }
    return out;
  });
  EXPECT_EQ(r.timings.map_seconds, 0.002);
  ASSERT_EQ(t.spans().size(), 3u);
  const Span& run = t.spans()[0];
  EXPECT_EQ(run.name, "pipeline.run");
  EXPECT_EQ(t.spans()[1].name, "mapper.map.lnn");
  EXPECT_EQ(t.spans()[2].name, "verify.check");
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(t.spans()[i].parent, 0);
    EXPECT_EQ(t.spans()[i].request, 4);
  }
  // The run's self time is what the pipeline did outside its timed stages.
  const auto self = self_time_by_name(t.spans());
  EXPECT_NEAR(self.at("mapper.map.lnn"), 0.002, 1e-12);
  EXPECT_NEAR(self.at("verify.check"), 0.001, 1e-12);
  EXPECT_NEAR(self.at("pipeline.run"), run.end - run.start - 0.003, 1e-12);
  EXPECT_GE(run.end - run.start, 0.005);
}

// ------------------------------------------------------------ open loop --

/// Virtual-time link: one FIFO server with per-request service times; a
/// send may block the sender for a set time.
struct FakeLink {
  double clock = 0.0;
  std::vector<double> service;
  std::vector<double> send_block;
  std::deque<std::pair<std::size_t, double>> queue;  // (request, done at)
  double server_free = 0.0;

  double now() const { return clock; }
  void send(std::size_t i) {
    const double start = std::max(clock, server_free);
    server_free = start + service[i];
    queue.emplace_back(i, server_free);
    clock += send_block[i];
  }
  void wait(double until, std::vector<std::size_t>& done) {
    if (!queue.empty() && queue.front().second <= until) {
      clock = std::max(clock, queue.front().second);
      while (!queue.empty() && queue.front().second <= clock) {
        done.push_back(queue.front().first);
        queue.pop_front();
      }
    } else {
      clock = std::max(clock, until);
    }
  }
};

TEST(OpenLoop, ServerStallDelaysLaterRequests) {
  const std::size_t n = 20;
  FakeLink link;
  link.service.assign(n, 0.001);
  link.send_block.assign(n, 0.0);
  link.service[3] = 0.100;  // request 3 stalls the server for 100 ms
  std::vector<double> due;
  for (std::size_t i = 0; i < n; ++i) due.push_back(0.010 * i);
  const auto t = run_open_loop(due, link, 1.0);
  for (const Timing& x : t) {
    ASSERT_TRUE(x.answered());
    EXPECT_DOUBLE_EQ(x.lateness(), 0.0);  // the sender kept its schedule
  }
  EXPECT_NEAR(t[2].latency(), 0.001, 1e-12);
  EXPECT_NEAR(t[3].latency(), 0.100, 1e-12);
  // Request 4 was due at 40 ms but waits for the stall to end at 130 ms.
  EXPECT_NEAR(t[4].latency(), 0.091, 1e-12);
  // Everything due before the backlog drains is charged for it.
  for (std::size_t i = 4; i <= 13; ++i) EXPECT_GT(t[i].latency(), 0.005);
  EXPECT_NEAR(t[19].latency(), 0.001, 1e-12);
}

TEST(OpenLoop, BlockedSenderIsChargedFromDueTime) {
  const std::size_t n = 10;
  FakeLink link;
  link.service.assign(n, 0.001);
  link.send_block.assign(n, 0.0);
  link.send_block[2] = 0.050;  // the write of request 2 blocks for 50 ms
  std::vector<double> due;
  for (std::size_t i = 0; i < n; ++i) due.push_back(0.010 * i);
  const auto t = run_open_loop(due, link, 1.0);
  // Requests 3..6 (due 30..60 ms) go out late, at 70 ms, all at once.
  for (std::size_t i = 3; i <= 6; ++i) {
    EXPECT_NEAR(t[i].sent, 0.070, 1e-12);
    EXPECT_NEAR(t[i].lateness(), 0.070 - due[i], 1e-12);
    EXPECT_GE(t[i].latency(), t[i].lateness());
  }
  EXPECT_NEAR(t[3].latency(), 0.070 + 0.001 - 0.030, 1e-12);
  EXPECT_NEAR(t[9].lateness(), 0.0, 1e-12);
}

TEST(OpenLoop, UnansweredRequestsTimeOut) {
  struct Silent {
    double clock = 0.0;
    double now() const { return clock; }
    void send(std::size_t) {}
    void wait(double until, std::vector<std::size_t>&) { clock = until; }
  } link;
  const auto t = run_open_loop({0.0, 0.5}, link, 2.0);
  EXPECT_FALSE(t[0].answered());
  EXPECT_FALSE(t[1].answered());
  EXPECT_DOUBLE_EQ(t[1].sent, 0.5);
}

}  // namespace
}  // namespace perfbench
