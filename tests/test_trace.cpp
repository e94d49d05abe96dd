// The observability layer: span tracer (ring buffers, drain semantics,
// Chrome trace output, clock-offset merge) and the metrics registry
// (histogram bucket edges, snapshot merge), plus an end-to-end cluster run
// asserting the coordinator merges causally ordered worker spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domain/cluster.hpp"
#include "domain/metrics.hpp"
#include "domain/simulation.hpp"
#include "util/ic.hpp"
#include "util/trace.hpp"

namespace bonsai {
namespace {

namespace metrics = bonsai::metrics;
namespace trace = bonsai::trace;

// The tracer is a process-wide singleton shared by every test in this binary:
// leave it disabled and empty on the way out.
struct TracerGuard {
  TracerGuard() {
    trace::Tracer::instance().set_enabled(true);
    trace::Tracer::instance().drain_all();
    trace::Tracer::instance().dropped();
  }
  ~TracerGuard() {
    trace::Tracer::instance().set_enabled(false);
    trace::Tracer::instance().drain_all();
    trace::Tracer::instance().dropped();
  }
};

TEST(Tracer, DisabledScopesEmitNothing) {
  trace::Tracer::instance().set_enabled(false);
  trace::Tracer::instance().drain_all();
  {
    trace::ScopedSpan span("never.recorded", 0, 0, 1);
    span.set_bytes(128);
  }
  EXPECT_TRUE(trace::Tracer::instance().drain_all().empty());
}

TEST(Tracer, NestedScopesRecordInEndOrderAndNest) {
  TracerGuard guard;
  {
    trace::ScopedSpan outer("outer", 1, 1, 3);
    trace::ScopedSpan inner("inner", 1, 1, 3);
    inner.set_peer(0);
    inner.set_bytes(64);
  }
  const std::vector<trace::Span> spans = trace::Tracer::instance().drain_thread();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: inner ends (and records) first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_GE(spans[0].begin_ns, spans[1].begin_ns);  // inner nests in outer
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(spans[0].peer, 0);
  EXPECT_EQ(spans[0].bytes, 64);
  EXPECT_EQ(spans[1].peer, -2);  // untouched sentinel
  EXPECT_EQ(spans[1].bytes, -1);
  EXPECT_EQ(spans[1].rank, 1);
  EXPECT_EQ(spans[1].step, 3);
}

TEST(Tracer, ConcurrentLanesKeepPerLaneOrderAndLoseNothing) {
  TracerGuard guard;
  constexpr int kLanes = 8;
  constexpr int kPerLane = 500;
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < kLanes; ++lane)
    lanes.emplace_back([lane] {
      for (int i = 0; i < kPerLane; ++i) {
        trace::ScopedSpan span("lane.unit", lane, lane, i);
        (void)span;
      }
    });
  for (std::thread& t : lanes) t.join();

  const std::vector<trace::Span> spans = trace::Tracer::instance().drain_all();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kLanes * kPerLane));
  EXPECT_EQ(trace::Tracer::instance().dropped(), 0u);
  // Per lane: all steps present, in recording order, with begin <= end.
  for (int lane = 0; lane < kLanes; ++lane) {
    std::int64_t expect_step = 0;
    for (const trace::Span& s : spans) {
      if (s.lane != lane) continue;
      EXPECT_EQ(s.step, expect_step++);
      EXPECT_LE(s.begin_ns, s.end_ns);
    }
    EXPECT_EQ(expect_step, kPerLane);
  }
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  TracerGuard guard;
  constexpr std::uint64_t kExtra = 100;
  const std::size_t total = trace::Tracer::kRingCapacity + kExtra;
  trace::RawSpan raw;
  raw.name = "overflow.unit";
  for (std::size_t i = 0; i < total; ++i) {
    raw.step = static_cast<std::int64_t>(i);
    trace::Tracer::instance().emit(raw);
  }
  const std::vector<trace::Span> spans = trace::Tracer::instance().drain_thread();
  ASSERT_EQ(spans.size(), trace::Tracer::kRingCapacity);
  // Oldest kExtra spans were overwritten; order is preserved.
  EXPECT_EQ(spans.front().step, static_cast<std::int64_t>(kExtra));
  EXPECT_EQ(spans.back().step, static_cast<std::int64_t>(total - 1));
  EXPECT_EQ(trace::Tracer::instance().dropped(), kExtra);
  EXPECT_EQ(trace::Tracer::instance().dropped(), 0u);  // counter resets
}

TEST(Metrics, HistogramBucketBoundaries) {
  metrics::Registry reg;
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // counts[i] counts value <= bounds[i]; a value exactly on a bound lands in
  // that bucket, anything past the last bound overflows.
  reg.observe("h", bounds, 1.0);
  reg.observe("h", bounds, 1.5);
  reg.observe("h", bounds, 2.0);
  reg.observe("h", bounds, 4.0);
  reg.observe("h", bounds, 4.0001);
  reg.observe("h", bounds, 0.0);
  const metrics::Snapshot snap = reg.snapshot();
  const metrics::HistogramData& h = snap.histograms.at("h");
  ASSERT_EQ(h.bounds, bounds);
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 2u);  // 0.0, 1.0
  EXPECT_EQ(h.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(h.counts[2], 1u);  // 4.0
  EXPECT_EQ(h.counts[3], 1u);  // 4.0001 overflow
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 1.0 + 1.5 + 2.0 + 4.0 + 4.0001 + 0.0);
}

TEST(Metrics, Pow2BoundsSpanTheRequestedExponents) {
  const std::vector<double> b = metrics::pow2_bounds(4, 7);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 16.0);
  EXPECT_EQ(b[1], 32.0);
  EXPECT_EQ(b[2], 64.0);
  EXPECT_EQ(b[3], 128.0);
}

TEST(Metrics, LabelValueReadsOneLabelOfAName) {
  const std::string name = "transport.post.bytes{src=0,dst=-1,type=StepResult}";
  EXPECT_EQ(metrics::label_value(name, "src"), "0");
  EXPECT_EQ(metrics::label_value(name, "dst"), "-1");
  EXPECT_EQ(metrics::label_value(name, "type"), "StepResult");
  EXPECT_EQ(metrics::label_value(name, "ty"), "");  // whole keys only
  EXPECT_EQ(metrics::label_value("wire.let.bytes", "type"), "");
  EXPECT_EQ(metrics::label_value("let.delta.frames{kind=full}", "kind"), "full");
}

TEST(Metrics, MergeSumsCountersAndHistogramsGaugesTakeLatest) {
  metrics::Snapshot a, b;
  a.counters["c"] = 2.0;
  a.counters["only_a"] = 1.0;
  a.gauges["g"] = 10.0;
  a.histograms["h"] = {{1.0, 2.0}, {1, 0, 1}, 2, 3.0};
  b.counters["c"] = 3.0;
  b.gauges["g"] = 20.0;
  b.gauges["only_b"] = 5.0;
  b.histograms["h"] = {{1.0, 2.0}, {0, 2, 0}, 2, 3.5};
  metrics::merge(a, b);
  EXPECT_EQ(a.counters.at("c"), 5.0);
  EXPECT_EQ(a.counters.at("only_a"), 1.0);
  EXPECT_EQ(a.gauges.at("g"), 20.0);  // from wins
  EXPECT_EQ(a.gauges.at("only_b"), 5.0);
  const metrics::HistogramData& h = a.histograms.at("h");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 6.5);

  metrics::Snapshot bad;
  bad.histograms["h"] = {{1.0, 3.0}, {0, 0, 0}, 0, 0.0};
  EXPECT_THROW(metrics::merge(a, bad), std::runtime_error);
}

// The number after "<name>": in a metrics JSON object.
double json_number(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos ? -1.0 : std::strtod(json.c_str() + at + key.size(), nullptr);
}

TEST(Metrics, ToJsonNumbersParseBackExactlyWhateverTheStreamState) {
  metrics::Snapshot snap;
  snap.counters["wire.let.bytes"] = 123456789.0;
  snap.gauges["step.elapsed_s"] = 0.1;
  snap.gauges["schedule.critical_path_s"] = 0.0123456789;
  snap.histograms["let.size.bytes"] = {{16.0, 32.0}, {0, 3, 0}, 3, 81.0};

  std::ostringstream plain;  // default state: 6 significant digits
  metrics::to_json(plain, snap);
  EXPECT_EQ(json_number(plain.str(), "wire.let.bytes"), 123456789.0) << plain.str();
  EXPECT_EQ(json_number(plain.str(), "step.elapsed_s"), 0.1);
  EXPECT_EQ(json_number(plain.str(), "schedule.critical_path_s"), 0.0123456789);

  // A caller's odd stream state neither leaks into the numbers nor is reset.
  std::ostringstream odd;
  odd.precision(2);
  odd.setf(std::ios::fixed | std::ios::showpos);
  odd.setf(std::ios::hex, std::ios::basefield);
  const auto flags = odd.flags();
  metrics::to_json(odd, snap);
  EXPECT_EQ(odd.str(), plain.str());
  EXPECT_EQ(odd.precision(), 2);
  EXPECT_EQ(odd.flags(), flags);
}

TEST(Trace, ChromeJsonIsWellFormedAndEscaped) {
  std::vector<trace::Span> spans(2);
  spans[0].name = "weird\"name\\with\nnewline";
  spans[0].begin_ns = 1500;       // 1.500 us
  spans[0].end_ns = 4750;         // dur 3.250 us
  spans[0].rank = -1;             // coordinator -> pid 0
  spans[0].lane = -1;             // driver thread -> tid 0
  spans[1].name = "gravity.remote";
  spans[1].begin_ns = 2000;
  spans[1].end_ns = 3000;
  spans[1].rank = 2;
  spans[1].lane = 2;
  spans[1].step = 4;
  spans[1].peer = -1;             // a real peer: the coordinator
  spans[1].bytes = 4096;

  std::ostringstream os;
  trace::write_chrome_trace(os, spans, {{-1, "coordinator"}, {2, "rank 2"}});
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\\\"name\\\\with\\n"), std::string::npos);   // escaping
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);          // metadata
  EXPECT_NE(json.find("\"ts\":1.500,\"dur\":3.250,\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":3,\"tid\":2"), std::string::npos);   // rank 2
  EXPECT_NE(json.find("\"step\":4,\"peer\":-1,\"bytes\":4096"), std::string::npos);
  // Balanced braces/brackets (no raw quotes leak from the weird name).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, ClockOffsetMergeRestoresCausalOrder) {
  // Two fake workers whose steady clocks are wildly skewed against the
  // coordinator's: A runs 5 s ahead, B 3 s behind. True (coordinator-clock)
  // timeline: StepBegin posted at 1 ms; A exports a LET over [2 ms, 3 ms];
  // B's matching remote-gravity runs [3.5 ms, 4.5 ms]; both send their trace
  // frames at 5 ms, arriving 10 us later. Raw local timestamps order the two
  // spans backwards; the NTP-style shift must restore causality exactly
  // (symmetric delays).
  constexpr std::int64_t kSkewA = 5'000'000'000;
  constexpr std::int64_t kSkewB = -3'000'000'000;
  constexpr std::int64_t kFlight = 10'000;

  auto sync_for = [](std::int64_t skew) {
    trace::ClockSync s;
    s.coord_post_ns = 1'000'000;
    s.worker_recv_ns = 1'000'000 + kFlight + skew;
    s.worker_send_ns = 5'000'000 + skew;
    s.coord_arrive_ns = 5'000'000 + kFlight;
    return s;
  };
  const std::int64_t off_a = trace::estimate_clock_offset(sync_for(kSkewA));
  const std::int64_t off_b = trace::estimate_clock_offset(sync_for(kSkewB));
  EXPECT_EQ(off_a, -kSkewA);
  EXPECT_EQ(off_b, -kSkewB);

  std::vector<trace::Span> a_spans(1), b_spans(1);
  a_spans[0].name = "let.export";
  a_spans[0].begin_ns = 2'000'000 + kSkewA;
  a_spans[0].end_ns = 3'000'000 + kSkewA;
  a_spans[0].rank = 0;
  a_spans[0].peer = 1;
  b_spans[0].name = "gravity.remote";
  b_spans[0].begin_ns = 3'500'000 + kSkewB;
  b_spans[0].end_ns = 4'500'000 + kSkewB;
  b_spans[0].rank = 1;
  b_spans[0].peer = 0;

  // Unshifted, the import appears to *precede* the export by seconds.
  ASSERT_LT(b_spans[0].end_ns, a_spans[0].begin_ns);

  trace::shift_spans(a_spans, off_a);
  trace::shift_spans(b_spans, off_b);
  EXPECT_EQ(a_spans[0].begin_ns, 2'000'000);
  EXPECT_EQ(a_spans[0].end_ns, 3'000'000);
  EXPECT_EQ(b_spans[0].begin_ns, 3'500'000);
  // The merged timeline is causal again: the LET left A before B consumed it.
  EXPECT_LT(a_spans[0].end_ns, b_spans[0].begin_ns);
}

// End-to-end: a 2-rank SPMD mesh cluster with in-process workers (the
// on_listen seam) traces a step; the coordinator's merged report must carry
// remote-gravity spans from every rank, causally ordered against the peer's
// LET export even after the per-worker clock shifts.
TEST(Trace, ClockDomainIsStableAndNonZero) {
  // Nonzero so a Trace frame's default (0) never claims the coordinator's
  // clock; stable so every frame of this process carries the same id.
  EXPECT_NE(trace::clock_domain(), 0u);
  EXPECT_EQ(trace::clock_domain(), trace::clock_domain());
}

TEST(ClusterTrace, MergedSpansCoverEveryRankAndStayCausal) {
  struct WorkerPool {
    std::vector<std::thread> threads;
    ~WorkerPool() {
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  };
  WorkerPool pool;

  domain::SimConfig sim;
  sim.nranks = 2;
  sim.theta = 0.4;
  sim.eps = 1e-3;
  sim.dt = 0.0;
  sim.trace = true;

  domain::ClusterConfig cfg;
  cfg.sim = sim;
  cfg.topology = domain::SocketTopology::kMesh;
  cfg.spawn_workers = false;
  cfg.on_listen = [&pool](std::uint16_t port) {
    for (int r = 0; r < 2; ++r)
      pool.threads.emplace_back([port, r] {
        try {
          domain::run_worker("127.0.0.1", port, r, /*threads=*/1,
                             domain::SocketTopology::kMesh, /*listen_port=*/0);
        } catch (...) {
          // Teardown races surface as socket errors inside the worker.
        }
      });
  };

  domain::StepReport rep;
  {
    domain::ClusterSimulation cluster(cfg);
    cluster.init(make_plummer(1024, 17));
    rep = cluster.step();
  }
  trace::Tracer::instance().set_enabled(false);
  trace::Tracer::instance().drain_all();

  ASSERT_FALSE(rep.spans.empty());
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    const auto remote = std::find_if(
        rep.spans.begin(), rep.spans.end(), [&](const trace::Span& s) {
          return s.name == "gravity.remote" && s.rank == r && s.peer == peer;
        });
    ASSERT_NE(remote, rep.spans.end()) << "no remote-gravity span on rank " << r;
    // The peer's matching LET export must have begun before this import
    // finished decoding + walking (it produced the frame being consumed).
    const auto exported = std::find_if(
        rep.spans.begin(), rep.spans.end(), [&](const trace::Span& s) {
          return s.name == "let.export" && s.rank == peer && s.peer == r;
        });
    ASSERT_NE(exported, rep.spans.end()) << "no LET export span on rank " << peer;
    EXPECT_LT(exported->begin_ns, remote->end_ns);
    // And both workers' step envelopes made it into the merge.
    EXPECT_NE(std::find_if(rep.spans.begin(), rep.spans.end(),
                           [&](const trace::Span& s) {
                             return s.name == "worker.step" && s.rank == r;
                           }),
              rep.spans.end());
  }
  // The coordinator's own driver spans are on the merged timeline too.
  EXPECT_NE(std::find_if(rep.spans.begin(), rep.spans.end(),
                         [](const trace::Span& s) { return s.rank == -1; }),
            rep.spans.end());
  // The recorders' traffic matrix and the codecs' wire rows, booked at
  // different layers and merged from every worker, account the same posts.
  ASSERT_FALSE(rep.metrics.counters.empty());
  std::map<std::string, double> posted;  // by frame type
  for (const auto& [name, value] : rep.metrics.counters)
    if (name.rfind("transport.post.bytes{", 0) == 0)
      posted[metrics::label_value(name, "type")] += value;
  EXPECT_GT(posted["Let"], 0.0);
  EXPECT_DOUBLE_EQ(posted["Let"] + posted["LetDelta"], rep.metrics.counter("wire.let.bytes"));
  EXPECT_DOUBLE_EQ(posted["Boundaries"] + posted["KeySamples"],
                   rep.metrics.counter("wire.dom.bytes"));
  EXPECT_DOUBLE_EQ(posted["Migration"] + posted["StepBegin"] + posted["StepResult"],
                   rep.metrics.counter("wire.part.bytes"));
}

}  // namespace
}  // namespace bonsai
