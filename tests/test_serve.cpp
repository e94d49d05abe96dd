// Job-server subsystem: snapshot files round-trip bit-for-bit, admission
// control rejects with the limit's name, the rank-pool scheduler runs jobs
// concurrently and preempts by priority, a preempted-and-resumed job ends
// bit-for-bit identical to an uninterrupted run, and per-job metrics/bench
// outputs never mix jobs.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domain/simulation.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

namespace wire = domain::wire;
using serve::JobServer;
using serve::ServerConfig;

constexpr const char* kHost = "127.0.0.1";

ServerConfig test_server_config(const std::string& tag) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.spool_dir = testing::TempDir() + "bonsai-serve-" + tag;
  return cfg;
}

wire::JobSpec small_job(std::uint64_t n, std::int32_t steps) {
  wire::JobSpec spec;
  spec.n = n;
  spec.seed = 42;
  spec.steps = steps;
  spec.theta = 0.5;
  spec.dt = 1e-3;
  return spec;
}

// Poll a job until `pred` holds or the deadline passes; returns last status.
template <typename Pred>
wire::JobStatusMsg poll_until(std::uint16_t port, std::int32_t id, Pred pred,
                              int timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  wire::JobStatusMsg st;
  while (std::chrono::steady_clock::now() < deadline) {
    st = serve::job_status(kHost, port, id);
    if (pred(st)) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return st;
}

void expect_same_particles(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.x, b.x);  // bit-for-bit doubles throughout
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.vx, b.vx);
  EXPECT_EQ(a.vy, b.vy);
  EXPECT_EQ(a.vz, b.vz);
  EXPECT_EQ(a.ax, b.ax);
  EXPECT_EQ(a.ay, b.ay);
  EXPECT_EQ(a.az, b.az);
  EXPECT_EQ(a.pot, b.pot);
}

// Regression for a TSan finding: server shutdown calls Listener::close()
// from outside the accept loop's thread, so the descriptor handover must be
// synchronized — close() must unblock a concurrent blocking accept() (which
// then reports end-of-serving), never race on the fd.
TEST(Listener, CloseFromAnotherThreadUnblocksAccept) {
  serve::Listener listener(0);
  ASSERT_GT(listener.port(), 0);
  std::optional<serve::FrameSocket> accepted;
  std::thread acceptor([&] { accepted = listener.accept(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // park in accept
  listener.close();
  acceptor.join();
  EXPECT_FALSE(accepted.has_value());
  EXPECT_NO_THROW(listener.close());  // idempotent after handover
}

TEST(Snapshot, FileRoundTripsCheckpointBitForBit) {
  // The configuration every served job runs with.
  wire::JobSpec spec;
  spec.dt = 1e-3;
  const domain::SimConfig cfg = serve::job_sim_config(3, spec);
  // One slot is one core: a job's rank gets one device thread on any host.
  for (const std::size_t hw : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                               std::size_t{std::thread::hardware_concurrency()}})
    EXPECT_EQ(domain::threads_for(cfg, hw), 1u) << "hardware threads " << hw;

  domain::Simulation sim(cfg);
  sim.init(make_plummer(1024, 5));
  sim.step();
  sim.step();

  wire::SnapshotMsg snap;
  snap.job_id = 7;
  snap.next_step = sim.next_step();
  snap.sets = sim.checkpoint_sets();

  const std::string path = testing::TempDir() + "bonsai-ckpt-roundtrip.snap";
  serve::write_snapshot_file(path, snap);
  const wire::SnapshotMsg back = serve::read_snapshot_file(path);
  EXPECT_EQ(back.job_id, 7);
  EXPECT_EQ(back.next_step, 2);
  ASSERT_EQ(back.sets.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    expect_same_particles(back.sets[r], snap.sets[r]);
    EXPECT_EQ(back.sets[r].key, snap.sets[r].key);
  }

  // Restoring the file into a fresh Simulation continues bit-for-bit with
  // the original (same config, 1 thread per rank, count balance).
  domain::Simulation restored(cfg);
  restored.restore(back.sets, back.next_step);
  sim.step();
  restored.step();
  expect_same_particles(restored.gather(), sim.gather());

  EXPECT_THROW(serve::read_snapshot_file(path + ".missing"), std::runtime_error);
}

TEST(Snapshot, FilesFromOlderWireVersionsLoadSinceTheLayoutChanged) {
  // A snapshot file keeps the header version it was written at. Files from
  // the version that last changed the Snapshot bytes on load bit for bit;
  // one version older fails, naming its version and the accepted range.
  wire::SnapshotMsg snap;
  snap.job_id = 3;
  snap.next_step = 5;
  snap.sets = {make_plummer(40, 7), make_plummer(25, 8)};
  snap.sets[1].pot[3] = -1.25;
  const std::string path = testing::TempDir() + "bonsai-old-version.snap";
  serve::write_snapshot_file(path, snap);

  const auto write_version = [&](std::uint16_t version) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const char bytes[2] = {static_cast<char>(version & 0xFF), static_cast<char>(version >> 8)};
    f.write(bytes, 2);
  };
  write_version(wire::kSnapshotLayoutVersion);
  const wire::SnapshotMsg back = serve::read_snapshot_file(path);
  EXPECT_EQ(back.job_id, 3);
  EXPECT_EQ(back.next_step, 5);
  ASSERT_EQ(back.sets.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    expect_same_particles(back.sets[r], snap.sets[r]);
    EXPECT_EQ(back.sets[r].key, snap.sets[r].key);
  }

  for (const int bad : {wire::kSnapshotLayoutVersion - 1, wire::kVersion + 1}) {
    write_version(static_cast<std::uint16_t>(bad));
    try {
      serve::read_snapshot_file(path);
      ADD_FAILURE() << "version " << bad << " must not load";
    } catch (const wire::WireError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("file version " + std::to_string(bad)), std::string::npos) << what;
      EXPECT_NE(what.find("accepted versions " + std::to_string(wire::kSnapshotLayoutVersion) +
                          " to " + std::to_string(wire::kVersion)),
                std::string::npos)
          << what;
    }
  }
}

TEST(Snapshot, InitialConditionRejectsNonFiniteParticles) {
  wire::SnapshotMsg snap;
  snap.sets = {make_plummer(10, 1), make_plummer(6, 2)};
  const std::string path = testing::TempDir() + "bonsai-ic-non-finite.snap";
  serve::write_snapshot_file(path, snap);
  EXPECT_EQ(serve::read_initial_condition(path).size(), 16u);

  // Forces are outputs: a non-finite one is not an input error.
  snap.sets[0].ax[2] = std::numeric_limits<double>::quiet_NaN();
  serve::write_snapshot_file(path, snap);
  EXPECT_EQ(serve::read_initial_condition(path).size(), 16u);

  snap.sets[1].mass[3] = std::numeric_limits<double>::infinity();
  serve::write_snapshot_file(path, snap);
  try {
    serve::read_initial_condition(path);
    ADD_FAILURE() << "an infinite mass was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("particle 13 field mass = inf"), std::string::npos) << what;
  }
}

TEST(Snapshot, FlattenConcatenatesRankSetsInOrder) {
  wire::SnapshotMsg snap;
  snap.sets.resize(2);
  snap.sets[0] = make_plummer(10, 1);
  snap.sets[1] = make_plummer(6, 2);
  snap.sets[1].ax[0] = 3.5;
  snap.sets[1].key[0] = 77;
  const ParticleSet flat = serve::flatten_snapshot(snap);
  ASSERT_EQ(flat.size(), 16u);
  EXPECT_EQ(flat.x[0], snap.sets[0].x[0]);
  EXPECT_EQ(flat.x[10], snap.sets[1].x[0]);
  EXPECT_EQ(flat.ax[10], 3.5);  // forces and keys survive the flatten
  EXPECT_EQ(flat.key[10], 77u);
}

TEST(Serve, WithJobLabelExtendsExistingLabelSets) {
  EXPECT_EQ(serve::with_job_label("step.elapsed_s", 3), "step.elapsed_s{job=3}");
  EXPECT_EQ(serve::with_job_label("wire.let.bytes{rank=2}", 14),
            "wire.let.bytes{rank=2,job=14}");
}

TEST(Serve, ServerRunsTwoJobsConcurrently) {
  ServerConfig cfg = test_server_config("concurrent");
  cfg.limits.pool_slots = 2;
  JobServer server(cfg);

  // Explicit one-slot jobs: a lone auto-sized job would take the whole pool
  // (its share of resident particles is 1.0 at submit time).
  wire::JobSpec spec = small_job(2048, 8);
  spec.ranks = 1;
  const auto j1 = serve::submit_job(kHost, server.port(), spec);
  const auto j2 = serve::submit_job(kHost, server.port(), spec);
  ASSERT_NE(j1.state, wire::JobState::kRejected) << j1.reason;
  ASSERT_NE(j2.state, wire::JobState::kRejected) << j2.reason;
  ASSERT_NE(j1.job_id, j2.job_id);

  // Both must hold a slot at once: poll until both report kRunning in the
  // same sweep.
  bool both_running = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!both_running && std::chrono::steady_clock::now() < deadline) {
    const auto s1 = serve::job_status(kHost, server.port(), j1.job_id);
    const auto s2 = serve::job_status(kHost, server.port(), j2.job_id);
    if (s1.state == wire::JobState::kCompleted || s2.state == wire::JobState::kCompleted)
      break;  // too fast to observe overlap — the wait asserts below still run
    both_running = s1.state == wire::JobState::kRunning &&
                   s2.state == wire::JobState::kRunning;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(both_running) << "jobs never overlapped on the pool";

  const auto r1 = serve::wait_job(kHost, server.port(), j1.job_id);
  const auto r2 = serve::wait_job(kHost, server.port(), j2.job_id);
  EXPECT_EQ(r1.state, wire::JobState::kCompleted);
  EXPECT_EQ(r2.state, wire::JobState::kCompleted);
  EXPECT_EQ(r1.steps_done, 8);
  EXPECT_EQ(r1.parts.size(), 2048u);
  EXPECT_EQ(r2.parts.size(), 2048u);
  EXPECT_LT(r1.potential, 0.0);
}

TEST(Serve, SubmitRejectsNonFiniteInitialParticles) {
  ServerConfig cfg = test_server_config("non-finite");
  cfg.limits.pool_slots = 2;
  JobServer server(cfg);

  wire::JobSpec spec = small_job(0, 1);
  spec.ranks = 2;
  spec.parts = make_plummer(2048, 3);
  spec.parts.x[17] = std::numeric_limits<double>::quiet_NaN();
  const auto rej = serve::submit_job(kHost, server.port(), spec);
  EXPECT_EQ(rej.state, wire::JobState::kRejected);
  EXPECT_NE(rej.reason.find("particle 17 field x = nan"), std::string::npos) << rej.reason;

  spec.parts.x[17] = 0.5;
  spec.parts.vz[2047] = -std::numeric_limits<double>::infinity();
  const auto rej2 = serve::submit_job(kHost, server.port(), spec);
  EXPECT_EQ(rej2.state, wire::JobState::kRejected);
  EXPECT_NE(rej2.reason.find("particle 2047 field vz = -inf"), std::string::npos)
      << rej2.reason;

  // The same particles, all finite, run to completion with finite forces.
  spec.parts.vz[2047] = 0.0;
  const auto ok = serve::submit_job(kHost, server.port(), spec);
  ASSERT_NE(ok.state, wire::JobState::kRejected) << ok.reason;
  const auto res = serve::wait_job(kHost, server.port(), ok.job_id);
  ASSERT_EQ(res.state, wire::JobState::kCompleted) << res.reason;
  for (std::size_t i = 0; i < res.parts.size(); ++i)
    ASSERT_TRUE(std::isfinite(res.parts.ax[i]) && std::isfinite(res.parts.pot[i])) << i;
  EXPECT_EQ(serve::fetch_metrics(kHost, server.port()).counters.at("server.jobs.rejected"), 2.0);
}

TEST(Serve, SubmitRejectsInvalidPhysicsNamingTheField) {
  ServerConfig cfg = test_server_config("bad-physics");
  JobServer server(cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    double theta, eps, dt;
    const char* field;
  };
  for (const Bad& bad : {Bad{nan, 1e-2, 1e-3, "theta"}, Bad{0.0, 1e-2, 1e-3, "theta"},
                         Bad{-0.4, 1e-2, 1e-3, "theta"}, Bad{0.4, nan, 1e-3, "eps"},
                         Bad{0.4, -1.0, 1e-3, "eps"}, Bad{0.4, inf, 1e-3, "eps"},
                         Bad{0.4, 1e-2, nan, "dt"}, Bad{0.4, 1e-2, -inf, "dt"}}) {
    wire::JobSpec spec = small_job(256, 1);
    spec.theta = bad.theta;
    spec.eps = bad.eps;
    spec.dt = bad.dt;
    const auto rej = serve::submit_job(kHost, server.port(), spec);
    EXPECT_EQ(rej.state, wire::JobState::kRejected) << bad.field;
    EXPECT_EQ(rej.reason.find(std::string("invalid physics config: ") + bad.field), 0u)
        << rej.reason;
  }
  EXPECT_EQ(serve::fetch_metrics(kHost, server.port()).counters.at("server.jobs.rejected"), 8.0);
}

TEST(Serve, AdmissionRejectsNamingTheViolatedLimit) {
  {
    ServerConfig cfg = test_server_config("admit-jobs");
    cfg.limits.pool_slots = 1;
    cfg.limits.max_concurrent_jobs = 1;
    JobServer server(cfg);
    const auto ok = serve::submit_job(kHost, server.port(), small_job(2048, 50));
    ASSERT_NE(ok.state, wire::JobState::kRejected) << ok.reason;
    const auto rej = serve::submit_job(kHost, server.port(), small_job(2048, 1));
    EXPECT_EQ(rej.state, wire::JobState::kRejected);
    EXPECT_NE(rej.reason.find("max_concurrent_jobs=1"), std::string::npos) << rej.reason;
    serve::cancel_job(kHost, server.port(), ok.job_id);
    serve::wait_job(kHost, server.port(), ok.job_id);
  }
  {
    ServerConfig cfg = test_server_config("admit-parts");
    cfg.limits.pool_slots = 1;
    cfg.limits.max_resident_particles = 1000;
    JobServer server(cfg);
    const auto rej = serve::submit_job(kHost, server.port(), small_job(2000, 1));
    EXPECT_EQ(rej.state, wire::JobState::kRejected);
    EXPECT_NE(rej.reason.find("max_resident_particles=1000"), std::string::npos)
        << rej.reason;
    // A fitting job is still admitted afterwards.
    const auto ok = serve::submit_job(kHost, server.port(), small_job(512, 1));
    EXPECT_NE(ok.state, wire::JobState::kRejected) << ok.reason;
    EXPECT_EQ(serve::wait_job(kHost, server.port(), ok.job_id).state,
              wire::JobState::kCompleted);
  }
}

TEST(Serve, CancelQueuedAndRunningJobs) {
  ServerConfig cfg = test_server_config("cancel");
  cfg.limits.pool_slots = 1;
  JobServer server(cfg);

  const auto running = serve::submit_job(kHost, server.port(), small_job(4096, 100));
  const auto queued = serve::submit_job(kHost, server.port(), small_job(4096, 100));
  ASSERT_NE(running.state, wire::JobState::kRejected) << running.reason;
  ASSERT_EQ(queued.state, wire::JobState::kQueued);  // pool of 1 is taken
  poll_until(server.port(), running.job_id,
             [](const wire::JobStatusMsg& s) { return s.state == wire::JobState::kRunning; });

  // The queued job holds no slots: cancellation is immediate.
  const auto c2 = serve::cancel_job(kHost, server.port(), queued.job_id);
  EXPECT_EQ(c2.state, wire::JobState::kCancelled);

  // The running job cancels at its next step boundary.
  serve::cancel_job(kHost, server.port(), running.job_id);
  const auto r1 = serve::wait_job(kHost, server.port(), running.job_id);
  EXPECT_EQ(r1.state, wire::JobState::kCancelled);
  EXPECT_LT(r1.steps_done, 100);

  const auto metrics = serve::fetch_metrics(kHost, server.port());
  EXPECT_EQ(metrics.counters.at("server.jobs.cancelled"), 2.0);

  // Cancelling an unknown id is a clean rejection, not a hang.
  EXPECT_EQ(serve::cancel_job(kHost, server.port(), 999).state,
            wire::JobState::kRejected);
}

TEST(Serve, PreemptedJobResumesBitForBitWithUninterruptedRun) {
  ServerConfig cfg = test_server_config("preempt");
  cfg.limits.pool_slots = 2;
  JobServer server(cfg);

  // Low-priority job holding the whole pool.
  wire::JobSpec low = small_job(3000, 8);
  low.ranks = 2;
  low.priority = 0;
  const auto j1 = serve::submit_job(kHost, server.port(), low);
  ASSERT_NE(j1.state, wire::JobState::kRejected) << j1.reason;
  poll_until(server.port(), j1.job_id, [](const wire::JobStatusMsg& s) {
    return s.state == wire::JobState::kRunning && s.steps_done >= 1;
  });

  // A higher-priority job that cannot fit forces a checkpoint-suspend.
  wire::JobSpec high = small_job(2048, 2);
  high.ranks = 2;
  high.priority = 5;
  const auto j2 = serve::submit_job(kHost, server.port(), high);
  ASSERT_EQ(j2.state, wire::JobState::kQueued);  // pool is full until the preempt

  const auto r2 = serve::wait_job(kHost, server.port(), j2.job_id);
  EXPECT_EQ(r2.state, wire::JobState::kCompleted);
  const auto r1 = serve::wait_job(kHost, server.port(), j1.job_id);
  ASSERT_EQ(r1.state, wire::JobState::kCompleted);
  EXPECT_EQ(r1.steps_done, 8);

  const auto metrics = serve::fetch_metrics(kHost, server.port());
  ASSERT_TRUE(metrics.counters.count("server.jobs.preempted"))
      << "high-priority job never forced a suspend";
  EXPECT_GE(metrics.counters.at("server.jobs.preempted"), 1.0);
  EXPECT_GE(metrics.counters.at("server.jobs.resumed"), 1.0);

  // Reference: the same job uninterrupted, in-process, same deterministic
  // config. The preempt/resume cycle must not change a single bit.
  domain::Simulation ref(serve::job_sim_config(2, low));
  ref.init(make_plummer(low.n, low.seed));
  for (int s = 0; s < low.steps; ++s) ref.step();
  expect_same_particles(r1.parts, ref.gather());
}

TEST(Serve, PayloadlessRequestsCarryingAPayloadAreBadRequests) {
  ServerConfig cfg = test_server_config("trailing");
  cfg.limits.pool_slots = 1;
  JobServer server(cfg);
  serve::FrameSocket sock = serve::dial(kHost, server.port());
  for (std::vector<std::uint8_t> request :
       {wire::encode_metrics_query(), wire::encode_shutdown()}) {
    request.push_back(0);
    request[8] = 1;  // payload length (little-endian u64 at offset 8)
    sock.send(request);
    // A well-formed request behind it: a server that acted on the malformed
    // one without replying would answer this one first.
    sock.send(wire::encode_metrics_query());
    const wire::JobStatusMsg reply = wire::decode_job_status(sock.recv());
    EXPECT_EQ(reply.state, wire::JobState::kRejected);
    EXPECT_EQ(reply.reason.rfind("bad request", 0), 0u) << reply.reason;
    EXPECT_NE(reply.reason.find("trailing bytes after payload"), std::string::npos)
        << reply.reason;
    EXPECT_NO_THROW(wire::decode_metrics_report(sock.recv()));
  }
}

TEST(Serve, SnapshotOfRunningJobAndMetricsIsolation) {
  ServerConfig cfg = test_server_config("isolate");
  cfg.limits.pool_slots = 2;
  cfg.bench_dir = testing::TempDir() + "bonsai-serve-isolate-bench";
  JobServer server(cfg);

  wire::JobSpec a = small_job(1024, 4);
  wire::JobSpec b = small_job(2048, 4);
  a.ranks = 1;
  b.ranks = 1;
  const auto ja = serve::submit_job(kHost, server.port(), a);
  const auto jb = serve::submit_job(kHost, server.port(), b);

  const auto ra = serve::wait_job(kHost, server.port(), ja.job_id);
  const auto rb = serve::wait_job(kHost, server.port(), jb.job_id);
  ASSERT_EQ(ra.state, wire::JobState::kCompleted);
  ASSERT_EQ(rb.state, wire::JobState::kCompleted);

  // A completed job's snapshot is its result as one set.
  const wire::SnapshotMsg snap = serve::fetch_snapshot(kHost, server.port(), ja.job_id);
  ASSERT_EQ(snap.sets.size(), 1u);
  expect_same_particles(snap.sets[0], ra.parts);

  // Metric isolation: each job's gauge carries its own n and nothing else's.
  const auto metrics = serve::fetch_metrics(kHost, server.port());
  const std::string ga = serve::with_job_label("job.num_particles", ja.job_id);
  const std::string gb = serve::with_job_label("job.num_particles", jb.job_id);
  ASSERT_TRUE(metrics.gauges.count(ga));
  ASSERT_TRUE(metrics.gauges.count(gb));
  EXPECT_EQ(metrics.gauges.at(ga), 1024.0);
  EXPECT_EQ(metrics.gauges.at(gb), 2048.0);
  const std::string la = "job=" + std::to_string(ja.job_id);
  const std::string lb = "job=" + std::to_string(jb.job_id);
  for (const auto& [name, v] : metrics.counters) {
    if (name.rfind("server.", 0) == 0) continue;  // server-level counters
    EXPECT_TRUE(name.find(la) != std::string::npos || name.find(lb) != std::string::npos)
        << "unlabeled job metric leaked: " << name;
  }

  // Bench isolation: each job's JSON names its own config, 4 steps each.
  const std::vector<std::pair<int, int>> expect = {{ja.job_id, 1024}, {jb.job_id, 2048}};
  for (const auto& [id, n] : expect) {
    std::ifstream in(cfg.bench_dir + "/job-" + std::to_string(id) + ".json");
    ASSERT_TRUE(in.good()) << "missing bench for job " << id;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string body = ss.str();
    EXPECT_NE(body.find("\"num_particles\": " + std::to_string(n)), std::string::npos);
    EXPECT_NE(body.find("\"transport\": \"serve\""), std::string::npos);
    EXPECT_EQ(body.find("\"num_particles\": " + std::to_string(n == 1024 ? 2048 : 1024)),
              std::string::npos)
        << "cross-job data in bench for job " << id;
  }
}

}  // namespace
}  // namespace bonsai
