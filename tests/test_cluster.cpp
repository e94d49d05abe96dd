// Cluster correctness: the SPMD socket driver against the in-process
// Simulation. Workers run as in-process threads speaking the real
// socket protocol (the on_listen seam hands them the coordinator's ephemeral
// port), so these tests exercise the genuine wire path — demux, allgathers,
// peer migration, LET routing — without fixed ports or child processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "domain/cluster.hpp"
#include "domain/simulation.hpp"
#include "util/check.hpp"
#include "util/ic.hpp"

namespace bonsai {
namespace {

using domain::ClusterConfig;
using domain::ClusterSimulation;
using domain::SimConfig;
namespace metrics = bonsai::metrics;
namespace wire = domain::wire;

// Joins the worker threads after the coordinator under test destructs (and
// has therefore posted Shutdown) — declare the pool before the simulation.
struct WorkerPool {
  std::vector<std::thread> threads;
  ~WorkerPool() {
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
};

ClusterConfig cluster_config(const SimConfig& sim, WorkerPool& pool,
                             domain::SocketTopology topology = domain::SocketTopology::kStar) {
  ClusterConfig cfg;
  cfg.sim = sim;
  cfg.topology = topology;
  cfg.spawn_workers = false;
  const int nranks = sim.nranks;
  cfg.on_listen = [&pool, nranks, topology](std::uint16_t port) {
    for (int r = 0; r < nranks; ++r)
      pool.threads.emplace_back([port, r, topology] {
        try {
          domain::run_worker("127.0.0.1", port, r, /*threads=*/1, topology,
                             /*listen_port=*/0);
        } catch (...) {
          // Teardown races surface as socket errors inside the worker; the
          // coordinator-side assertions are the test.
        }
      });
  };
  return cfg;
}

SimConfig forces_only_config(int nranks) {
  SimConfig cfg;
  cfg.nranks = nranks;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.dt = 0.0;
  return cfg;
}

// Bitwise equality of two gathered (id-sorted) particle sets: positions and
// forces. Every rank walks its own tree and the imported LETs in a fixed
// order on either transport, so the bits match, not just the physics.
void expect_same_particles(const ParticleSet& got, const ParticleSet& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got.id[i], ref.id[i]);
    EXPECT_EQ(got.x[i], ref.x[i]) << "particle " << i;
    EXPECT_EQ(got.y[i], ref.y[i]) << "particle " << i;
    EXPECT_EQ(got.z[i], ref.z[i]) << "particle " << i;
    EXPECT_EQ(got.ax[i], ref.ax[i]) << "particle " << i;
    EXPECT_EQ(got.ay[i], ref.ay[i]) << "particle " << i;
    EXPECT_EQ(got.az[i], ref.az[i]) << "particle " << i;
    EXPECT_EQ(got.pot[i], ref.pot[i]) << "particle " << i;
  }
}

// Sum over peers of the report's `base`{src,dst,type} counter cells of one
// frame type.
std::uint64_t matrix_sum(const domain::StepReport& rep, const std::string& base,
                         wire::FrameType type) {
  double sum = 0.0;
  for (const auto& [name, value] : rep.metrics.counters)
    if (name.rfind(base + "{", 0) == 0 &&
        metrics::label_value(name, "type") == wire::frame_type_name(type))
      sum += value;
  return static_cast<std::uint64_t>(sum);
}

std::uint64_t traffic_bytes(const domain::StepReport& rep, wire::FrameType type) {
  return matrix_sum(rep, "transport.post.bytes", type);
}

std::uint64_t traffic_frames(const domain::StepReport& rep, wire::FrameType type) {
  return matrix_sum(rep, "transport.post.frames", type);
}

std::uint64_t routed_frames(const domain::StepReport& rep, wire::FrameType type) {
  return matrix_sum(rep, "transport.routed.frames", type);
}

// Whether the coordinator forwarded any worker↔worker frame this step.
bool routed_any(const domain::StepReport& rep) {
  return std::any_of(rep.metrics.counters.begin(), rep.metrics.counters.end(),
                     [](const auto& c) { return c.first.rfind("transport.routed.", 0) == 0; });
}

TEST(ClusterSimulation, RejectsInvalidPhysicsConfigBeforeListening) {
  // Neither a NaN softening nor a rank count the wire cannot address may
  // bind a port; on_listen is also what would start the workers.
  struct Bad {
    int nranks;
    double eps;
    const char* reason;
  };
  for (const Bad& bad : {Bad{2, std::numeric_limits<double>::quiet_NaN(), "eps must be finite"},
                         Bad{0, 1e-2, "nranks must be in [1, 255]"},
                         Bad{256, 1e-2, "nranks must be in [1, 255]"}}) {
    ClusterConfig cfg;
    cfg.sim.nranks = bad.nranks;
    cfg.sim.eps = bad.eps;
    cfg.spawn_workers = false;
    bool listened = false;
    cfg.on_listen = [&listened](std::uint16_t) { listened = true; };
    try {
      ClusterSimulation sim(cfg);
      ADD_FAILURE() << bad.reason << ": the cluster started";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(bad.reason), std::string::npos) << e.what();
    }
    EXPECT_FALSE(listened) << bad.reason;
  }
}

TEST(ClusterSpmd, ReproducesInProcDecompositionAndForces) {
  const ParticleSet global = make_plummer(1200, 77);
  const SimConfig cfg = forces_only_config(3);

  domain::Simulation inproc(cfg);
  inproc.init(global);
  const domain::StepReport in_rep = inproc.step();
  const ParticleSet in_got = inproc.gather();

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  const domain::StepReport sp_rep = spmd.step();
  const ParticleSet sp_got = spmd.gather();

  // The distributed sampling must cut the *identical* partition the
  // centralized update computes (same pooled samples, same arithmetic), and
  // the coordinator's cross-check must have accepted it from every worker.
  const auto in_bounds = inproc.decomposition().boundaries();
  const auto sp_bounds = spmd.decomposition().boundaries();
  ASSERT_EQ(in_bounds.size(), sp_bounds.size());
  for (std::size_t i = 0; i < in_bounds.size(); ++i)
    EXPECT_EQ(in_bounds[i], sp_bounds[i]) << "boundary " << i;

  EXPECT_EQ(sp_rep.num_particles, in_rep.num_particles);
  EXPECT_EQ(sp_rep.migrated, in_rep.migrated);
  EXPECT_EQ(sp_rep.let_cells, in_rep.let_cells);
  EXPECT_EQ(sp_rep.let_particles, in_rep.let_particles);

  // Identical decomposition, identical per-rank walks and a fixed remote-LET
  // order: the forces match bit for bit.
  expect_same_particles(sp_got, in_got);

  // Aggregated worker energy partials agree with the in-process sums; the
  // coordinator adds per-worker partials, a different summation order than
  // the in-process total, so these agree to rounding rather than bitwise.
  EXPECT_NEAR(spmd.kinetic_energy(), inproc.kinetic_energy(),
              1e-9 * std::abs(inproc.kinetic_energy()) + 1e-12);
  EXPECT_NEAR(spmd.potential_energy(), inproc.potential_energy(),
              1e-9 * std::abs(inproc.potential_energy()));
}

TEST(ClusterSpmd, SteadyStateMigrationBytesAreSmallFractionOfHub) {
  // A drifting Plummer sphere: after the bootstrap step, the Particles-class
  // wire volume (migration cells plus the particle-free StepBegin/StepResult
  // frames) must stay a small fraction of shipping the whole population,
  // which the coordinator-owned hub mode did every step (over n * 100
  // bytes). Resident workers ship only boundary crossers once warm.
  const std::size_t n = 1000;
  const ParticleSet global = make_plummer(n, 5);
  SimConfig cfg = forces_only_config(2);
  cfg.dt = 1e-3;

  std::vector<domain::StepReport> spmd_reps;
  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  for (int s = 0; s < 3; ++s) spmd_reps.push_back(spmd.step());

  for (int s = 0; s < 3; ++s) EXPECT_EQ(spmd_reps[s].num_particles, n);
  for (int s = 1; s < 3; ++s) {
    EXPECT_LT(spmd_reps[s].metrics.counter("wire.part.bytes"), static_cast<double>(n * 100) / 4)
        << "step " << s;
  }
  // The domain allgathers are the price of decentralization: bounded by
  // samples, not by N.
  for (int s = 0; s < 3; ++s) EXPECT_GT(spmd_reps[s].metrics.counter("wire.dom.frames"), 0.0);
}

TEST(ClusterSpmd, TrafficMatrixCoversTheProtocol) {
  const ParticleSet global = make_plummer(600, 13);
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;
  const std::uint64_t nranks = 3;

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  spmd.step();
  const domain::StepReport rep = spmd.step();  // steady state

  // Every worker posts one Migration frame to each peer and two Boundaries
  // allgather rounds; the coordinator posts one StepBegin per worker and
  // books one StepResult per worker on receive.
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kBoundaries), 2 * nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kKeySamples), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kStepBegin), nranks);
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kStepResult), nranks);
  // No O(N) Particles frames in an SPMD steady-state step.
  EXPECT_EQ(traffic_frames(rep, wire::FrameType::kParticles), 0u);
  // The matrix and the wire summaries account the same LET volume.
  EXPECT_EQ(traffic_bytes(rep, wire::FrameType::kLet), rep.metrics.counter("wire.let.bytes"));
  // Star routing: every peer frame crossed the coordinator — the baseline
  // the mesh topology eliminates (see ClusterSpmdMesh).
  EXPECT_EQ(routed_frames(rep, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(routed_frames(rep, wire::FrameType::kBoundaries), 2 * nranks * (nranks - 1));
  EXPECT_EQ(routed_frames(rep, wire::FrameType::kKeySamples), nranks * (nranks - 1));
  EXPECT_GT(routed_frames(rep, wire::FrameType::kLet), 0u);
  EXPECT_EQ(routed_frames(rep, wire::FrameType::kStepBegin), 0u);  // control is terminated,
  EXPECT_EQ(routed_frames(rep, wire::FrameType::kStepResult), 0u); // not routed
}

TEST(ClusterSpmdMesh, AccountsLikeInProcAsyncRanks) {
  // The coordinator merges the workers' booked Snapshots; the in-process
  // driver merges its lanes'. Same IC, same ranks: every LET-side count, the
  // LET traffic cells, the physics counters and the LET size histogram must
  // come out identical, step after step.
  const ParticleSet global = make_plummer(1200, 41);
  SimConfig cfg = forces_only_config(4);
  cfg.dt = 1e-3;

  domain::Simulation inproc(cfg);
  inproc.init(global);
  WorkerPool pool;
  ClusterSimulation mesh(cluster_config(cfg, pool, domain::SocketTopology::kMesh));
  mesh.init(global);

  const auto must_match = [](const std::string& name) {
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) return false;
    if (name.rfind("wire.let.", 0) == 0 || name.rfind("gravity.", 0) == 0) return true;
    if (name == "step.let_cells" || name == "step.let_particles" || name == "step.migrated")
      return true;
    return name.rfind("transport.post.", 0) == 0 && metrics::label_value(name, "type") == "Let";
  };
  for (int s = 0; s < 3; ++s) {
    const domain::StepReport in_rep = inproc.step();
    const domain::StepReport mesh_rep = mesh.step();
    std::size_t compared = 0;
    for (const auto& [name, value] : in_rep.metrics.counters) {
      if (!must_match(name)) continue;
      ++compared;
      EXPECT_EQ(mesh_rep.metrics.counter(name), value) << name << " step " << s;
    }
    for (const auto& [name, value] : mesh_rep.metrics.counters) {
      if (!must_match(name)) continue;
      EXPECT_TRUE(in_rep.metrics.counters.count(name)) << name << " step " << s;
    }
    // wire.let.{frames,bytes}, frames+bytes of 12 directed LET pairs, four
    // gravity.* rows and three step.* rows.
    EXPECT_EQ(compared, 2u + 24u + 4u + 3u) << "step " << s;
    const auto& in_hist = in_rep.metrics.histograms.at("let.size.bytes");
    const auto& mesh_hist = mesh_rep.metrics.histograms.at("let.size.bytes");
    EXPECT_EQ(mesh_hist.bounds, in_hist.bounds);
    EXPECT_EQ(mesh_hist.counts, in_hist.counts) << "step " << s;
    EXPECT_EQ(mesh_hist.count, in_hist.count);
    EXPECT_EQ(mesh_hist.sum, in_hist.sum);
  }
}

TEST(ClusterSpmd, MultiStepDriftPreservesPopulationAndForces) {
  const std::size_t n = 800;
  const ParticleSet global = make_plummer(n, 29);
  SimConfig cfg = forces_only_config(2);
  cfg.dt = 2e-3;

  WorkerPool pool;
  ClusterSimulation spmd(cluster_config(cfg, pool));
  spmd.init(global);
  std::uint64_t migrated_total = 0;
  for (int s = 0; s < 4; ++s) {
    const domain::StepReport rep = spmd.step();
    EXPECT_EQ(rep.num_particles, n);
    migrated_total += rep.migrated;
  }
  EXPECT_EQ(spmd.num_particles(), n);

  const ParticleSet got = spmd.gather();
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.id[i], i);  // ids unique and complete after migrations
    ASSERT_TRUE(std::isfinite(got.ax[i]) && std::isfinite(got.ay[i]) &&
                std::isfinite(got.az[i]) && std::isfinite(got.pot[i]));
  }
  (void)migrated_total;  // any value is legal; population checks are the bar
}

TEST(ClusterSpmdMesh, ReproducesInProcForcesWithNothingRoutedThroughCoordinator) {
  // The mesh tentpole: same physics as the star (and therefore as the
  // in-process run), with the coordinator's routed-frame matrix empty — all
  // LET/Boundaries/KeySamples/Migration traffic travels the pair sockets.
  const ParticleSet global = make_plummer(900, 77);
  SimConfig cfg = forces_only_config(3);
  cfg.dt = 1e-3;

  domain::Simulation inproc(cfg);
  inproc.init(global);
  inproc.step();
  const domain::StepReport in_rep2 = inproc.step();
  const ParticleSet in_got = inproc.gather();

  WorkerPool pool;
  ClusterSimulation mesh(cluster_config(cfg, pool, domain::SocketTopology::kMesh));
  mesh.init(global);
  const domain::StepReport rep1 = mesh.step();
  const domain::StepReport rep2 = mesh.step();  // steady state
  const ParticleSet mesh_got = mesh.gather();

  expect_same_particles(mesh_got, in_got);
  EXPECT_EQ(rep2.num_particles, in_rep2.num_particles);
  EXPECT_EQ(rep2.migrated, in_rep2.migrated);

  // The send-side matrix still covers the full peer protocol...
  const std::uint64_t nranks = 3;
  EXPECT_EQ(traffic_frames(rep2, wire::FrameType::kMigration), nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep2, wire::FrameType::kBoundaries),
            2 * nranks * (nranks - 1));
  EXPECT_EQ(traffic_frames(rep2, wire::FrameType::kKeySamples), nranks * (nranks - 1));
  // ...but none of it crossed the coordinator: zero routed frames of any
  // class, both on the bootstrap step and in steady state.
  EXPECT_FALSE(routed_any(rep1));
  EXPECT_FALSE(routed_any(rep2));
}

TEST(ClusterShutdown, DeadWorkerDoesNotStrandTheOthers) {
  // Shutdown-broadcast race: rank 0 connects, says hello, then drops dead
  // before serving a single frame. The coordinator's teardown must still
  // deliver Shutdown to ranks 1 and 2 — best-effort per peer — so they exit
  // cleanly instead of blocking forever on a control frame that a mid-loop
  // broadcast failure would have skipped.
  SimConfig cfg = forces_only_config(3);
  WorkerPool pool;
  std::array<std::atomic<int>, 3> exit_codes{};
  for (auto& c : exit_codes) c.store(-2);

  ClusterConfig ccfg;
  ccfg.sim = cfg;
  ccfg.spawn_workers = false;
  ccfg.on_listen = [&pool, &exit_codes](std::uint16_t port) {
    pool.threads.emplace_back([port, &exit_codes] {
      // The defector: announces rank 0, takes its Config, then drops dead
      // without ever serving a step or waiting for Shutdown.
      try {
        auto net = domain::SocketTransport::connect("127.0.0.1", port, 0);
        (void)net->recv(0);
        exit_codes[0].store(0);
      } catch (...) {
        exit_codes[0].store(1);
      }
    });
    for (int r = 1; r < 3; ++r)
      pool.threads.emplace_back([port, r, &exit_codes] {
        try {
          exit_codes[static_cast<std::size_t>(r)].store(
              domain::run_worker("127.0.0.1", port, r, /*threads=*/1));
        } catch (...) {
          exit_codes[static_cast<std::size_t>(r)].store(1);
        }
      });
  };

  {
    ClusterSimulation sim(ccfg);
    // No step: construction (config broadcast) then teardown, with rank 0
    // already gone. The destructor must neither throw nor hang.
  }
  for (std::thread& t : pool.threads) t.join();
  EXPECT_EQ(exit_codes[1].load(), 0) << "rank 1 did not see Shutdown";
  EXPECT_EQ(exit_codes[2].load(), 0) << "rank 2 did not see Shutdown";
}

}  // namespace
}  // namespace bonsai
