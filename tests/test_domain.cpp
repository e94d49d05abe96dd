// Domain decomposition, particle exchange, and Local Essential Tree
// correctness: the multi-rank pipeline must preserve the particle set
// bit-for-bit across exchanges and reproduce single-tree forces within the
// group-MAC error envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domain/channel.hpp"
#include "domain/decomposition.hpp"
#include "domain/executor.hpp"
#include "domain/let.hpp"
#include "domain/simulation.hpp"
#include "domain/transport.hpp"
#include "tree/direct.hpp"
#include "tree/octree.hpp"
#include "tree/traverse.hpp"
#include "util/check.hpp"
#include "util/compare.hpp"
#include "util/ic.hpp"
#include "util/stats.hpp"

namespace bonsai {
namespace {

namespace metrics = bonsai::metrics;
using domain::Decomposition;
using domain::LetTree;
using domain::SimConfig;
using domain::Simulation;

// Reference forces from the single global tree's group walk, returned in
// particle-id order so they align with Simulation::gather().
ParticleSet global_tree_forces(const ParticleSet& global, double theta, double eps,
                               int nleaf = Octree::kDefaultNLeaf, int ncrit = 64,
                               KernelBackend backend = KernelBackend::kScalar) {
  ParticleSet ref = global;
  sfc::KeySpace space(ref.bounds());
  sort_by_keys(ref, space);
  Octree tree;
  tree.build(ref, nleaf);
  tree.compute_properties(ref, theta);
  auto groups = make_groups(ref, ncrit);
  TraversalConfig cfg;
  cfg.theta = theta;
  cfg.eps = eps;
  cfg.ncrit = ncrit;
  ref.zero_forces();
  cfg.backend = backend;
  InteractionQueue queue;
  traverse_groups_batched(tree.view(ref), ref, groups, cfg, /*self=*/true, queue);

  std::vector<std::uint32_t> perm(ref.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](std::uint32_t a, std::uint32_t b) { return ref.id[a] < ref.id[b]; });
  ref.apply_permutation(perm);
  return ref;
}

TEST(Decomposition, UniformCoversKeySpace) {
  const Decomposition d = Decomposition::uniform(7);
  ASSERT_EQ(d.num_ranks(), 7);
  EXPECT_EQ(d.begin_key(0), 0u);
  EXPECT_EQ(d.end_key(6), sfc::kKeyEnd);
  for (int r = 0; r + 1 < 7; ++r) EXPECT_EQ(d.end_key(r), d.begin_key(r + 1));
  EXPECT_EQ(d.rank_of(0), 0);
  EXPECT_EQ(d.rank_of(sfc::kKeyEnd - 1), 6);
}

TEST(Decomposition, RankOfRespectsBoundaries) {
  const sfc::Key b1 = sfc::kKeyEnd / 4, b2 = sfc::kKeyEnd / 2;
  const Decomposition d = Decomposition::from_boundaries({0, b1, b2, sfc::kKeyEnd});
  EXPECT_EQ(d.rank_of(0), 0);
  EXPECT_EQ(d.rank_of(b1 - 1), 0);
  EXPECT_EQ(d.rank_of(b1), 1);  // boundary key belongs to the upper rank
  EXPECT_EQ(d.rank_of(b2 - 1), 1);
  EXPECT_EQ(d.rank_of(b2), 2);
  EXPECT_EQ(d.rank_of(sfc::kKeyEnd - 1), 2);
}

TEST(Decomposition, SampledBoundariesBalanceClusteredSet) {
  const ParticleSet parts = make_plummer(4096, 101);
  sfc::KeySpace space(parts.bounds());
  const int nranks = 8;
  const auto samples = domain::sample_keys(parts, space, /*stride=*/1);
  const Decomposition d = Decomposition::from_samples(samples, nranks);

  std::vector<std::size_t> counts(nranks, 0);
  for (std::size_t i = 0; i < parts.size(); ++i)
    ++counts[static_cast<std::size_t>(d.rank_of(space.key(parts.pos(i))))];
  const double mean = static_cast<double>(parts.size()) / nranks;
  for (int r = 0; r < nranks; ++r) {
    EXPECT_GT(static_cast<double>(counts[r]), 0.5 * mean) << "rank " << r;
    EXPECT_LT(static_cast<double>(counts[r]), 1.5 * mean) << "rank " << r;
  }
}

TEST(Decomposition, EmptySamplesFallBackToUniform) {
  const Decomposition d = Decomposition::from_samples({}, 4);
  const Decomposition u = Decomposition::uniform(4);
  ASSERT_EQ(d.num_ranks(), 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(d.begin_key(r), u.begin_key(r));
}

TEST(Exchange, OwnershipAndBitForBitConservation) {
  const std::size_t n = 2000;
  const int nranks = 5;
  const ParticleSet global = make_plummer(n, 17);

  // Scatter round-robin (deliberately wrong owners), then exchange.
  std::vector<ParticleSet> sets(nranks);
  for (std::size_t i = 0; i < n; ++i) sets[i % nranks].add(global.get(i));
  sfc::KeySpace space(global.bounds());
  std::vector<sfc::Key> samples;
  for (const auto& s : sets) {
    const auto sk = domain::sample_keys(s, space, /*stride=*/1);
    samples.insert(samples.end(), sk.begin(), sk.end());
  }
  const Decomposition d = Decomposition::from_samples(samples, nranks);
  const auto stats = domain::exchange(sets, space, d);
  EXPECT_EQ(stats.total, n);
  EXPECT_GT(stats.migrated, 0u);

  // Every particle owned by exactly one rank, and by the right one.
  std::vector<int> seen(n, 0);
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < sets[r].size(); ++i) {
      const auto id = sets[r].id[i];
      ASSERT_LT(id, n);
      ++seen[static_cast<std::size_t>(id)];
      EXPECT_EQ(sets[r].key[i], space.key(sets[r].pos(i)));
      EXPECT_EQ(d.rank_of(sets[r].key[i]), r);
    }
  }
  for (std::size_t id = 0; id < n; ++id) EXPECT_EQ(seen[id], 1) << "id " << id;

  // Bit-for-bit state preservation: reassemble by id and compare exactly.
  ParticleSet by_id(n);
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < sets[r].size(); ++i) {
      const Particle p = sets[r].get(i);
      by_id.set_pos(p.id, p.pos);
      by_id.set_vel(p.id, p.vel);
      by_id.mass[p.id] = p.mass;
    }
  }
  double mass_before = 0.0, mass_after = 0.0;
  Vec3d mom_before{}, mom_after{};
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(by_id.pos(i), global.pos(i));
    EXPECT_EQ(by_id.vel(i), global.vel(i));
    EXPECT_EQ(by_id.mass[i], global.mass[i]);
    mass_before += global.mass[i];
    mass_after += by_id.mass[i];
    mom_before += global.mass[i] * global.vel(i);
    mom_after += by_id.mass[i] * by_id.vel(i);
  }
  EXPECT_EQ(mass_before, mass_after);  // identical summands, identical order
  EXPECT_EQ(mom_before, mom_after);
}

TEST(Exchange, ResidentPathMatchesCentralizedExchangeBitForBit) {
  // The SPMD alltoallv cell must reproduce the centralized exchange()
  // exactly: same per-rank populations, same ordering, same keys. Run all
  // ranks' resident exchanges concurrently over one transport (posts are
  // nonblocking, receives block on peers — exactly the worker topology).
  const std::size_t n = 1500;
  const int nranks = 4;
  const ParticleSet global = make_plummer(n, 53);
  std::vector<ParticleSet> central(nranks), resident(nranks);
  for (std::size_t i = 0; i < n; ++i) {
    central[i % nranks].add(global.get(i));
    resident[i % nranks].add(global.get(i));
  }
  sfc::KeySpace space(global.bounds());
  std::vector<sfc::Key> samples;
  for (const auto& s : central) {
    const auto sk = domain::sample_keys(s, space, /*stride=*/3);
    samples.insert(samples.end(), sk.begin(), sk.end());
  }
  const Decomposition d = Decomposition::from_samples(samples, nranks);

  const domain::ExchangeStats central_stats = domain::exchange(central, space, d);

  domain::InProcTransport transport(nranks);
  domain::MigrationExchange mex(transport, nranks);
  std::vector<domain::ExchangeStats> stats(nranks);
  std::vector<std::thread> ranks;
  for (int r = 0; r < nranks; ++r)
    ranks.emplace_back([&, r] {
      stats[static_cast<std::size_t>(r)] = domain::exchange_resident(
          resident[static_cast<std::size_t>(r)], r, space, d, mex, /*step=*/7);
    });
  for (std::thread& t : ranks) t.join();

  std::uint64_t migrated = 0, total = 0;
  for (int r = 0; r < nranks; ++r) {
    migrated += stats[static_cast<std::size_t>(r)].migrated;
    total += stats[static_cast<std::size_t>(r)].total;
    ASSERT_EQ(resident[r].size(), central[r].size()) << "rank " << r;
    EXPECT_EQ(resident[r].x, central[r].x);  // bit-for-bit, order included
    EXPECT_EQ(resident[r].vz, central[r].vz);
    EXPECT_EQ(resident[r].mass, central[r].mass);
    EXPECT_EQ(resident[r].id, central[r].id);
    EXPECT_EQ(resident[r].key, central[r].key);
  }
  EXPECT_EQ(migrated, central_stats.migrated);
  EXPECT_EQ(total, central_stats.total);
}

TEST(Exchange, RankLanesMatchTheSerialExchangeBitForBit) {
  // The exchange's per-rank passes run concurrently on the rank lanes; the
  // populations, their order and every key must equal the one-rank-at-a-
  // time run, and each rank books its own exchange rows.
  const std::size_t n = 3000;
  const int nranks = 4;
  const ParticleSet global = make_plummer(n, 59);
  std::vector<ParticleSet> serial(nranks);
  for (std::size_t i = 0; i < n; ++i) serial[i % nranks].add(global.get(i));
  sfc::KeySpace space(global.bounds());
  const Decomposition d =
      Decomposition::from_samples(domain::sample_keys(global, space, 2), nranks);

  // Settle the owners, then drift so that the exchange under test both
  // moves a few boundary crossers and keeps most particles in place.
  domain::exchange(serial, space, d);
  for (ParticleSet& s : serial)
    for (std::size_t i = 0; i < s.size(); ++i) s.x[i] += 0.05 * s.vx[i];
  std::vector<ParticleSet> laned = serial;

  domain::InProcTransport t1(nranks), t2(nranks);
  metrics::Snapshot booked_serial, booked_laned;
  const domain::ExchangeStats a = domain::exchange(serial, space, d, t1, &booked_serial);
  domain::Executor lanes(nranks);
  std::vector<TimeBreakdown> rank_times(nranks);
  const domain::ExchangeStats b =
      domain::exchange(laned, space, d, t2, &booked_laned, &lanes, rank_times);
  EXPECT_GT(a.migrated, 0u);
  EXPECT_EQ(a.migrated, b.migrated);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(booked_serial.counter("wire.part.bytes"), booked_laned.counter("wire.part.bytes"));
  for (int r = 0; r < nranks; ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(laned[r].x, serial[r].x);
    EXPECT_EQ(laned[r].vy, serial[r].vy);
    EXPECT_EQ(laned[r].mass, serial[r].mass);
    EXPECT_EQ(laned[r].id, serial[r].id);
    EXPECT_EQ(laned[r].key, serial[r].key);
    EXPECT_EQ(laned[r].ax, std::vector<double>(laned[r].size(), 0.0));
    EXPECT_EQ(laned[r].pot, std::vector<double>(laned[r].size(), 0.0));
    EXPECT_GT(rank_times[r].get("Exchange particles"), 0.0);
    EXPECT_GT(rank_times[r].get("Wire encode"), 0.0);
    EXPECT_GT(rank_times[r].get("Wire decode"), 0.0);
  }
}

TEST(Simulation, LaneTimelineCountsLetCodecSeconds) {
  // The schedule model must see all a lane spends on LETs: each export
  // entry is the extraction plus the encode of its post, each remote entry
  // the decode plus the walk, so the timeline sums to the lane's rows.
  SimConfig cfg;
  cfg.nranks = 2;
  cfg.dt = 0.0;
  const ParticleSet global = make_plummer(3000, 61);
  const sfc::KeySpace space(global.bounds());
  std::vector<ParticleSet> sets(2);
  for (std::size_t i = 0; i < global.size(); ++i) sets[i % 2].add(global.get(i));
  const Decomposition d =
      Decomposition::from_samples(domain::sample_keys(global, space, 1), 2);
  domain::exchange(sets, space, d);  // keys every particle, as a step does

  std::vector<std::unique_ptr<domain::Rank>> ranks;
  std::vector<std::uint8_t> active{1, 1};
  std::vector<AABB> boxes(2);
  for (int r = 0; r < 2; ++r) {
    ranks.push_back(std::make_unique<domain::Rank>(r, 1));
    ranks[r]->parts() = sets[r];
    boxes[r] = sets[r].bounds();
  }
  domain::InProcTransport transport(2);
  domain::LetExchange net(transport, active);
  std::vector<TimeBreakdown> times(2);
  std::vector<domain::LaneTimeline> lanes(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&, r] {
      ranks[r]->build(space, cfg, times[r]);
      std::size_t next_peer = 1;
      domain::run_rank_step(*ranks[r], cfg, net, active, boxes, times[r], &lanes[r],
                            next_peer);
    });
  for (std::thread& t : threads) t.join();

  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE(r);
    ASSERT_EQ(lanes[r].exports.size(), 1u);
    ASSERT_EQ(lanes[r].remotes.size(), 1u);
    EXPECT_GT(times[r].get("Wire encode"), 0.0);
    EXPECT_GT(times[r].get("Wire decode"), 0.0);
    double exports = 0.0, remotes = 0.0;
    for (const auto& [peer, secs] : lanes[r].exports) exports += secs;
    for (const auto& [peer, secs] : lanes[r].remotes) remotes += secs;
    EXPECT_NEAR(exports, times[r].get("Exchange LET") + times[r].get("Wire encode"), 1e-12);
    EXPECT_NEAR(remotes, times[r].get("Gravity remote") + times[r].get("Wire decode"), 1e-12);
  }
}

TEST(Simulation, TrafficMatrixMatchesWireSummaries) {
  SimConfig cfg;
  cfg.nranks = 3;
  cfg.theta = 0.4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(make_plummer(900, 37));
  const domain::StepReport rep = sim.step();

  const metrics::Snapshot& m = rep.metrics;
  double let_bytes = 0, let_frames = 0, part_bytes = 0;
  std::size_t cells = 0;
  for (const auto& [name, value] : m.counters) {
    const bool is_frames = name.rfind("transport.post.frames{", 0) == 0;
    if (!is_frames && name.rfind("transport.post.bytes{", 0) != 0) continue;
    ++cells;
    EXPECT_GT(value, 0.0) << name;
    const std::string type = metrics::label_value(name, "type");
    if (type == "Let") {
      (is_frames ? let_frames : let_bytes) += value;
      // no self-LETs
      EXPECT_NE(metrics::label_value(name, "src"), metrics::label_value(name, "dst"));
    } else if (type == "Particles") {
      if (!is_frames) part_bytes += value;
    } else {
      ADD_FAILURE() << "unexpected in-process frame type " << type;
    }
  }
  ASSERT_GT(cells, 0u);
  // Send-side accounting: the recorder's matrix and the codec's wire rows are
  // two views of the same posts, so their totals must agree exactly.
  EXPECT_EQ(let_bytes, m.counter("wire.let.bytes"));
  EXPECT_EQ(let_frames, m.counter("wire.let.frames"));
  EXPECT_EQ(part_bytes, m.counter("wire.part.bytes"));
}

TEST(Let, DistantDomainPrunesToSingleMultipole) {
  ParticleSet sources = make_plummer(2000, 29);
  sfc::KeySpace space(sources.bounds());
  sort_by_keys(sources, space);
  Octree tree;
  tree.build(sources);
  tree.compute_properties(sources, 0.4);

  const AABB far{{100, 100, 100}, {101, 101, 101}};
  const LetTree let = domain::build_let(tree.view(sources), far);
  ASSERT_EQ(let.num_cells(), 1u);
  EXPECT_EQ(let.nodes[0].kind, NodeKind::kMultipoleLeaf);
  EXPECT_EQ(let.num_particles(), 0u);
  EXPECT_FALSE(let.empty());  // a bare multipole still exerts force

  // Walked directly, as a rank walks each import, the single multipole
  // reproduces the far field.
  ParticleSet targets;
  Xoshiro256 rng(33);
  for (int i = 0; i < 100; ++i)
    targets.add({Vec3d{100.5, 100.5, 100.5} + rng.unit_sphere() * 0.4, {0, 0, 0}, 1.0,
                 static_cast<std::uint64_t>(i)});
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.backend = KernelBackend::kScalar;
  InteractionQueue queue;
  traverse_groups_batched(let.view(), targets, groups, cfg, /*self=*/false, queue);

  ParticleSet ref = targets;
  ref.zero_forces();
  direct_forces_between(sources, ref, 0.0);
  EXPECT_LT(median_acc_error(targets, ref), 1e-3);
}

TEST(Let, NearbyDomainExportIsCompressedAndAccurate) {
  // Left cloud vs the bounds of the x > 2 tail: close enough that boundary
  // leaves must ship particles, far enough that interior branches prune.
  const ParticleSet global = make_plummer(4000, 31);
  ParticleSet left, right;
  for (std::size_t i = 0; i < global.size(); ++i) {
    if (global.x[i] < 0.0) left.add(global.get(i));
    if (global.x[i] > 2.0) right.add(global.get(i));
  }
  ASSERT_GT(left.size(), 100u);
  ASSERT_GT(right.size(), 100u);

  sfc::KeySpace space(global.bounds());
  sort_by_keys(left, space);
  Octree tree;
  tree.build(left);
  tree.compute_properties(left, 0.4);

  const LetTree let = domain::build_let(tree.view(left), right.bounds());
  // The essential tree must be a strict compression of the full local tree.
  EXPECT_LT(let.num_particles(), left.size());
  EXPECT_LT(let.num_cells(), tree.nodes().size());

  right.zero_forces();
  auto groups = make_groups(right, 64);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.backend = KernelBackend::kScalar;
  InteractionQueue queue;
  traverse_groups_batched(let.view(), right, groups, cfg, /*self=*/false, queue);

  ParticleSet ref = right;
  ref.zero_forces();
  direct_forces_between(left, ref, cfg.eps);
  EXPECT_LT(median_acc_error(right, ref), 1e-3);
}

// One rank must reproduce the global batched group walk (same kernel backend
// as the Simulation default) bit-for-bit: no LETs exist, so the pipeline adds
// only the executor lane around the same stage calls. Batches drain in group
// walk order regardless of which pool thread runs the group, so the serial
// reference walk is bitwise comparable.
TEST(OneRankExactness, MatchesGlobalGroupWalkExactly) {
  const ParticleSet global = make_plummer(1500, 23);
  SimConfig cfg;
  cfg.nranks = 1;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(global);
  const domain::StepReport rep = sim.step();
  EXPECT_EQ(rep.let_cells, 0u);  // nothing to exchange with yourself
  const ParticleSet got = sim.gather();

  const ParticleSet ref = global_tree_forces(global, cfg.theta, cfg.eps,
                                             Octree::kDefaultNLeaf, 64, cfg.kernel);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got.id[i], ref.id[i]);
    EXPECT_DOUBLE_EQ(got.ax[i], ref.ax[i]);
    EXPECT_DOUBLE_EQ(got.ay[i], ref.ay[i]);
    EXPECT_DOUBLE_EQ(got.az[i], ref.az[i]);
    EXPECT_DOUBLE_EQ(got.pot[i], ref.pot[i]);
  }
}

TEST(Simulation, MultiRankForcesMatchSingleTreeAndDirect) {
  const ParticleSet global = make_plummer(3000, 19);
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(global);
  const domain::StepReport rep = sim.step();
  EXPECT_EQ(rep.num_particles, global.size());
  EXPECT_GT(rep.let_cells, 0u);
  const ParticleSet got = sim.gather();
  ASSERT_EQ(got.size(), global.size());

  // Against the single global tree's group walk: only the group-MAC error of
  // differing group/boundary cuts remains.
  const ParticleSet tree_ref = global_tree_forces(global, cfg.theta, cfg.eps);
  EXPECT_LT(median_acc_error(got, tree_ref), 5e-4);

  // Against direct summation: the same theta envelope the single-device
  // traversal tests enforce (theta = 0.4 -> 2e-4 median).
  ParticleSet direct_ref = global;
  direct_forces(direct_ref, cfg.eps);
  EXPECT_LT(median_acc_error(got, direct_ref), 2e-4);
}

TEST(Simulation, DegenerateDistributionLeavesRanksEmpty) {
  // Particles at only three distinct positions: most of the eight ranks end
  // up empty, and the pipeline must still produce direct-sum forces.
  ParticleSet global;
  const Vec3d sites[3] = {{0, 0, 0}, {1, 0, 0}, {0.4, 0.7, 0.2}};
  for (std::size_t i = 0; i < 99; ++i)
    global.add({sites[i % 3], {0, 0, 0}, 0.01, i});

  SimConfig cfg;
  cfg.nranks = 8;
  cfg.theta = 0.4;
  cfg.eps = 0.1;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(global);
  sim.step();

  int empty_ranks = 0;
  for (int r = 0; r < cfg.nranks; ++r)
    if (sim.rank(r).parts().empty()) ++empty_ranks;
  EXPECT_GT(empty_ranks, 0);

  const ParticleSet got = sim.gather();
  ParticleSet ref = global;
  direct_forces(ref, cfg.eps);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(norm(got.acc(i) - ref.acc(i)), 0.0, 1e-6 * std::max(1.0, norm(ref.acc(i))));
}

TEST(Simulation, StepMeasuresWalkAndDrainSplit) {
  // Every step books the measured gravity split: device-seconds of tree
  // walk + staging and of batch drains, each positive, neither more than
  // the gravity stages' summed device time, and printed on the interactions
  // line.
  SimConfig cfg;
  cfg.nranks = 2;
  Simulation sim(cfg);
  sim.init(make_plummer(4096, 71));
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport rep = sim.step();
    const double walk = rep.metrics.counter("gravity.walk_s");
    const double drain = rep.metrics.counter("gravity.drain_s");
    EXPECT_GT(walk, 0.0);
    EXPECT_GT(drain, 0.0);
    const double pool_threads = static_cast<double>(sim.rank(0).device().num_threads());
    const double gravity =
        rep.sum_times.get("Gravity local") + rep.sum_times.get("Gravity remote");
    EXPECT_LE(walk + drain, gravity * pool_threads * 1.01 + 1e-3);
    std::ostringstream os;
    print_step_report(rep, os);
    EXPECT_NE(os.str().find(" ms (device)"), std::string::npos);
  }
}

TEST(Simulation, AsyncStepReportsScheduleModel) {
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(make_plummer(2000, 3));
  const domain::StepReport rep = sim.step();

  ASSERT_TRUE(rep.has_lane_model());
  EXPECT_GT(rep.critical_path, 0.0);
  EXPECT_GT(rep.sequential_model, 0.0);
  // Pipelining removes barrier wait but never adds work, so the modeled
  // critical path can never exceed the lockstep stage-sum (see schedule.hpp).
  EXPECT_LE(rep.critical_path, rep.sequential_model * (1.0 + 1e-9));
  EXPECT_LE(rep.gravity_critical, rep.gravity_sequential * (1.0 + 1e-9));
  EXPECT_GE(rep.overlap_efficiency(), 1.0);
  const metrics::Snapshot m = build_step_metrics(rep);
  EXPECT_EQ(m.gauges.at("schedule.critical_path_s"), rep.critical_path);
  std::ostringstream os;
  print_step_report(rep, os);
  EXPECT_NE(os.str().find("pipeline: critical path"), std::string::npos);

  // A report without a lane model (the cluster coordinator's) prints and
  // books no schedule.
  domain::StepReport bare;
  EXPECT_FALSE(bare.has_lane_model());
  EXPECT_EQ(build_step_metrics(bare).gauges.count("schedule.critical_path_s"), 0u);
}

TEST(Simulation, AsyncLaneFailurePropagatesInsteadOfHanging) {
  // ncrit = 0 makes make_groups throw inside every lane's build stage. The
  // driver must surface the error: lanes that fail still owe their LETs to
  // peers blocked in recv(), so without the failure path this test hangs
  // (and trips the ctest timeout) instead of throwing.
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.ncrit = 0;
  cfg.dt = 0.0;
  Simulation sim(cfg);
  sim.init(make_plummer(200, 9));
  EXPECT_THROW(sim.step(), std::exception);
}

TEST(Simulation, RejectsInvalidPhysicsConfigNamingTheField) {
  // A NaN or negative softening, a non-finite step, a non-positive opening
  // angle or a rank count the wire cannot address must fail at construction
  // with the field's name, not run to NaN energies (or, for eps < 0,
  // silently as |eps|).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto reason = [](const SimConfig& cfg) -> std::string {
    try {
      Simulation sim(cfg);
    } catch (const CheckError& e) {
      return e.what();
    }
    return {};
  };
  SimConfig ok;
  ok.nranks = 2;
  EXPECT_EQ(reason(ok), "");
  SimConfig edge = ok;
  edge.nranks = 255;
  edge.eps = 0.0;
  edge.dt = -1e-3;
  EXPECT_EQ(domain::physics_config_error(edge), "");  // 255 ranks, eps 0, dt < 0 run
  struct Bad {
    int nranks;
    double theta, eps, dt;
    const char* field;
  };
  for (const Bad& bad :
       {Bad{0, 0.4, 1e-2, 1e-3, "nranks"}, Bad{256, 0.4, 1e-2, 1e-3, "nranks"},
        Bad{2, nan, 1e-2, 1e-3, "theta"}, Bad{2, 0.0, 1e-2, 1e-3, "theta"},
        Bad{2, -inf, 1e-2, 1e-3, "theta"}, Bad{2, 0.4, nan, 1e-3, "eps"},
        Bad{2, 0.4, -1.0, 1e-3, "eps"}, Bad{2, 0.4, 1e-2, nan, "dt"},
        Bad{2, 0.4, 1e-2, inf, "dt"}}) {
    SimConfig cfg = ok;
    cfg.nranks = bad.nranks;
    cfg.theta = bad.theta;
    cfg.eps = bad.eps;
    cfg.dt = bad.dt;
    EXPECT_NE(reason(cfg).find(std::string("— ") + bad.field + " must be"), std::string::npos)
        << bad.field << ": " << reason(cfg);
  }
  SimConfig wide = ok;
  wide.nranks = 256;
  EXPECT_NE(reason(wide).find("addresses ranks in one byte"), std::string::npos)
      << reason(wide);

  // The removed lockstep schedule is refused by name, not run as async.
  SimConfig lockstep = ok;
  lockstep.async = false;
  EXPECT_NE(reason(lockstep).find("the lockstep schedule was removed"), std::string::npos)
      << reason(lockstep);
}

TEST(Simulation, ZeroParticlesUnderAsyncPath) {
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(ParticleSet{});
  for (int s = 0; s < 2; ++s) {
    const domain::StepReport rep = sim.step();
    EXPECT_EQ(rep.num_particles, 0u);
    EXPECT_EQ(rep.let_cells, 0u);
    std::ostringstream os;
    print_step_report(rep, os);  // no divisions by zero, no NaNs
    EXPECT_NE(os.str().find("n=0"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
  }
  EXPECT_EQ(sim.gather().size(), 0u);
  EXPECT_EQ(sim.kinetic_energy(), 0.0);
}

TEST(Simulation, BenchJsonIsWellFormed) {
  SimConfig cfg;
  cfg.nranks = 2;
  cfg.theta = 0.4;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(make_plummer(500, 11));
  std::vector<domain::StepReport> reports;
  reports.push_back(sim.step());
  reports.push_back(sim.step());
  domain::RunInfo info;
  info.ranks = cfg.nranks;
  info.num_particles = 500;
  info.theta = cfg.theta;
  std::ostringstream os;
  write_step_report_json(info, reports, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the object
  EXPECT_NE(json.find("\"schema\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"config\": {\"ranks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"transport\": \"inproc\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_version\": "), std::string::npos);
  EXPECT_NE(json.find("\"steps\": ["), std::string::npos);
  EXPECT_NE(json.find("\"step\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"step\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"overlap_efficiency\""), std::string::npos);
  EXPECT_NE(json.find("\"Gravity local\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"wire.let.bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"let.size.bytes\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  // The accounting lives in the metrics block alone: no legacy blocks.
  for (const char* legacy : {"\"wire\":", "\"traffic\":", "\"routed\":", "\"let_size_bytes\":",
                             "\"async\":", "\"cluster\":"})
    EXPECT_EQ(json.find(legacy), std::string::npos) << legacy;
  // One "elapsed_s": per step — the key per-step trajectory tooling counts.
  std::size_t elapsed_keys = 0;
  for (std::size_t at = json.find("\"elapsed_s\": "); at != std::string::npos;
       at = json.find("\"elapsed_s\": ", at + 1))
    ++elapsed_keys;
  EXPECT_EQ(elapsed_keys, reports.size());
}

TEST(Decomposition, WeightedSamplesShiftBoundariesTowardCheapRegions) {
  // 1000 uniform keys; the lower half carries 3x the cost per sample. With
  // two ranks the equal-weight cut lands where cumulative weight reaches
  // half of 3*500 + 500 = 2000, i.e. sample ~333 — well below the midpoint.
  std::vector<Decomposition::WeightedKey> samples;
  const sfc::Key span = sfc::kKeyEnd / 1000;
  for (int i = 0; i < 1000; ++i)
    samples.push_back({span * static_cast<sfc::Key>(i), i < 500 ? 3.0 : 1.0});
  const Decomposition d =
      Decomposition::from_weighted_samples(samples, 2, /*snap_level=*/0);
  const sfc::Key cut = d.end_key(0);
  EXPECT_GT(cut, span * 300);
  EXPECT_LT(cut, span * 370);

  // Uniform weights reproduce the equal-count quantile cut.
  for (auto& s : samples) s.weight = 1.0;
  const Decomposition u =
      Decomposition::from_weighted_samples(samples, 2, /*snap_level=*/0);
  EXPECT_GT(u.end_key(0), span * 480);
  EXPECT_LT(u.end_key(0), span * 520);
}

TEST(Decomposition, WeightlessSamplesFallBackToCountQuantiles) {
  std::vector<Decomposition::WeightedKey> weighted;
  std::vector<sfc::Key> plain;
  const sfc::Key span = sfc::kKeyEnd / 64;
  for (int i = 0; i < 64; ++i) {
    weighted.push_back({span * static_cast<sfc::Key>(i), 0.0});
    plain.push_back(span * static_cast<sfc::Key>(i));
  }
  const Decomposition w = Decomposition::from_weighted_samples(weighted, 4);
  const Decomposition c = Decomposition::from_samples(plain, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(w.begin_key(r), c.begin_key(r));
}

TEST(Simulation, CostBalanceConvergesWithoutLosingParticles) {
  const std::size_t n = 1500;
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  cfg.dt = 1e-3;
  cfg.balance = domain::BalanceMode::kCost;
  Simulation sim(cfg);
  sim.init(make_plummer(n, 47));
  for (int s = 0; s < 4; ++s) {
    const domain::StepReport rep = sim.step();
    EXPECT_EQ(rep.num_particles, n);
  }
  const ParticleSet got = sim.gather();
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.id[i], i);
    ASSERT_TRUE(std::isfinite(got.ax[i]) && std::isfinite(got.pot[i]));
  }
}

TEST(Simulation, MultiStepPreservesPopulation) {
  const std::size_t n = 2000;
  const ParticleSet global = make_plummer(n, 41);
  SimConfig cfg;
  cfg.nranks = 4;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;
  cfg.dt = 1e-3;
  Simulation sim(cfg);
  sim.init(global);

  for (int s = 0; s < 3; ++s) {
    const domain::StepReport rep = sim.step();
    EXPECT_EQ(rep.num_particles, n);
    const ParticleSet got = sim.gather();
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got.id[i], i);  // ids unique and complete
      ASSERT_TRUE(std::isfinite(got.ax[i]) && std::isfinite(got.ay[i]) &&
                  std::isfinite(got.az[i]));
    }
  }
}

// Positions and forces of two gathered (id-sorted) runs, bit for bit.
void expect_bitwise_equal(const ParticleSet& got, const ParticleSet& ref) {
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

TEST(Simulation, DefaultKernelIsBitwiseReproducibleAcrossRepeatsAndThreads) {
  // The default (simd) async pipeline at a fixed rank count: a repeat run
  // and a run with more threads per rank reproduce every position and force
  // bit for bit. Each target group drains its own batches on one thread in
  // walk order, and remote LETs are walked in a fixed order, so neither the
  // thread schedule nor arrival timing can reach the arithmetic. (Async mode
  // clamps threads per rank to the host's per-rank share; the device-level
  // check below pins 1 vs 4 threads on any host.)
  const ParticleSet global = make_plummer(4096, 29);
  const auto run = [&global](std::size_t threads_per_rank) {
    SimConfig cfg;
    cfg.nranks = 4;
    cfg.eps = 1e-2;
    cfg.dt = 1e-3;
    cfg.threads_per_rank = threads_per_rank;
    EXPECT_EQ(cfg.kernel, KernelBackend::kSimd);
    Simulation sim(cfg);
    sim.init(global);
    for (int step = 0; step < 3; ++step) sim.step();
    return sim.gather();
  };
  const ParticleSet first = run(1);
  expect_bitwise_equal(run(1), first);
  expect_bitwise_equal(run(4), first);

  ParticleSet parts = global;
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts, Octree::kDefaultNLeaf);
  tree.compute_properties(parts, 0.4);
  const std::vector<TargetGroup> groups = make_groups(parts, 64);
  TraversalConfig tcfg;
  tcfg.eps = 1e-2;
  const auto device_forces = [&](std::size_t threads) {
    ParticleSet out = parts;
    out.zero_forces();
    Device device(threads);
    device.compute_forces(tree.view(out), out, groups, tcfg, /*self=*/true);
    return out;
  };
  expect_bitwise_equal(device_forces(4), device_forces(1));
}

}  // namespace
}  // namespace bonsai
