// Accuracy and accounting of the Barnes-Hut tree walk against the direct
// O(N^2) reference, and the walk's equivalence with the one-node-at-a-time
// reference walk it replaced: same stats, bitwise-equal forces, on every
// backend and kernel ISA.
#include "tree/traverse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "domain/let.hpp"
#include "tree/direct.hpp"
#include "tree/kernels.hpp"
#include "tree/octree.hpp"
#include "util/compare.hpp"
#include "util/ic.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace bonsai {
namespace {

ParticleSet clustered_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ParticleSet parts;
  parts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3d dir = rng.unit_sphere();
    const double r = rng.uniform() * rng.uniform();  // centrally concentrated
    parts.add({dir * r, {0, 0, 0}, 1.0 / static_cast<double>(n), i});
  }
  return parts;
}

struct WalkSetup {
  ParticleSet parts;
  Octree tree;
  std::vector<TargetGroup> groups;
};

WalkSetup make_setup(std::size_t n, std::uint64_t seed, double theta, int ncrit = 64,
                 int nleaf = 16) {
  WalkSetup s;
  s.parts = clustered_cloud(n, seed);
  sfc::KeySpace space(s.parts.bounds());
  sort_by_keys(s.parts, space);
  s.tree.build(s.parts, nleaf);
  s.tree.compute_properties(s.parts, theta);
  s.groups = make_groups(s.parts, ncrit);
  return s;
}

// The double-precision walk every accuracy test runs: the batched walk with
// the scalar backend, which replays the reference kernels in staged order.
InteractionStats scalar_walk(const TreeView& src, ParticleSet& targets,
                             std::span<const TargetGroup> groups, TraversalConfig cfg,
                             bool self) {
  cfg.backend = KernelBackend::kScalar;
  InteractionQueue queue;
  return traverse_groups_batched(src, targets, groups, cfg, self, queue);
}

TEST(MakeGroups, SizesAndBoxes) {
  WalkSetup s = make_setup(1000, 211, 0.4, 64);
  std::uint32_t covered = 0;
  for (const TargetGroup& g : s.groups) {
    EXPECT_LE(g.end - g.begin, 64u);
    covered += g.end - g.begin;
    for (std::uint32_t i = g.begin; i < g.end; ++i)
      ASSERT_TRUE(g.box.contains(s.parts.pos(i)));
  }
  EXPECT_EQ(covered, s.parts.size());
  EXPECT_EQ(s.groups.size(), (1000 + 63) / 64u);
}

TEST(MakeGroups, RejectsNonPositiveNcrit) {
  ParticleSet parts = clustered_cloud(16, 307);
  EXPECT_THROW(make_groups(parts, 0), std::logic_error);
  EXPECT_THROW(make_groups(parts, -5), std::logic_error);
  // The contract also holds for an empty set: capacity is validated first.
  ParticleSet empty;
  EXPECT_THROW(make_groups(empty, 0), std::logic_error);
}

TEST(MakeGroups, EmptySetYieldsNoGroups) {
  ParticleSet empty;
  EXPECT_TRUE(make_groups(empty, 1).empty());
  EXPECT_TRUE(make_groups(empty, 64).empty());
}

TEST(Traverse, EmptyGroupSpanIsNoOp) {
  WalkSetup s = make_setup(200, 311, 0.4);
  s.parts.zero_forces();
  const auto stats = scalar_walk(s.tree.view(s.parts), s.parts, {}, TraversalConfig{},
                                 /*self=*/true);
  EXPECT_EQ(stats.p2p + stats.p2c, 0u);
  for (std::size_t i = 0; i < s.parts.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(s.parts.acc(i)), 0.0);
}

TEST(Traverse, ZeroWidthGroupIsNoOp) {
  WalkSetup s = make_setup(200, 313, 0.4);
  s.parts.zero_forces();
  TargetGroup g;
  g.begin = g.end = 7;  // empty target range, box invalid by construction
  TraversalConfig cfg;
  cfg.backend = KernelBackend::kScalar;
  InteractionQueue queue;
  const auto stats = traverse_one_group_batched(WalkTree(s.tree.view(s.parts)), s.parts, g,
                                                cfg, true, queue);
  EXPECT_EQ(stats.p2p + stats.p2c, 0u);
}

TEST(Traverse, TinyThetaReproducesDirectExactly) {
  // With an (effectively) zero opening angle the MAC never accepts, the walk
  // degenerates to all-pairs p-p, and results match direct summation to
  // floating-point roundoff (identical kernel, different summation order).
  WalkSetup s = make_setup(500, 223, 1e-9);
  TraversalConfig cfg;
  cfg.theta = 1e-9;
  cfg.eps = 0.01;
  s.parts.zero_forces();
  const InteractionStats stats =
      scalar_walk(s.tree.view(s.parts), s.parts, s.groups, cfg, /*self=*/true);
  // Multi-particle cells always have a finite box, hence an enormous rcrit at
  // theta ~ 0, and are always opened. Single-particle cells have rcrit = 0 and
  // may be accepted, which is *exact* (point mass, Q = 0), so each of the
  // N(N-1) ordered pairs is evaluated exactly once, as p-p or point p-c.
  EXPECT_EQ(stats.p2p + stats.p2c, 500u * 499u);

  ParticleSet ref = s.parts;
  direct_forces(ref, cfg.eps);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(norm(s.parts.acc(i) - ref.acc(i)), 0.0, 1e-11 * std::max(1.0, norm(ref.acc(i))));
    ASSERT_NEAR(s.parts.pot[i], ref.pot[i], 1e-11 * std::abs(ref.pot[i]));
  }
}

class ThetaAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(ThetaAccuracyTest, ForceErrorBounded) {
  const double theta = GetParam();
  WalkSetup s = make_setup(3000, 227, theta);
  TraversalConfig cfg;
  cfg.theta = theta;
  cfg.eps = 1e-3;
  s.parts.zero_forces();
  scalar_walk(s.tree.view(s.parts), s.parts, s.groups, cfg, true);

  ParticleSet ref = s.parts;
  direct_forces(ref, cfg.eps);
  const double med = median_acc_error(s.parts, ref);
  // Empirical Barnes-Hut + quadrupole error envelopes (generous bounds).
  const double bound = theta <= 0.3 ? 2e-5 : theta <= 0.5 ? 2e-4 : 2e-3;
  EXPECT_LT(med, bound) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(OpeningAngles, ThetaAccuracyTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Traverse, ErrorGrowsWithTheta) {
  std::vector<double> med;
  for (double theta : {0.2, 0.5, 0.9}) {
    WalkSetup s = make_setup(2000, 229, theta);
    TraversalConfig cfg;
    cfg.theta = theta;
    cfg.eps = 1e-3;
    s.parts.zero_forces();
    scalar_walk(s.tree.view(s.parts), s.parts, s.groups, cfg, true);
    ParticleSet ref = s.parts;
    direct_forces(ref, cfg.eps);
    med.push_back(median_acc_error(s.parts, ref));
  }
  EXPECT_LT(med[0], med[1]);
  EXPECT_LT(med[1], med[2]);
}

TEST(Traverse, QuadrupoleBeatsMonopole) {
  WalkSetup s = make_setup(2000, 233, 0.6);
  TraversalConfig cfg;
  cfg.theta = 0.6;
  cfg.eps = 1e-3;

  ParticleSet with_quad = s.parts;
  with_quad.zero_forces();
  scalar_walk(s.tree.view(with_quad), with_quad, s.groups, cfg, true);

  cfg.quadrupole = false;
  ParticleSet mono = s.parts;
  mono.zero_forces();
  scalar_walk(s.tree.view(mono), mono, s.groups, cfg, true);

  ParticleSet ref = s.parts;
  direct_forces(ref, cfg.eps);

  const double err_quad = median_acc_error(with_quad, ref);
  const double err_mono = median_acc_error(mono, ref);
  EXPECT_LT(err_quad, err_mono * 0.5)
      << "quadrupole should substantially reduce the error";
}

TEST(Traverse, WorkGrowsAsThetaShrinks) {
  // §IV: calculation cost grows roughly as theta^-3. Halving theta must
  // increase the evaluated work substantially (we assert a soft 1.5x to stay
  // robust across tree shapes; the theta ablation bench fits the exponent).
  std::vector<std::uint64_t> flops;
  for (double theta : {0.8, 0.4, 0.2}) {
    WalkSetup s = make_setup(8000, 239, theta);
    TraversalConfig cfg;
    cfg.theta = theta;
    cfg.eps = 1e-3;
    s.parts.zero_forces();
    const auto stats = scalar_walk(s.tree.view(s.parts), s.parts, s.groups, cfg, true);
    flops.push_back(stats.flops());
  }
  EXPECT_GT(flops[1], static_cast<std::uint64_t>(1.5 * static_cast<double>(flops[0])));
  // At N = 8000 the theta = 0.2 walk approaches the all-pairs bound, so the
  // second halving shows compressed growth.
  EXPECT_GT(flops[2], static_cast<std::uint64_t>(1.25 * static_cast<double>(flops[1])));
}

TEST(Traverse, GroupAndSingleWalksAgree) {
  // The group MAC is more conservative in aggregate but both walks must stay
  // within the theta error envelope of each other. A one-particle group's box
  // is a point, so its group MAC is exactly the per-particle MAC.
  WalkSetup s = make_setup(1500, 241, 0.4);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-3;

  ParticleSet grouped = s.parts;
  grouped.zero_forces();
  scalar_walk(s.tree.view(grouped), grouped, s.groups, cfg, true);

  ParticleSet single = s.parts;
  single.zero_forces();
  scalar_walk(s.tree.view(single), single, make_groups(single, 1), cfg, true);

  RunningStats rel;
  for (std::size_t i = 0; i < grouped.size(); ++i) {
    const double d = norm(grouped.acc(i) - single.acc(i));
    rel.add(d / std::max(norm(single.acc(i)), 1e-300));
  }
  EXPECT_LT(rel.mean(), 5e-4);
}

TEST(Traverse, SelfPotentialExcluded) {
  // Potential must not include the self-term -m_i/eps.
  ParticleSet parts;
  parts.add({{0.0, 0.0, 0.0}, {0, 0, 0}, 1.0, 0});
  parts.add({{1.0, 0.0, 0.0}, {0, 0, 0}, 1.0, 1});
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.4);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 0.1;
  parts.zero_forces();
  auto groups = make_groups(parts, 64);
  scalar_walk(tree.view(parts), parts, groups, cfg, true);
  const double expected = -1.0 / std::sqrt(1.0 + 0.01);
  EXPECT_NEAR(parts.pot[0], expected, 1e-12);
  EXPECT_NEAR(parts.pot[1], expected, 1e-12);
}

TEST(Traverse, DisjointSourceNeedsNoSelfSkip) {
  // Forces from a remote set (the LET use case): traversal of a source tree
  // over different targets must equal direct source->target summation within
  // the MAC error envelope.
  ParticleSet sources = clustered_cloud(2000, 251);
  for (std::size_t i = 0; i < sources.size(); ++i)
    sources.x[i] += 10.0;  // displace the source cloud

  ParticleSet targets = clustered_cloud(500, 257);

  sfc::KeySpace space(sources.bounds());
  sort_by_keys(sources, space);
  Octree tree;
  tree.build(sources, 16);
  tree.compute_properties(sources, 0.4);

  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 0.0;
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  scalar_walk(tree.view(sources), targets, groups, cfg, /*self=*/false);

  ParticleSet ref = targets;
  ref.zero_forces();
  direct_forces_between(sources, ref, cfg.eps);

  EXPECT_LT(median_acc_error(targets, ref), 2e-4);
}

TEST(Traverse, EmptySourcesAndTargets) {
  ParticleSet empty;
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  Octree tree;
  tree.build(empty);
  tree.compute_properties(empty, 0.4);

  ParticleSet targets = clustered_cloud(10, 263);
  targets.zero_forces();
  auto groups = make_groups(targets, 64);
  const auto stats = scalar_walk(tree.view(empty), targets, groups, TraversalConfig{}, false);
  EXPECT_EQ(stats.p2p + stats.p2c, 0u);
  for (std::size_t i = 0; i < targets.size(); ++i)
    EXPECT_DOUBLE_EQ(norm(targets.acc(i)), 0.0);

  // Empty target set is a no-op as well.
  ParticleSet no_targets;
  auto no_groups = make_groups(no_targets, 64);
  EXPECT_TRUE(no_groups.empty());
}

TEST(Traverse, PPKernelFloatAndDoubleAgree) {
  ForceAccum<double> fd{};
  ForceAccum<float> ff{};
  pp_kernel<double>(0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 1.5, 0.01, fd);
  pp_kernel<float>(0.0f, 0.0f, 0.0f, 1.0f, 2.0f, 3.0f, 1.5f, 0.01f, ff);
  EXPECT_NEAR(fd.ax, static_cast<double>(ff.ax), 1e-6);
  EXPECT_NEAR(fd.pot, static_cast<double>(ff.pot), 1e-6);
}

TEST(Traverse, PCKernelMatchesPointMass) {
  // A cell whose quadrupole vanishes must reduce exactly to the p-p kernel.
  Multipole cell;
  cell.mass = 2.0;
  cell.com = {3.0, -1.0, 2.0};
  ForceAccum<double> fc{}, fp{};
  pc_kernel({0.5, 0.5, 0.5}, cell, 0.0, fc);
  pp_kernel<double>(0.5, 0.5, 0.5, 3.0, -1.0, 2.0, 2.0, 0.0, fp);
  EXPECT_NEAR(fc.ax, fp.ax, 1e-14);
  EXPECT_NEAR(fc.ay, fp.ay, 1e-14);
  EXPECT_NEAR(fc.az, fp.az, 1e-14);
  EXPECT_NEAR(fc.pot, fp.pot, 1e-14);
}

TEST(Traverse, PCKernelConvergesToDirectSumWithDistance) {
  // Multipole error of a fixed cluster must fall rapidly with distance
  // (remaining error is the neglected octupole, O(r^-4) in acceleration).
  Xoshiro256 rng(269);
  ParticleSet cluster;
  for (int i = 0; i < 200; ++i)
    cluster.add({rng.unit_sphere() * rng.uniform(), {0, 0, 0}, 1.0, static_cast<std::uint64_t>(i)});

  Multipole mp;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    mp.mass += cluster.mass[i];
    mp.com += cluster.mass[i] * cluster.pos(i);
  }
  mp.com /= mp.mass;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    mp.quad.add_outer(cluster.pos(i) - mp.com, cluster.mass[i]);

  double prev_err = 1e300;
  for (double dist : {4.0, 8.0, 16.0, 32.0}) {
    const Vec3d target{dist, 0.3, -0.2};
    ForceAccum<double> approx{};
    pc_kernel(target, mp, 0.0, approx);
    ParticleSet probe;
    probe.add({target, {0, 0, 0}, 1.0, 0});
    probe.zero_forces();
    direct_forces_between(cluster, probe, 0.0);
    const double err = norm(Vec3d{approx.ax, approx.ay, approx.az} - probe.acc(0)) /
                       norm(probe.acc(0));
    EXPECT_LT(err, prev_err * 0.3) << "at distance " << dist;
    prev_err = err;
  }
}

TEST(Direct, SubsetMatchesFull) {
  ParticleSet parts = clustered_cloud(400, 271);
  ParticleSet full = parts;
  direct_forces(full, 1e-3);
  std::vector<std::uint32_t> subset{0, 17, 399, 200};
  direct_forces_subset(parts, 1e-3, subset);
  for (std::uint32_t i : subset) {
    EXPECT_DOUBLE_EQ(parts.ax[i], full.ax[i]);
    EXPECT_DOUBLE_EQ(parts.pot[i], full.pot[i]);
  }
}

TEST(Direct, NewtonThirdLawMomentumConservation) {
  ParticleSet parts = clustered_cloud(300, 277);
  direct_forces(parts, 1e-2);
  Vec3d net{};
  for (std::size_t i = 0; i < parts.size(); ++i) net += parts.mass[i] * parts.acc(i);
  EXPECT_NEAR(norm(net), 0.0, 1e-12);
}

// ---- the walk against its reference ---------------------------------------------

// The walk as it was before the walk array: pop one node, test it with the
// scalar AABB::min_dist2, stage it through the public queue. The production
// walk must reproduce it exactly: same stats, bitwise-equal forces.
InteractionStats reference_walk(const TreeView& src, ParticleSet& targets,
                                const TargetGroup& group, const TraversalConfig& config,
                                bool self, InteractionQueue& queue) {
  if (src.empty() || group.begin == group.end) return InteractionStats{};
  WalkParams params;
  params.eps2 = config.eps * config.eps;
  params.quadrupole = config.quadrupole;
  params.self = self;
  queue.begin_walk(src, targets, params, config.backend, group.begin, group.end);
  std::vector<std::int32_t> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const auto index = static_cast<std::uint32_t>(stack.back());
    const TreeNode& node = src.nodes[index];
    stack.pop_back();
    if (node.count() == 0 && node.kind == NodeKind::kParticleLeaf) continue;
    if (group.box.min_dist2(node.mp.com) > node.rcrit * node.rcrit) {
      queue.push_cell(index);
      continue;
    }
    switch (node.kind) {
      case NodeKind::kInternal:
        for (std::uint8_t c = 0; c < node.num_children; ++c)
          stack.push_back(node.first_child + c);
        break;
      case NodeKind::kParticleLeaf:
        queue.push_leaf(node);
        break;
      case NodeKind::kMultipoleLeaf:
        queue.push_cell(index);
        break;
    }
  }
  return queue.finish_walk();
}

// Every simd variant compiled into this binary that the host CPU runs.
std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512})
    if (kernel_isa_supported(isa)) out.push_back(isa);
  return out;
}

void expect_same_stats(const InteractionStats& got, const InteractionStats& want) {
  EXPECT_EQ(got.p2p, want.p2p);
  EXPECT_EQ(got.p2c, want.p2c);
  EXPECT_EQ(got.p2p_padded, want.p2p_padded);
  EXPECT_EQ(got.p2c_padded, want.p2c_padded);
  EXPECT_EQ(got.pp_batches, want.pp_batches);
  EXPECT_EQ(got.pc_batches, want.pc_batches);
  EXPECT_EQ(got.batch_hist, want.batch_hist);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// One walk scenario: targets grouped by ncrit, walking either the targets'
// own tree (self) or a fixed source view.
struct WalkCase {
  std::string name;
  ParticleSet targets;
  std::vector<TargetGroup> groups;
  Octree tree;                  // self walks: built over `targets`
  std::vector<TreeNode> nodes;  // other walks: source nodes ...
  ParticleSet sources;          // ... over these particles
  domain::LetTree let;          // or this LET, when it has nodes
  bool self = false;
  TraversalConfig cfg;
  std::size_t capacity = InteractionQueue::kDefaultCapacity;

  TreeView view(const ParticleSet& out) const {
    if (self) return tree.view(out);
    if (!let.nodes.empty()) return let.view();
    return {nodes, sources.x, sources.y, sources.z, sources.mass};
  }
};

ParticleSet sorted(ParticleSet parts) {
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  return parts;
}

ParticleSet shifted(ParticleSet parts, const Vec3d& by) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.x[i] += by.x;
    parts.y[i] += by.y;
    parts.z[i] += by.z;
  }
  return parts;
}

WalkCase self_case(const char* name, std::size_t n, double eps, bool quadrupole,
                   std::size_t capacity) {
  WalkCase c;
  c.name = name;
  c.self = true;
  c.targets = sorted(make_plummer(n, 401));
  c.tree.build(c.targets, 16);
  c.tree.compute_properties(c.targets, 0.4);
  c.groups = make_groups(c.targets, 64);
  c.cfg.eps = eps;
  c.cfg.quadrupole = quadrupole;
  c.capacity = capacity;
  return c;
}

// A root over `k` children, each one slice of the sorted `src`: every fifth
// an empty particle leaf, every seventh a multipole leaf, the rest particle
// leaves whose MAC radius comes from their box, so a group sees a mix of
// accepted, opened and skipped children across many 8-child blocks.
std::vector<TreeNode> wide_tree(const ParticleSet& src, std::uint32_t k) {
  std::vector<TreeNode> nodes(1 + k);
  TreeNode& root = nodes[0];
  root.kind = NodeKind::kInternal;
  root.part_begin = 0;
  root.part_end = static_cast<std::uint32_t>(src.size());
  root.first_child = 1;
  root.num_children = static_cast<std::uint8_t>(k);
  root.rcrit = 1e300;  // squares to inf: never accepted
  const auto n = static_cast<std::uint32_t>(src.size());
  for (std::uint32_t c = 0; c < k; ++c) {
    TreeNode& child = nodes[1 + c];
    child.part_begin = c * n / k;
    child.part_end = c % 5 == 2 ? child.part_begin : (c + 1) * n / k;
    child.kind = c % 7 == 3 ? NodeKind::kMultipoleLeaf : NodeKind::kParticleLeaf;
    for (std::uint32_t i = child.part_begin; i < child.part_end; ++i) {
      child.box.expand(src.pos(i));
      child.mp.mass += src.mass[i];
      child.mp.com += src.mass[i] * src.pos(i);
    }
    if (child.mp.mass > 0.0) child.mp.com /= child.mp.mass;
    for (std::uint32_t i = child.part_begin; i < child.part_end; ++i)
      child.mp.quad.add_outer(src.pos(i) - child.mp.com, src.mass[i]);
    child.rcrit = child.count() > 0 ? child.box.max_side() / 0.5 : 0.0;
  }
  return nodes;
}

std::vector<WalkCase> walk_cases() {
  std::vector<WalkCase> cases;
  cases.push_back(self_case("plummer-self", 2048, 1e-2, true, InteractionQueue::kDefaultCapacity));
  cases.push_back(self_case("plummer-self-eps0", 1024, 0.0, true, InteractionQueue::kDefaultCapacity));
  cases.push_back(self_case("capacity-4-eps0", 1024, 0.0, true, 4));
  cases.push_back(self_case("monopole-only", 1024, 1e-2, false, InteractionQueue::kDefaultCapacity));
  {
    WalkCase c;
    c.name = "disjoint-sources";
    c.sources = sorted(shifted(make_plummer(1500, 403), {3.0, 0.5, 0.0}));
    Octree tree;
    tree.build(c.sources, 16);
    tree.compute_properties(c.sources, 0.4);
    c.nodes.assign(tree.nodes().begin(), tree.nodes().end());
    c.targets = sorted(make_plummer(700, 405));
    c.groups = make_groups(c.targets, 64);
    c.cfg.eps = 1e-2;
    cases.push_back(std::move(c));
  }
  {
    // A build_let export: internal nodes without particles of their own,
    // particle leaves, and the pruned multipole leaves.
    WalkCase c;
    c.name = "let-export";
    const ParticleSet global = make_plummer(4000, 407);
    ParticleSet left, right;
    for (std::size_t i = 0; i < global.size(); ++i) {
      if (global.x[i] < 0.0) left.add(global.get(i));
      if (global.x[i] > 0.5) right.add(global.get(i));
    }
    left = sorted(std::move(left));
    Octree tree;
    tree.build(left, 16);
    tree.compute_properties(left, 0.4);
    c.targets = sorted(std::move(right));
    c.let = domain::build_let(tree.view(left), c.targets.bounds());
    c.groups = make_groups(c.targets, 64);
    c.cfg.eps = 1e-2;
    cases.push_back(std::move(c));
  }
  {
    WalkCase c;
    c.name = "wide-node";
    c.sources = sorted(make_plummer(3000, 409));
    c.nodes = wide_tree(c.sources, 37);
    c.targets = sorted(shifted(make_plummer(600, 411), {1.0, 0.0, 0.0}));
    c.groups = make_groups(c.targets, 64);
    c.cfg.eps = 1e-2;
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(WalkReference, ProductionWalkMatchesStatsAndForcesBitwise) {
  std::vector<WalkCase> cases = walk_cases();
  bool saw_multipole_leaf = false, saw_empty_leaf = false, saw_wide_node = false;
  for (const WalkCase& c : cases) {
    for (const TreeNode& node : c.view(c.targets).nodes) {
      saw_multipole_leaf |= node.kind == NodeKind::kMultipoleLeaf;
      saw_empty_leaf |= node.kind == NodeKind::kParticleLeaf && node.count() == 0;
      saw_wide_node |= node.num_children > WalkTree::kChildBlock;
    }
  }
  ASSERT_TRUE(saw_multipole_leaf && saw_empty_leaf && saw_wide_node);

  for (const WalkCase& c : cases) {
    for (const KernelBackend backend : kKernelBackends) {
      for (const KernelIsa isa : supported_isas()) {
        SCOPED_TRACE(c.name + " " + kernel_backend_name(backend) + " " + kernel_isa_name(isa));
        TraversalConfig cfg = c.cfg;
        cfg.backend = backend;

        ParticleSet want = c.targets;
        want.zero_forces();
        InteractionQueue ref_queue(c.capacity, isa);
        InteractionStats want_stats;
        for (const TargetGroup& g : c.groups)
          want_stats += reference_walk(c.view(want), want, g, cfg, c.self, ref_queue);

        ParticleSet got = c.targets;
        got.zero_forces();
        InteractionQueue queue(c.capacity, isa);
        const WalkTree walk(c.view(got));
        InteractionStats got_stats;
        for (const TargetGroup& g : c.groups)
          got_stats += traverse_one_group_batched(walk, got, g, cfg, c.self, queue);

        ASSERT_GT(want_stats.p2p + want_stats.p2c, 0u);
        expect_same_stats(got_stats, want_stats);
        EXPECT_TRUE(same_bits(got.ax, want.ax));
        EXPECT_TRUE(same_bits(got.ay, want.ay));
        EXPECT_TRUE(same_bits(got.az, want.az));
        EXPECT_TRUE(same_bits(got.pot, want.pot));
        // Unsoftened self walks stay finite only if every self-pair is masked.
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_TRUE(std::isfinite(got.pot[i]) && std::isfinite(norm(got.acc(i)))) << i;
      }
    }
  }
}

TEST(WalkReference, KnifeEdgeMacMatchesScalarMinDist2) {
  // A point target at the origin and three one-particle leaves at the same
  // COM (a, b, 0), whose rcrit^2 is the scalar min_dist2 S itself and one
  // ulp either side of it. The MAC is a strict d2 > rcrit^2, so exactly the
  // leaf one ulp below is accepted. (a, b) is chosen so that a fused
  // multiply-add in either order, fma(a, a, b*b) or fma(b, b, a*a), rounds
  // away from S: a child test contracted into FMA misjudges one of the three.
  Xoshiro256 rng(413);
  const AABB point{{0, 0, 0}, {0, 0, 0}};
  // An rcrit whose square is exactly `r2`, if a double near sqrt(r2) has one.
  const auto exact_root = [](double r2) -> std::optional<double> {
    double r = std::nextafter(std::sqrt(r2), 0.0);
    for (int k = 0; k < 3; ++k, r = std::nextafter(r, 2.0 * r))
      if (r * r == r2) return r;
    return std::nullopt;
  };
  double a = 0, b = 0, s = 0;
  std::optional<double> r_at, r_below, r_above;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    a = 0.5 + rng.uniform();
    b = 0.5 + rng.uniform();
    s = point.min_dist2({a, b, 0.0});
    if (std::fma(a, a, b * b) == s || std::fma(b, b, a * a) == s) continue;
    r_at = exact_root(s);
    r_below = exact_root(std::nextafter(s, 0.0));
    r_above = exact_root(std::nextafter(s, 4.0 * s));
    if (r_at && r_below && r_above) break;
  }
  ASSERT_TRUE(r_at && r_below && r_above) << "no knife-edge COM found";

  ParticleSet sources;
  for (int c = 0; c < 3; ++c) sources.add({{a, b, 0.0}, {0, 0, 0}, 1.0, static_cast<std::uint64_t>(c)});
  std::vector<TreeNode> nodes(4);
  nodes[0].kind = NodeKind::kInternal;
  nodes[0].part_end = 3;
  nodes[0].first_child = 1;
  nodes[0].num_children = 3;
  nodes[0].rcrit = 1e300;
  const double radii[3] = {*r_at, *r_below, *r_above};
  for (std::uint32_t c = 0; c < 3; ++c) {
    TreeNode& leaf = nodes[1 + c];
    leaf.kind = NodeKind::kParticleLeaf;
    leaf.part_begin = c;
    leaf.part_end = c + 1;
    leaf.mp.mass = 1.0;
    leaf.mp.com = {a, b, 0.0};
    leaf.rcrit = radii[c];
  }
  ASSERT_FALSE(point.min_dist2(nodes[1].mp.com) > nodes[1].rcrit * nodes[1].rcrit);
  ASSERT_TRUE(point.min_dist2(nodes[2].mp.com) > nodes[2].rcrit * nodes[2].rcrit);
  ASSERT_FALSE(point.min_dist2(nodes[3].mp.com) > nodes[3].rcrit * nodes[3].rcrit);

  ParticleSet targets;
  targets.add({{0.0, 0.0, 0.0}, {0, 0, 0}, 1.0, 99});
  const std::vector<TargetGroup> groups = make_groups(targets, 64);
  const TreeView view{nodes, sources.x, sources.y, sources.z, sources.mass};
  for (const KernelIsa isa : supported_isas()) {
    SCOPED_TRACE(kernel_isa_name(isa));
    targets.zero_forces();
    TraversalConfig cfg;
    cfg.backend = KernelBackend::kScalar;
    InteractionQueue queue(InteractionQueue::kDefaultCapacity, isa);
    const InteractionStats stats =
        traverse_groups_batched(view, targets, groups, cfg, /*self=*/false, queue);
    EXPECT_EQ(stats.p2c, 1u) << "only the leaf one ulp below S is accepted";
    EXPECT_EQ(stats.p2p, 2u);
  }
}

}  // namespace
}  // namespace bonsai
