// The batched interaction-list engine: backend name parsing, the backends'
// agreement on what the walk emits, the mixed-precision simd drain's accuracy
// gate against the double-precision scalar replay on every ISA variant the
// host runs, useful-vs-padded flops accounting, batch edge cases and queue
// overflow/flush behaviour. (The walk's own equivalence with the reference
// walk is pinned in test_traverse.cpp.)
#include "tree/kernel_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tree/octree.hpp"
#include "tree/traverse.hpp"
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

// The double-precision reference forces: the walk with the scalar backend.
InteractionStats scalar_walk(const TreeView& src, ParticleSet& targets,
                             std::span<const TargetGroup> groups, TraversalConfig cfg,
                             bool self) {
  cfg.backend = KernelBackend::kScalar;
  InteractionQueue queue;
  return traverse_groups_batched(src, targets, groups, cfg, self, queue);
}

// Worst per-particle relative acceleration difference between two runs over
// the same (sorted) particle set.
double max_rel_acc_diff(const ParticleSet& a, const ParticleSet& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ref = std::max(norm(b.acc(i)), 1e-300);
    worst = std::max(worst, norm(a.acc(i) - b.acc(i)) / ref);
  }
  return worst;
}

// Forces + stats from the batched walk with one backend (fresh accumulators).
InteractionStats batched_forces(WalkSetup& s, ParticleSet& out, KernelBackend backend,
                                const TraversalConfig& base,
                                std::size_t queue_capacity = InteractionQueue::kDefaultCapacity) {
  out = s.parts;
  out.zero_forces();
  TraversalConfig cfg = base;
  cfg.backend = backend;
  InteractionQueue queue(queue_capacity);
  return traverse_groups_batched(s.tree.view(out), out, s.groups, cfg, /*self=*/true,
                                 queue);
}

// Every simd variant compiled into this binary that the host CPU runs.
std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512})
    if (kernel_isa_supported(isa)) out.push_back(isa);
  return out;
}

// The simd accuracy gate against the double-precision scalar replay, as
// relative acceleration error per particle. The median bound is the one the
// single-precision drain has always had (measured: 9e-8 to 4.4e-7 over every
// case below, on the AVX-512, AVX2+FMA and portable variants of a Xeon host).
// The p99.9 bound is 2.4x the worst p99.9 measured there, 4.2e-6 (AVX-512,
// unsoftened self walk). Float rounding this size is far below the tree's own
// MAC error (~5e-5 median at theta = 0.4).
constexpr double kSimdMedianBound = 1e-5;
constexpr double kSimdP999Bound = 1e-5;

void expect_simd_accuracy(const ParticleSet& simd, const ParticleSet& scalar, KernelIsa isa) {
  const double median = acc_error_percentile(simd, scalar, 0.5);
  const double p999 = acc_error_percentile(simd, scalar, 0.999);
  EXPECT_LT(median, kSimdMedianBound) << kernel_isa_name(isa);
  EXPECT_LT(p999, kSimdP999Bound) << kernel_isa_name(isa);
  EXPECT_GT(median, 0.0) << "simd must not silently replay the double kernels";
}

TEST(KernelBackendNames, RoundTripAndRejects) {
  for (const KernelBackend b : kKernelBackends) {
    const auto parsed = kernel_backend_from_name(kernel_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(kernel_backend_from_name("cuda").has_value());
  EXPECT_FALSE(kernel_backend_from_name("").has_value());
  EXPECT_FALSE(kernel_backend_from_name("SIMD").has_value());
  EXPECT_FALSE(kernel_backend_from_name("simd-float").has_value());  // retired
}

TEST(KernelIsa, DispatchPicksTheWidestSupportedVariant) {
  const std::vector<KernelIsa> isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::kPortable);  // always compiled, always runs
  EXPECT_EQ(dispatched_kernel_isa(), isas.back());
  EXPECT_EQ(InteractionQueue().isa(), dispatched_kernel_isa());
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kPortable), "portable");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx2), "avx2+fma");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx512), "avx512");
}

TEST(KernelBackend, AllBackendsAgreeWithInlineWalk) {
  WalkSetup s = make_setup(3000, 61, 0.4);
  TraversalConfig cfg;
  cfg.theta = 0.4;
  cfg.eps = 1e-2;

  ParticleSet inlined = s.parts;
  inlined.zero_forces();
  const InteractionStats inline_stats =
      scalar_walk(s.tree.view(inlined), inlined, s.groups, cfg, /*self=*/true);
  ASSERT_GT(inline_stats.p2p, 0u);
  ASSERT_GT(inline_stats.p2c, 0u);
  EXPECT_EQ(inline_stats.p2p_padded, inline_stats.p2p);  // the scalar replay pads nothing

  ParticleSet scalar, simd;
  const InteractionStats scalar_stats =
      batched_forces(s, scalar, KernelBackend::kScalar, cfg);
  const InteractionStats simd_stats = batched_forces(s, simd, KernelBackend::kSimd, cfg);

  // Identical useful counts: both backends stage the same lists.
  for (const InteractionStats* bs : {&scalar_stats, &simd_stats}) {
    EXPECT_EQ(bs->p2p, inline_stats.p2p);
    EXPECT_EQ(bs->p2c, inline_stats.p2c);
    EXPECT_GT(bs->batches(), 0u);
  }
  // Scalar replays without padding; SIMD lanes pad to the batch width.
  EXPECT_EQ(scalar_stats.padded_flops(), scalar_stats.useful_flops());
  EXPECT_GE(simd_stats.p2p_padded, simd_stats.p2p);
  EXPECT_GE(simd_stats.p2c_padded, simd_stats.p2c);
  EXPECT_GT(simd_stats.padded_flops(), 0u);
  EXPECT_LE(simd_stats.fill_ratio(), 1.0);
  EXPECT_GT(simd_stats.fill_ratio(), 0.5);  // ncrit=64 groups keep batches dense

  // Forces: the scalar replay is deterministic; simd differs by
  // single-precision arithmetic (gated below per ISA).
  EXPECT_LT(max_rel_acc_diff(scalar, inlined), 1e-12);
  expect_simd_accuracy(simd, scalar, dispatched_kernel_isa());
}

TEST(KernelBackend, DisjointSourceTargetWalkAgrees) {
  // self = false (the LET/remote-gravity path): no self-pairs to mask.
  WalkSetup src = make_setup(1200, 71, 0.4);
  ParticleSet targets = clustered_cloud(500, 72);
  sfc::KeySpace space(targets.bounds());
  sort_by_keys(targets, space);
  const std::vector<TargetGroup> groups = make_groups(targets, 64);

  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet inlined = targets;
  inlined.zero_forces();
  const InteractionStats inline_stats =
      scalar_walk(src.tree.view(src.parts), inlined, groups, cfg, /*self=*/false);

  ParticleSet scalar;
  for (const KernelBackend b : kKernelBackends) {
    ParticleSet got = targets;
    got.zero_forces();
    TraversalConfig bcfg = cfg;
    bcfg.backend = b;
    InteractionQueue queue;
    const InteractionStats stats = traverse_groups_batched(
        src.tree.view(src.parts), got, groups, bcfg, /*self=*/false, queue);
    EXPECT_EQ(stats.p2p, inline_stats.p2p);
    EXPECT_EQ(stats.p2c, inline_stats.p2c);
    if (b == KernelBackend::kScalar) {
      EXPECT_LT(max_rel_acc_diff(got, inlined), 1e-10);
      scalar = got;
    } else {
      expect_simd_accuracy(got, scalar, queue.isa());
    }
  }
}

TEST(KernelBackend, MonopoleOnlyWalkAgrees) {
  // quadrupole = false: scalar replays pc_kernel_monopole; simd runs the
  // quadrupole arithmetic with zeroed moments, which is identical math.
  WalkSetup s = make_setup(1500, 83, 0.5);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  cfg.quadrupole = false;

  ParticleSet inlined = s.parts;
  inlined.zero_forces();
  scalar_walk(s.tree.view(inlined), inlined, s.groups, cfg, /*self=*/true);

  ParticleSet scalar, simd;
  batched_forces(s, scalar, KernelBackend::kScalar, cfg);
  batched_forces(s, simd, KernelBackend::kSimd, cfg);
  EXPECT_LT(max_rel_acc_diff(scalar, inlined), 1e-12);
  expect_simd_accuracy(simd, scalar, dispatched_kernel_isa());
}

// A handcrafted LET-style source: an internal root that the MAC never
// accepts over two multipole-leaf children, so every walk stages exactly the
// two cells as one cell batch.
std::vector<TreeNode> multipole_leaf_view() {
  std::vector<TreeNode> nodes(3);
  nodes[0].kind = NodeKind::kInternal;
  nodes[0].part_begin = 0;
  nodes[0].part_end = 1;  // non-empty so the walk does not skip it
  nodes[0].first_child = 1;
  nodes[0].num_children = 2;
  nodes[0].rcrit = 1e30;  // never MAC-accepted
  for (int c = 1; c <= 2; ++c) {
    nodes[c].kind = NodeKind::kMultipoleLeaf;
    nodes[c].mp.mass = 1.5 * c;
    nodes[c].mp.com = {3.0 * c, -2.0, 1.0};
    nodes[c].mp.quad.add_outer({0.1, 0.2, -0.1}, nodes[c].mp.mass);
  }
  return nodes;
}

ParticleSet sorted_cloud(std::size_t n, std::uint64_t seed) {
  ParticleSet t = clustered_cloud(n, seed);
  sfc::KeySpace space(t.bounds());
  sort_by_keys(t, space);
  return t;
}

TEST(KernelBackend, MultipoleLeafBatch) {
  // Both multipole leaves must be staged as cell batches and match the
  // scalar replay.
  const ParticleSet targets = sorted_cloud(100, 91);
  const std::vector<TreeNode> nodes = multipole_leaf_view();
  const TreeView view{nodes, {}, {}, {}, {}};
  const std::vector<TargetGroup> groups = make_groups(targets, 64);

  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet inlined = targets;
  inlined.zero_forces();
  const InteractionStats inline_stats = scalar_walk(view, inlined, groups, cfg, /*self=*/false);
  EXPECT_EQ(inline_stats.p2c, 2 * targets.size());
  EXPECT_EQ(inline_stats.p2p, 0u);

  ParticleSet scalar;
  for (const KernelBackend b : kKernelBackends) {
    ParticleSet got = targets;
    got.zero_forces();
    TraversalConfig bcfg = cfg;
    bcfg.backend = b;
    InteractionQueue queue;
    const InteractionStats stats =
        traverse_groups_batched(view, got, groups, bcfg, /*self=*/false, queue);
    EXPECT_EQ(stats.p2c, inline_stats.p2c);
    EXPECT_EQ(stats.pc_batches, groups.size());
    EXPECT_EQ(stats.pp_batches, 0u);
    if (b == KernelBackend::kScalar) {
      EXPECT_LT(max_rel_acc_diff(got, inlined), 1e-12);
      scalar = got;
    } else {
      expect_simd_accuracy(got, scalar, queue.isa());
    }
  }
}

// The simd accuracy gate, run through every ISA variant the host supports:
// median and p99.9 relative force error against the scalar replay on a
// Plummer sphere, the same sphere far from the origin (float staging is
// relative to the walk's centre, so absolute coordinates must not cost
// precision), the multipole-leaf batch, and an unsoftened self walk whose
// self-pairs are masked lanes. Every variant also emits the same lists.
TEST(KernelBackend, SimdAccuracyGateOnEveryIsa) {
  struct Case {
    const char* name;
    WalkSetup setup;
    TraversalConfig cfg;
    bool self = true;
    std::vector<TreeNode> nodes;  // non-empty: walk this view instead of the tree
  };
  std::vector<Case> cases;
  const auto plummer_case = [](const char* name, const Vec3d& shift, double eps) {
    Case c{name, {}, {}, true, {}};
    c.setup.parts = make_plummer(4096, 131);
    for (std::size_t i = 0; i < c.setup.parts.size(); ++i) {
      c.setup.parts.x[i] += shift.x;
      c.setup.parts.y[i] += shift.y;
      c.setup.parts.z[i] += shift.z;
    }
    sfc::KeySpace space(c.setup.parts.bounds());
    sort_by_keys(c.setup.parts, space);
    c.setup.tree.build(c.setup.parts, 16);
    c.setup.tree.compute_properties(c.setup.parts, 0.4);
    c.setup.groups = make_groups(c.setup.parts, 64);
    c.cfg.theta = 0.4;
    c.cfg.eps = eps;
    return c;
  };
  cases.push_back(plummer_case("plummer", {0, 0, 0}, 1e-2));
  cases.push_back(plummer_case("plummer-translated", {1e3, -1e3, 5e2}, 1e-2));
  cases.push_back(plummer_case("self-pairs-eps0", {0, 0, 0}, 0.0));
  {
    Case c{"multipole-leaf", {}, {}, false, multipole_leaf_view()};
    c.setup.parts = sorted_cloud(100, 91);
    c.setup.groups = make_groups(c.setup.parts, 64);
    c.cfg.eps = 1e-2;
    cases.push_back(std::move(c));
  }

  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run = [&c](KernelBackend backend, KernelIsa isa, ParticleSet& out) {
      out = c.setup.parts;
      out.zero_forces();
      TraversalConfig cfg = c.cfg;
      cfg.backend = backend;
      InteractionQueue queue(InteractionQueue::kDefaultCapacity, isa);
      const TreeView view =
          c.nodes.empty() ? c.setup.tree.view(out) : TreeView{c.nodes, {}, {}, {}, {}};
      return traverse_groups_batched(view, out, c.setup.groups, cfg, c.self, queue);
    };
    ParticleSet scalar;
    const InteractionStats scalar_stats =
        run(KernelBackend::kScalar, dispatched_kernel_isa(), scalar);
    for (const KernelIsa isa : supported_isas()) {
      ParticleSet simd;
      const InteractionStats stats = run(KernelBackend::kSimd, isa, simd);
      EXPECT_EQ(stats.p2p, scalar_stats.p2p) << kernel_isa_name(isa);
      EXPECT_EQ(stats.p2c, scalar_stats.p2c) << kernel_isa_name(isa);
      expect_simd_accuracy(simd, scalar, isa);
      for (std::size_t i = 0; i < simd.size(); ++i)
        ASSERT_TRUE(std::isfinite(simd.pot[i]) && std::isfinite(norm(simd.acc(i))))
            << kernel_isa_name(isa) << " particle " << i;
    }
  }
}

TEST(KernelBackend, EmptyAndDegenerateWalks) {
  WalkSetup s = make_setup(200, 97, 0.4);
  TraversalConfig cfg;
  InteractionQueue queue;

  // Zero-width target range: nothing staged, nothing drained.
  TargetGroup g;
  g.begin = g.end = 7;
  s.parts.zero_forces();
  const InteractionStats empty_stats = traverse_one_group_batched(
      WalkTree(s.tree.view(s.parts)), s.parts, g, cfg, /*self=*/true, queue);
  EXPECT_EQ(empty_stats.p2p + empty_stats.p2c, 0u);
  EXPECT_EQ(empty_stats.batches(), 0u);

  // Empty source view: no-op.
  const InteractionStats no_src = traverse_one_group_batched(
      WalkTree(TreeView{}), s.parts, s.groups[0], cfg, /*self=*/true, queue);
  EXPECT_EQ(no_src.batches(), 0u);

  // A single self-particle system: the only candidate pair is the masked
  // self-interaction — forces must come out exactly zero and finite, on the
  // scalar replay and on every simd variant.
  ParticleSet one;
  one.add({{0.5, 0.5, 0.5}, {0, 0, 0}, 1.0, 0});
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(one, space);
  Octree tree;
  tree.build(one, 16);
  tree.compute_properties(one, 0.4);
  const std::vector<TargetGroup> one_group = make_groups(one, 64);
  for (const KernelBackend b : kKernelBackends) {
    for (const KernelIsa isa : supported_isas()) {
      one.zero_forces();
      TraversalConfig bcfg;
      bcfg.backend = b;
      bcfg.eps = 0.0;  // the masked lane must stay finite even unsoftened
      InteractionQueue q(InteractionQueue::kDefaultCapacity, isa);
      const InteractionStats stats =
          traverse_groups_batched(tree.view(one), one, one_group, bcfg, /*self=*/true, q);
      EXPECT_EQ(stats.p2p, 0u) << kernel_backend_name(b) << " " << kernel_isa_name(isa);
      EXPECT_TRUE(std::isfinite(one.pot[0]));
      EXPECT_DOUBLE_EQ(one.ax[0], 0.0);
      EXPECT_DOUBLE_EQ(one.ay[0], 0.0);
      EXPECT_DOUBLE_EQ(one.az[0], 0.0);
      EXPECT_DOUBLE_EQ(one.pot[0], 0.0);
    }
  }
}

TEST(KernelBackend, TinyCapacityFlushesMidWalkAndMatches) {
  // A queue whose capacity is far below one walk's staging demand must flush
  // mid-walk (splitting batches) and still produce the same counts as an
  // unconstrained queue on both backends. The force comparison is pinned to
  // the scalar replay, which is order-stable under splitting (per-cell and
  // per-target accumulation is unchanged); a simd split adds one more float
  // batch sum per target, which the accuracy gate above bounds.
  WalkSetup s = make_setup(2000, 103, 0.4);
  TraversalConfig cfg;
  cfg.eps = 1e-2;

  for (const KernelBackend b : kKernelBackends) {
    ParticleSet roomy, tiny;
    const InteractionStats roomy_stats = batched_forces(s, roomy, b, cfg);
    const InteractionStats tiny_stats =
        batched_forces(s, tiny, b, cfg, /*queue_capacity=*/48);
    EXPECT_EQ(tiny_stats.p2p, roomy_stats.p2p) << kernel_backend_name(b);
    EXPECT_EQ(tiny_stats.p2c, roomy_stats.p2c);
    EXPECT_GT(tiny_stats.batches(), roomy_stats.batches());  // runs were split
    if (b == KernelBackend::kScalar) {
      EXPECT_LT(max_rel_acc_diff(tiny, roomy), 1e-13);
    }
  }
}

TEST(KernelBackend, FlopAccountingInvariants) {
  WalkSetup s = make_setup(1024, 113, 0.4);
  TraversalConfig cfg;
  cfg.eps = 1e-2;
  ParticleSet out;
  const InteractionStats stats = batched_forces(s, out, KernelBackend::kSimd, cfg);

  EXPECT_EQ(stats.useful_flops(), stats.p2p * kFlopsPerPP + stats.p2c * kFlopsPerPC);
  EXPECT_EQ(stats.padded_flops(),
            stats.p2p_padded * kFlopsPerPP + stats.p2c_padded * kFlopsPerPC);
  EXPECT_GE(stats.padded_flops(), stats.useful_flops());
  // Every drained batch appears exactly once in the histogram.
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : stats.batch_hist) hist_total += c;
  EXPECT_EQ(hist_total, stats.batches());

  // observe_batch buckets by floor(log2): bucket b covers [2^b, 2^(b+1)).
  InteractionStats h;
  h.observe_batch(1);
  h.observe_batch(7);
  h.observe_batch(8);
  h.observe_batch(~std::uint64_t{0});  // clamps into the last bucket
  EXPECT_EQ(h.batch_hist[0], 1u);
  EXPECT_EQ(h.batch_hist[2], 1u);
  EXPECT_EQ(h.batch_hist[3], 1u);
  EXPECT_EQ(h.batch_hist[kBatchHistBuckets - 1], 1u);
}

}  // namespace
}  // namespace bonsai
