// Structural and multipole invariants of the octree builder.
#include "tree/octree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "tree/particle.hpp"
#include "util/random.hpp"

namespace bonsai {
namespace {

ParticleSet random_cloud(std::size_t n, std::uint64_t seed, double radius = 1.0) {
  Xoshiro256 rng(seed);
  ParticleSet parts;
  parts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Non-uniform (clustered) cloud: radius^2 bias concentrates the centre.
    const Vec3d dir = rng.unit_sphere();
    const double r = radius * rng.uniform() * rng.uniform();
    Particle p;
    p.pos = dir * r;
    p.vel = {0.0, 0.0, 0.0};
    p.mass = rng.uniform(0.5, 1.5);
    p.id = i;
    parts.add(p);
  }
  return parts;
}

struct BuiltTree {
  ParticleSet parts;
  sfc::KeySpace space;
  Octree tree;
};

BuiltTree build_cloud(std::size_t n, std::uint64_t seed, int nleaf,
                      double theta = 0.4) {
  BuiltTree bt;
  bt.parts = random_cloud(n, seed);
  bt.space = sfc::KeySpace(bt.parts.bounds());
  sort_by_keys(bt.parts, bt.space);
  bt.tree.build(bt.parts, nleaf);
  bt.tree.compute_properties(bt.parts, theta);
  return bt;
}

class OctreeNleafTest : public ::testing::TestWithParam<int> {};

TEST_P(OctreeNleafTest, LeavesPartitionParticles) {
  const int nleaf = GetParam();
  auto bt = build_cloud(3000, 101, nleaf);
  std::vector<int> covered(bt.parts.size(), 0);
  std::size_t leaves = 0;
  for (const TreeNode& node : bt.tree.nodes()) {
    if (!node.is_leaf()) continue;
    ++leaves;
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) ++covered[i];
  }
  EXPECT_EQ(leaves, bt.tree.num_leaves());
  for (std::size_t i = 0; i < covered.size(); ++i)
    ASSERT_EQ(covered[i], 1) << "particle " << i << " in " << covered[i] << " leaves";
}

TEST_P(OctreeNleafTest, LeafSizeRespected) {
  const int nleaf = GetParam();
  auto bt = build_cloud(3000, 103, nleaf);
  for (const TreeNode& node : bt.tree.nodes()) {
    if (!node.is_leaf()) continue;
    if (node.level < sfc::kMaxLevel) {
      ASSERT_LE(node.count(), static_cast<std::uint32_t>(nleaf));
    }
  }
}

TEST_P(OctreeNleafTest, ChildRangesPartitionParent) {
  const int nleaf = GetParam();
  auto bt = build_cloud(3000, 107, nleaf);
  const auto nodes = bt.tree.nodes();
  for (const TreeNode& node : nodes) {
    if (node.is_leaf()) continue;
    std::uint32_t covered = 0;
    sfc::Key prev_end = node.key_begin;
    for (std::uint8_t c = 0; c < node.num_children; ++c) {
      const TreeNode& ch = nodes[static_cast<std::size_t>(node.first_child) + c];
      covered += ch.count();
      ASSERT_GT(ch.count(), 0u) << "empty children must not be materialized";
      ASSERT_EQ(ch.level, node.level + 1);
      // Key ranges are nested, ordered and non-overlapping.
      ASSERT_GE(ch.key_begin, prev_end);
      ASSERT_LE(ch.key_end, node.key_end);
      prev_end = ch.key_end;
    }
    ASSERT_EQ(covered, node.count());
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, OctreeNleafTest, ::testing::Values(1, 8, 16, 64));

TEST(Octree, ParticleKeysInsideNodeKeyRange) {
  auto bt = build_cloud(2000, 109, 16);
  for (const TreeNode& node : bt.tree.nodes()) {
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) {
      ASSERT_GE(bt.parts.key[i], node.key_begin);
      ASSERT_LT(bt.parts.key[i], node.key_end);
    }
  }
}

TEST(Octree, BoxesContainParticlesAndNest) {
  auto bt = build_cloud(2000, 113, 16);
  const auto nodes = bt.tree.nodes();
  for (const TreeNode& node : nodes) {
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i)
      ASSERT_TRUE(node.box.contains(bt.parts.pos(i)));
    if (!node.is_leaf()) {
      for (std::uint8_t c = 0; c < node.num_children; ++c) {
        const TreeNode& ch = nodes[static_cast<std::size_t>(node.first_child) + c];
        ASSERT_TRUE(node.box.contains(ch.box.lo));
        ASSERT_TRUE(node.box.contains(ch.box.hi));
      }
    }
  }
}

TEST(Octree, RootMonopoleMatchesGlobal) {
  auto bt = build_cloud(5000, 127, 16);
  const TreeNode& root = bt.tree.root();
  EXPECT_NEAR(root.mp.mass, bt.parts.total_mass(), 1e-9 * bt.parts.total_mass());
  Vec3d com{};
  for (std::size_t i = 0; i < bt.parts.size(); ++i)
    com += bt.parts.mass[i] * bt.parts.pos(i);
  com /= bt.parts.total_mass();
  EXPECT_NEAR(root.mp.com.x, com.x, 1e-9);
  EXPECT_NEAR(root.mp.com.y, com.y, 1e-9);
  EXPECT_NEAR(root.mp.com.z, com.z, 1e-9);
}

TEST(Octree, InternalMultipolesMatchDirectComputation) {
  // Parallel-axis combination must equal the moment computed from scratch.
  auto bt = build_cloud(4000, 131, 16);
  const auto nodes = bt.tree.nodes();
  for (std::size_t k = 0; k < nodes.size(); k += 7) {  // sample nodes
    const TreeNode& node = nodes[k];
    if (node.count() == 0) continue;
    Multipole ref;
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i) {
      ref.mass += bt.parts.mass[i];
      ref.com += bt.parts.mass[i] * bt.parts.pos(i);
    }
    ref.com /= ref.mass;
    for (std::uint32_t i = node.part_begin; i < node.part_end; ++i)
      ref.quad.add_outer(bt.parts.pos(i) - ref.com, bt.parts.mass[i]);

    ASSERT_NEAR(node.mp.mass, ref.mass, 1e-9 * ref.mass);
    ASSERT_NEAR(norm(node.mp.com - ref.com), 0.0, 1e-9);
    for (int q = 0; q < 6; ++q)
      ASSERT_NEAR(node.mp.quad.q[q], ref.quad.q[q], 1e-7 * (1.0 + std::abs(ref.quad.q[q])));
  }
}

TEST(Octree, QuadrupoleTraceNonNegative) {
  // Q = sum m r r^T is positive semi-definite, so tr(Q) >= 0 always.
  auto bt = build_cloud(3000, 137, 16);
  for (const TreeNode& node : bt.tree.nodes())
    ASSERT_GE(node.mp.quad.trace(), -1e-12);
}

TEST(Octree, RcritScalesInverselyWithTheta) {
  auto bt = build_cloud(1000, 139, 16, 0.4);
  std::vector<double> rc04;
  for (const TreeNode& n : bt.tree.nodes()) rc04.push_back(n.rcrit);
  set_opening_angle(bt.tree.mutable_nodes(), 0.8);
  const auto nodes = bt.tree.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].count() == 0) continue;
    // l/0.8 + d < l/0.4 + d.
    ASSERT_LT(nodes[i].rcrit, rc04[i] + 1e-12);
  }
}

TEST(Octree, EmptySetYieldsEmptyRoot) {
  ParticleSet parts;
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  Octree tree;
  tree.build(parts);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root().count(), 0u);
}

TEST(Octree, SingleParticle) {
  ParticleSet parts;
  parts.add({{0.25, 0.5, 0.75}, {0, 0, 0}, 2.5, 0});
  sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.4);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_EQ(tree.root().count(), 1u);
  EXPECT_DOUBLE_EQ(tree.root().mp.mass, 2.5);
  EXPECT_NEAR(norm(tree.root().mp.com - Vec3d(0.25, 0.5, 0.75)), 0.0, 1e-12);
  EXPECT_NEAR(tree.root().mp.quad.trace(), 0.0, 1e-20);
}

TEST(Octree, CoincidentParticlesTerminateAtMaxLevel) {
  // 100 particles at the same position can never be split below nleaf;
  // construction must still terminate (leaf at kMaxLevel).
  ParticleSet parts;
  for (int i = 0; i < 100; ++i) parts.add({{0.5, 0.5, 0.5}, {0, 0, 0}, 1.0, static_cast<std::uint64_t>(i)});
  parts.add({{0.1, 0.1, 0.1}, {0, 0, 0}, 1.0, 100});
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts, 16);
  tree.compute_properties(parts, 0.4);
  std::uint32_t covered = 0;
  for (const TreeNode& n : tree.nodes())
    if (n.is_leaf()) covered += n.count();
  EXPECT_EQ(covered, parts.size());
}

TEST(Octree, UnsortedInputRejected) {
  ParticleSet parts = random_cloud(100, 149);
  sfc::KeySpace space(parts.bounds());
  for (std::size_t i = 0; i < parts.size(); ++i) parts.key[i] = space.key(parts.pos(i));
  // Deliberately not sorted: builder must refuse rather than mis-build.
  bool sorted = std::is_sorted(parts.key.begin(), parts.key.end());
  if (!sorted) {
    Octree tree;
    EXPECT_THROW(tree.build(parts), std::logic_error);
  }
}

TEST(Octree, DepthGrowsWithClustering) {
  auto spread = build_cloud(2000, 151, 16);
  // Same count squeezed into a tiny ball inside a huge key space.
  ParticleSet tight;
  Xoshiro256 rng(153);
  for (int i = 0; i < 2000; ++i) {
    Particle p;
    p.pos = Vec3d{0.5, 0.5, 0.5} + rng.unit_sphere() * (1e-6 * rng.uniform());
    p.mass = 1.0;
    p.id = static_cast<std::uint64_t>(i);
    tight.add(p);
  }
  sfc::KeySpace space(AABB{{0, 0, 0}, {1, 1, 1}});
  sort_by_keys(tight, space);
  Octree tight_tree;
  tight_tree.build(tight, 16);
  EXPECT_GT(tight_tree.max_depth(), spread.tree.max_depth());
}

// ---- the (key, id) radix sort ------------------------------------------------

// The order the radix sort must reproduce: (key, id), input order last.
std::vector<std::uint32_t> comparator_order(const std::vector<sfc::Key>& keys,
                                            const std::vector<std::uint64_t>& ids) {
  std::vector<std::uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && ids[a] < ids[b]);
  });
  return perm;
}

TEST(RadixSort, MatchesKeyIdComparator) {
  Xoshiro256 rng(157);
  struct Case {
    const char* name;
    std::vector<sfc::Key> keys;
    std::vector<std::uint64_t> ids;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", {}, {}});
  cases.push_back({"one", {sfc::kKeyEnd - 1}, {7}});
  {
    // All keys equal, ids descending: the whole input is one tie run.
    Case c{"all-equal keys, descending ids", {}, {}};
    for (std::uint64_t i = 0; i < 3000; ++i) {
      c.keys.push_back(0x123456789ull);
      c.ids.push_back(3000 - i);
    }
    cases.push_back(c);
  }
  {
    // Keys over the whole 63-bit range (bit 62 set in about half), with
    // duplicates of both keys and ids, and ids using bit 63.
    Case c{"full-range keys", {}, {}};
    for (int i = 0; i < 5000; ++i) {
      const sfc::Key k = rng() & (sfc::kKeyEnd - 1);
      c.keys.push_back(i % 7 == 0 && i > 0 ? c.keys[static_cast<std::size_t>(i) / 2] : k);
      c.ids.push_back(i % 5 == 0 ? std::uint64_t{42} : rng());
    }
    cases.push_back(c);
  }
  {
    // A narrow key interval (one rank's domain): most digits are shared and
    // their passes skipped.
    Case c{"narrow interval", {}, {}};
    for (int i = 0; i < 4000; ++i) {
      c.keys.push_back((sfc::Key{1} << 62) + (rng() & 0xFFFFF));
      c.ids.push_back(static_cast<std::uint64_t>(4000 - i));
    }
    cases.push_back(c);
  }
  bool saw_bit62 = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (const sfc::Key k : c.keys) saw_bit62 |= (k >> 62) & 1;
    EXPECT_EQ(key_id_order(c.keys, c.ids), comparator_order(c.keys, c.ids));
  }
  EXPECT_TRUE(saw_bit62);
}

TEST(RadixSort, SortByKeysOrdersTheWholeSet) {
  ParticleSet parts = random_cloud(2500, 159);
  for (std::size_t i = 0; i < parts.size(); ++i) parts.id[i] = parts.size() - i;
  const ParticleSet before = parts;
  const sfc::KeySpace space(parts.bounds());
  const std::vector<std::uint32_t> perm = sort_by_keys(parts, space);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::uint32_t j = perm[i];
    EXPECT_EQ(parts.key[i], space.key(before.pos(j)));
    EXPECT_EQ(parts.pos(i), before.pos(j));
    EXPECT_EQ(parts.vel(i), before.vel(j));
    EXPECT_EQ(parts.mass[i], before.mass[j]);
    EXPECT_EQ(parts.id[i], before.id[j]);
    if (i > 0) {
      EXPECT_TRUE(parts.key[i - 1] < parts.key[i] ||
                  (parts.key[i - 1] == parts.key[i] && parts.id[i - 1] < parts.id[i]));
    }
  }
}

}  // namespace
}  // namespace bonsai
