#include "tree/traverse.hpp"

#include <algorithm>

#include "tree/kernels.hpp"
#include "util/check.hpp"

namespace bonsai {

std::vector<TargetGroup> make_groups(const ParticleSet& parts, int ncrit) {
  BNS_CHECK(ncrit >= 1, "target groups need a positive capacity");
  if (parts.empty()) return {};
  const auto n = static_cast<std::uint32_t>(parts.size());
  std::vector<TargetGroup> groups;
  groups.reserve((n + ncrit - 1) / ncrit);
  for (std::uint32_t b = 0; b < n; b += static_cast<std::uint32_t>(ncrit)) {
    TargetGroup g;
    g.begin = b;
    g.end = std::min(n, b + static_cast<std::uint32_t>(ncrit));
    for (std::uint32_t i = g.begin; i < g.end; ++i) g.box.expand(parts.pos(i));
    groups.push_back(g);
  }
  return groups;
}

namespace {

// MAC: the cell may be used as a multipole if the minimum distance between
// the target region and the cell COM exceeds rcrit = l/theta + delta.
inline bool mac_accept(const AABB& target_region, const TreeNode& node) {
  return target_region.min_dist2(node.mp.com) > node.rcrit * node.rcrit;
}

inline bool mac_accept(const Vec3d& target, const TreeNode& node) {
  const Vec3d d = node.mp.com - target;
  return norm2(d) > node.rcrit * node.rcrit;
}

// Apply an accepted cell to every target in [begin, end).
inline void apply_cell(const TreeNode& node, ParticleSet& targets, std::uint32_t begin,
                       std::uint32_t end, double eps2, bool quadrupole,
                       InteractionStats& stats) {
  for (std::uint32_t i = begin; i < end; ++i) {
    ForceAccum<double> f{};
    if (quadrupole) {
      pc_kernel(targets.pos(i), node.mp, eps2, f);
    } else {
      pc_kernel_monopole(targets.pos(i), node.mp, eps2, f);
    }
    targets.ax[i] += f.ax;
    targets.ay[i] += f.ay;
    targets.az[i] += f.az;
    targets.pot[i] += f.pot;
  }
  stats.p2c += end - begin;
  stats.p2c_padded += end - begin;  // inline evaluation pads nothing
}

// Apply an opened leaf's particles to every target in [begin, end).
inline void apply_leaf(const TreeView& src, const TreeNode& leaf, ParticleSet& targets,
                       std::uint32_t begin, std::uint32_t end, double eps2, bool self,
                       InteractionStats& stats) {
  for (std::uint32_t i = begin; i < end; ++i) {
    ForceAccum<double> f{};
    const double tx = targets.x[i], ty = targets.y[i], tz = targets.z[i];
    std::uint64_t applied = 0;
    for (std::uint32_t j = leaf.part_begin; j < leaf.part_end; ++j) {
      if (self && j == i) continue;  // exact self-interaction
      pp_kernel<double>(tx, ty, tz, src.x[j], src.y[j], src.z[j], src.m[j], eps2, f);
      ++applied;
    }
    targets.ax[i] += f.ax;
    targets.ay[i] += f.ay;
    targets.az[i] += f.az;
    targets.pot[i] += f.pot;
    stats.p2p += applied;
    stats.p2p_padded += applied;
  }
}

}  // namespace

InteractionStats traverse_one_group(const TreeView& src, ParticleSet& targets,
                                    const TargetGroup& group,
                                    const TraversalConfig& config, bool self) {
  InteractionStats stats;
  if (src.empty() || group.begin == group.end) return stats;
  const double eps2 = config.eps * config.eps;

  std::vector<std::int32_t> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const TreeNode& node = src.nodes[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    // Only a particle leaf is skippable when empty: LET internal nodes carry
    // no opened particles of their own but still hold live children, and
    // multipole leaves carry none by construction.
    if (node.count() == 0 && node.kind == NodeKind::kParticleLeaf) continue;

    if (mac_accept(group.box, node)) {
      apply_cell(node, targets, group.begin, group.end, eps2, config.quadrupole, stats);
      continue;
    }
    switch (node.kind) {
      case NodeKind::kInternal:
        for (std::uint8_t c = 0; c < node.num_children; ++c)
          stack.push_back(node.first_child + c);
        break;
      case NodeKind::kParticleLeaf:
        apply_leaf(src, node, targets, group.begin, group.end, eps2, self, stats);
        break;
      case NodeKind::kMultipoleLeaf:
        // Pruned LET branch: the sender guaranteed the MAC holds for every
        // point of our domain, so the multipole is always usable.
        apply_cell(node, targets, group.begin, group.end, eps2, config.quadrupole, stats);
        break;
    }
  }
  return stats;
}

InteractionStats traverse_one_group_batched(const TreeView& src, ParticleSet& targets,
                                            const TargetGroup& group,
                                            const TraversalConfig& config, bool self,
                                            InteractionQueue& queue) {
  if (src.empty() || group.begin == group.end) return InteractionStats{};
  WalkParams params;
  params.eps2 = config.eps * config.eps;
  params.quadrupole = config.quadrupole;
  params.self = self;
  queue.begin_walk(src, targets, params, config.backend, group.begin, group.end);

  // Same stack discipline and MAC decisions as traverse_one_group; the only
  // difference is that accepted cells and opened leaves are staged instead of
  // evaluated on the spot.
  std::vector<std::int32_t> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const auto index = static_cast<std::uint32_t>(stack.back());
    const TreeNode& node = src.nodes[index];
    stack.pop_back();
    if (node.count() == 0 && node.kind == NodeKind::kParticleLeaf) continue;

    if (mac_accept(group.box, node)) {
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

InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue) {
  InteractionStats stats;
  for (const TargetGroup& g : groups)
    stats += traverse_one_group_batched(src, targets, g, config, self, queue);
  return stats;
}

InteractionStats traverse_groups(const TreeView& src, ParticleSet& targets,
                                 std::span<const TargetGroup> groups,
                                 const TraversalConfig& config, bool self) {
  InteractionStats stats;
  for (const TargetGroup& g : groups)
    stats += traverse_one_group(src, targets, g, config, self);
  return stats;
}

InteractionStats traverse_single(const TreeView& src, ParticleSet& targets,
                                 std::uint32_t target_index,
                                 const TraversalConfig& config, bool self) {
  InteractionStats stats;
  if (src.empty()) return stats;
  const double eps2 = config.eps * config.eps;
  const Vec3d tpos = targets.pos(target_index);

  std::vector<std::int32_t> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const TreeNode& node = src.nodes[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (node.count() == 0 && node.kind == NodeKind::kParticleLeaf) continue;

    const bool accept = node.kind == NodeKind::kMultipoleLeaf || mac_accept(tpos, node);
    if (accept) {
      apply_cell(node, targets, target_index, target_index + 1, eps2, config.quadrupole,
                 stats);
      continue;
    }
    if (node.kind == NodeKind::kInternal) {
      for (std::uint8_t c = 0; c < node.num_children; ++c)
        stack.push_back(node.first_child + c);
    } else {
      apply_leaf(src, node, targets, target_index, target_index + 1, eps2, self, stats);
    }
  }
  return stats;
}

}  // namespace bonsai
