// Group-based Barnes-Hut tree walk.
//
// Targets are processed in groups of consecutive (SFC-sorted) particles, the
// CPU analogue of Bonsai's warp-cooperative CUDA kernel: one traversal is
// shared by the whole group, with the multipole acceptance criterion (MAC)
// evaluated against the group's bounding box. Accepted cells contribute
// particle-cell interactions; opened leaves contribute particle-particle
// interactions.
//
// There is one walk. It emits interaction lists into an InteractionQueue,
// and a pluggable kernel backend (tree/kernel_backend.*) drains them in SoA
// batches — the paper's traversal/evaluation split (§III-A) that turns the
// walk's output into wide, regular FLOPs.
//
// The walk reads a WalkTree: a compact array built once per source tree per
// force pass and shared read-only by every thread walking it, holding each
// node's COM, rcrit^2, child block and action. Opening a node tests all of
// its children (up to 255) against the group box at once, in double
// precision, with the instruction set of the queue's KernelIsa: one 8-lane
// vector on AVX-512, two 4-lane vectors on AVX2, portable code otherwise.
// Each child's decision rides on its stack entry, so nodes are popped, and
// cells and leaves staged, in exactly the order of a walk that pops one node
// at a time and tests it with AABB::min_dist2; the child test is compiled
// without FMA contraction so it rounds like that scalar test, bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tree/kernel_backend.hpp"
#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"

namespace bonsai {

struct TraversalConfig {
  double theta = 0.4;       // opening angle (paper production value, §IV)
  double eps = 0.0;         // Plummer softening length
  int ncrit = 64;           // max particles per target group
  bool quadrupole = true;   // include quadrupole corrections in p-c kernels
  KernelBackend backend = KernelBackend::kSimd;  // force backend
};

// A contiguous range of target particles walked together.
struct TargetGroup {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  AABB box;
};

// Partition [0, parts.size()) into groups of at most `ncrit` particles and
// compute their bounding boxes. Particles should be SFC-sorted so groups are
// spatially compact. An empty set yields no groups; `ncrit <= 0` is a
// contract violation and throws std::logic_error.
std::vector<TargetGroup> make_groups(const ParticleSet& parts, int ncrit);

// What the walk does with a node it pops: nothing (an empty particle leaf),
// stage it as a cell (MAC-accepted, or a multipole leaf), open it (internal
// node), or stage its particles (particle leaf).
enum class WalkAction : std::uint8_t { kSkip = 0, kCell = 1, kOpen = 2, kLeaf = 3 };

// The walk's compact view of one source tree, in SoA columns indexed by node
// and padded so a child block can always be loaded as whole vectors, plus
// the float moments the simd drain stages for an accepted cell.
struct WalkTree {
  // Children are tested this many at a time; the columns carry this much
  // padding past the last node.
  static constexpr std::size_t kChildBlock = 8;

  explicit WalkTree(const TreeView& src);

  TreeView src;
  std::vector<double> com_x, com_y, com_z, rcrit2;  // MAC inputs
  std::vector<std::int32_t> first_child;
  std::vector<std::uint8_t> num_children;
  std::vector<WalkAction> action;  // when the MAC rejects the node
  std::vector<CellMoments> moments;  // simd cell staging, beside the COM columns
};

// Single-group walk (the unit of work the device scheduler dispatches):
// stages interaction lists into `queue`, where `config.backend` drains them,
// and returns the interaction counts for performance accounting. If `self`
// is true, the walked tree's particles are the `targets` array and exact
// self-interactions (same index) are skipped. The child test runs on
// queue.isa().
InteractionStats traverse_one_group_batched(const WalkTree& walk, ParticleSet& targets,
                                            const TargetGroup& group,
                                            const TraversalConfig& config, bool self,
                                            InteractionQueue& queue);

// Walk `src` for every group through one queue (convenience / tests).
InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue);

}  // namespace bonsai
