#include "tree/traverse.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

#if BONSAI_KERNEL_X86
#include <immintrin.h>  // _CMP_GT_OQ, _MM_FROUND_CUR_DIRECTION
#endif

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

WalkTree::WalkTree(const TreeView& view) : src(view) {
  const std::size_t n = view.nodes.size();
  BNS_CHECK(n < (std::size_t{1} << 30), "walk stack entries pack node indices in 30 bits");
  for (auto* column : {&com_x, &com_y, &com_z, &rcrit2}) column->assign(n + kChildBlock, 0.0);
  first_child.resize(n);
  num_children.resize(n);
  action.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TreeNode& node = view.nodes[i];
    com_x[i] = node.mp.com.x;
    com_y[i] = node.mp.com.y;
    com_z[i] = node.mp.com.z;
    rcrit2[i] = node.rcrit * node.rcrit;
    first_child[i] = node.first_child;
    num_children[i] = node.num_children;
    switch (node.kind) {
      case NodeKind::kInternal: action[i] = WalkAction::kOpen; break;
      // A pruned LET branch: the sender guaranteed the MAC holds for every
      // point of our domain, so the multipole is always usable.
      case NodeKind::kMultipoleLeaf: action[i] = WalkAction::kCell; break;
      // Only a particle leaf is skippable when empty: LET internal nodes
      // carry no opened particles of their own but still hold live children.
      case NodeKind::kParticleLeaf:
        action[i] = node.count() == 0 ? WalkAction::kSkip : WalkAction::kLeaf;
        break;
    }
  }
}

namespace {

// ---- child test -----------------------------------------------------------------
//
// The MAC accepts a node when the squared distance from the group box to its
// COM exceeds rcrit^2. The vector test below reproduces AABB::min_dist2
// operation for operation — per axis the first largest of (lo - p, 0,
// p - hi), squares summed x, y, z — so every decision equals the scalar
// one, NaN COMs included (they are never accepted). That only holds
// without FMA contraction: a fused d2 + d*d rounds once where min_dist2
// rounds twice and can flip a knife-edge decision. Every variant is
// therefore compiled with fp-contract=off.

// Helpers take and return vectors by value and are always inlined into the
// target("...") entry points, so no call crosses the ABI boundary gcc warns
// about (the warning is reported at the end of the file).
#if BONSAI_KERNEL_X86
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define BONSAI_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define BONSAI_NO_FP_CONTRACT
#endif

template <std::uint32_t W>
struct ChildLanes {
  static_assert(WalkTree::kChildBlock % W == 0, "a child block must fill whole vectors");
  static constexpr std::uint32_t kLanes = W;
  typedef double D __attribute__((vector_size(W * sizeof(double))));
};

struct PortableChildIsa : ChildLanes<2> {
  [[gnu::always_inline]] static inline unsigned greater(const D& a, const D& b) {
    const auto gt = a > b;
    unsigned bits = 0;
    for (std::uint32_t l = 0; l < kLanes; ++l) bits |= static_cast<unsigned>(gt[l] & 1) << l;
    return bits;
  }
};

#if BONSAI_KERNEL_X86
struct Avx2ChildIsa : ChildLanes<4> {
  [[gnu::always_inline]] static inline unsigned greater(const D& a, const D& b) {
    return static_cast<unsigned>(
        __builtin_ia32_movmskpd256(__builtin_ia32_cmppd256(a, b, _CMP_GT_OQ)));
  }
};

struct Avx512ChildIsa : ChildLanes<8> {
  [[gnu::always_inline]] static inline unsigned greater(const D& a, const D& b) {
    return __builtin_ia32_cmppd512_mask(a, b, _CMP_GT_OQ, 0xff, _MM_FROUND_CUR_DIRECTION);
  }
};
#endif

template <class D>
[[gnu::always_inline]] inline D load(const double* p) {
  D v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class D>
[[gnu::always_inline]] inline D broadcast(double x) {
  D v;
  for (std::size_t l = 0; l < sizeof(D) / sizeof(double); ++l) v[l] = x;
  return v;
}

// std::max({lo - p, 0.0, p - hi}) lane by lane: the first of the largest.
template <class D>
[[gnu::always_inline]] inline D axis_gap(const D& lo, const D& p, const D& hi) {
  const D zero{};
  D d = lo - p;
  d = d < zero ? zero : d;
  const D up = p - hi;
  return d < up ? up : d;
}

template <class Isa>
struct GroupBox {
  using D = typename Isa::D;
  D lox, loy, loz, hix, hiy, hiz;

  [[gnu::always_inline]] explicit GroupBox(const AABB& box)
      : lox(broadcast<D>(box.lo.x)),
        loy(broadcast<D>(box.lo.y)),
        loz(broadcast<D>(box.lo.z)),
        hix(broadcast<D>(box.hi.x)),
        hiy(broadcast<D>(box.hi.y)),
        hiz(broadcast<D>(box.hi.z)) {}
};

// Bit l set when node `first + l` is MAC-accepted, for kLanes nodes.
template <class Isa>
[[gnu::always_inline]] inline unsigned accepted(const WalkTree& w, std::size_t first,
                                                const GroupBox<Isa>& b) {
  using D = typename Isa::D;
  const D dx = axis_gap(b.lox, load<D>(w.com_x.data() + first), b.hix);
  const D dy = axis_gap(b.loy, load<D>(w.com_y.data() + first), b.hiy);
  const D dz = axis_gap(b.loz, load<D>(w.com_z.data() + first), b.hiz);
  D d2 = dx * dx;
  d2 = d2 + dy * dy;
  d2 = d2 + dz * dz;
  return Isa::greater(d2, load<D>(w.rcrit2.data() + first));
}

// ---- walk -------------------------------------------------------------------------
//
// A stack entry is `node << 2 | action`: the decision is made when the
// parent is opened, and children are pushed first to last (popped last to
// first), skipping empty leaves, which the one-node-at-a-time walk popped
// and dropped. Pops, and therefore staged cells and leaves, come out in that
// walk's order.

template <class Isa>
[[gnu::always_inline]] inline void open_children(const WalkTree& w, const GroupBox<Isa>& box,
                                                 std::uint32_t first, std::uint32_t count,
                                                 std::vector<std::uint32_t>& stack) {
  for (std::uint32_t c = 0; c < count; c += Isa::kLanes) {
    const unsigned accept = accepted<Isa>(w, first + c, box);
    const std::uint32_t lanes = std::min(Isa::kLanes, count - c);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      const std::uint32_t child = first + c + l;
      WalkAction action = w.action[child];
      if (action == WalkAction::kSkip) continue;
      if ((accept >> l) & 1u) action = WalkAction::kCell;
      stack.push_back(child << 2 | static_cast<std::uint32_t>(action));
    }
  }
}

template <class Isa>
[[gnu::always_inline]] inline void walk_group(const WalkTree& w, const AABB& group_box,
                                              InteractionQueue& queue,
                                              std::vector<std::uint32_t>& stack) {
  const GroupBox<Isa> box(group_box);
  stack.clear();
  open_children(w, box, 0, 1, stack);  // the root, as a one-node block
  while (!stack.empty()) {
    const std::uint32_t entry = stack.back();
    stack.pop_back();
    const std::uint32_t node = entry >> 2;
    switch (static_cast<WalkAction>(entry & 3u)) {
      case WalkAction::kCell: queue.push_cell(node); break;
      case WalkAction::kLeaf: queue.push_leaf(w.src.nodes[node]); break;
      case WalkAction::kOpen:
        open_children(w, box, static_cast<std::uint32_t>(w.first_child[node]),
                      w.num_children[node], stack);
        break;
      case WalkAction::kSkip: break;
    }
  }
}

using WalkFn = void (*)(const WalkTree&, const AABB&, InteractionQueue&,
                        std::vector<std::uint32_t>&);

BONSAI_NO_FP_CONTRACT void walk_portable(const WalkTree& w, const AABB& box,
                                         InteractionQueue& queue,
                                         std::vector<std::uint32_t>& stack) {
  walk_group<PortableChildIsa>(w, box, queue, stack);
}

#if BONSAI_KERNEL_X86
[[gnu::target("avx2")]] BONSAI_NO_FP_CONTRACT void walk_avx2(
    const WalkTree& w, const AABB& box, InteractionQueue& queue,
    std::vector<std::uint32_t>& stack) {
  walk_group<Avx2ChildIsa>(w, box, queue, stack);
}

[[gnu::target("avx512f")]] BONSAI_NO_FP_CONTRACT void walk_avx512(
    const WalkTree& w, const AABB& box, InteractionQueue& queue,
    std::vector<std::uint32_t>& stack) {
  walk_group<Avx512ChildIsa>(w, box, queue, stack);
}
#endif

WalkFn walk_variant([[maybe_unused]] KernelIsa isa) {
#if BONSAI_KERNEL_X86
  if (isa == KernelIsa::kAvx512) return walk_avx512;
  if (isa == KernelIsa::kAvx2) return walk_avx2;
#endif
  return walk_portable;
}

}  // namespace

InteractionStats traverse_one_group_batched(const WalkTree& walk, ParticleSet& targets,
                                            const TargetGroup& group,
                                            const TraversalConfig& config, bool self,
                                            InteractionQueue& queue) {
  if (walk.src.empty() || group.begin == group.end) return InteractionStats{};
  WalkParams params;
  params.eps2 = config.eps * config.eps;
  params.quadrupole = config.quadrupole;
  params.self = self;
  queue.begin_walk(walk.src, targets, params, config.backend, group.begin, group.end);
  thread_local std::vector<std::uint32_t> stack;
  walk_variant(queue.isa())(walk, group.box, queue, stack);
  return queue.finish_walk();
}

InteractionStats traverse_groups_batched(const TreeView& src, ParticleSet& targets,
                                         std::span<const TargetGroup> groups,
                                         const TraversalConfig& config, bool self,
                                         InteractionQueue& queue) {
  const WalkTree walk(src);
  InteractionStats stats;
  for (const TargetGroup& g : groups)
    stats += traverse_one_group_batched(walk, targets, g, config, self, queue);
  return stats;
}

}  // namespace bonsai
