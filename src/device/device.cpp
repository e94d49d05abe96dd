#include "device/device.hpp"

#include <mutex>

#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai {

void Device::sort_particles(ParticleSet& parts, const sfc::KeySpace& space) {
  // Key generation is embarrassingly parallel.
  pool_->parallel_for(parts.size(), [&](std::size_t i) { parts.key[i] = space.key(parts.pos(i)); });
  sort_by_current_keys(parts);
}

void Device::build_tree(const ParticleSet& parts, Octree& tree, int nleaf) {
  tree.build(parts, nleaf);
}

void Device::compute_properties(const ParticleSet& parts, Octree& tree, double theta) {
  tree.compute_properties(parts, theta);
}

InteractionStats Device::compute_forces(const TreeView& src, ParticleSet& targets,
                                        std::span<const TargetGroup> groups,
                                        const TraversalConfig& config, bool self) {
  // Span on the calling (lane/driver) thread: cluster workers only drain the
  // driver thread's ring, so pool-thread spans would be invisible there.
  trace::ScopedSpan span("gravity.eval", trace_rank_);

  // The walk array is built once per source tree and shared read-only by
  // every worker. Each group writes a disjoint particle range, so workers
  // need no locking on the outputs; stats and the walk/drain split merge
  // under a mutex after each group. Each pool thread keeps one staging queue
  // alive across groups (and calls) so the SoA buffers are allocated once
  // per thread, not once per group.
  const WalkTree walk(src);
  std::mutex stats_mutex;
  InteractionStats total;
  pool_->parallel_for(groups.size(), [&](std::size_t g) {
    thread_local InteractionQueue queue;
    const std::int64_t drained_before = queue.drain_ns();
    const std::int64_t start = now_ns();
    const InteractionStats s =
        traverse_one_group_batched(walk, targets, groups[g], config, self, queue);
    const std::int64_t elapsed = now_ns() - start;
    const std::int64_t drained = queue.drain_ns() - drained_before;
    std::lock_guard lock(stats_mutex);
    total += s;
    walk_ns_ += elapsed - drained;
    drain_ns_ += drained;
  });
  span.set_bytes(static_cast<std::uint64_t>(total.p2p + total.p2c));
  return total;
}

GravitySplit Device::take_gravity_split() {
  const GravitySplit split{static_cast<double>(walk_ns_) * 1e-9,
                           static_cast<double>(drain_ns_) * 1e-9};
  walk_ns_ = drain_ns_ = 0;
  return split;
}

}  // namespace bonsai
