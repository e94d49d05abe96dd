#include "device/device.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai {

void Device::sort_particles(ParticleSet& parts, const sfc::KeySpace& space) {
  const std::size_t n = parts.size();
  if (n == 0) return;

  // Key generation is embarrassingly parallel.
  pool_->parallel_for(n, [&](std::size_t i) { parts.key[i] = space.key(parts.pos(i)); });

  // Parallel chunk sort + serial multiway merge of the permutation.
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    return parts.key[a] < parts.key[b] ||
           (parts.key[a] == parts.key[b] && parts.id[a] < parts.id[b]);
  };

  const std::size_t chunks = std::max<std::size_t>(1, pool_->num_threads());
  const std::size_t chunk_len = (n + chunks - 1) / chunks;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t b = 0; b < n; b += chunk_len)
    ranges.emplace_back(b, std::min(n, b + chunk_len));

  pool_->parallel_for(ranges.size(), [&](std::size_t r) {
    std::sort(perm.begin() + static_cast<std::ptrdiff_t>(ranges[r].first),
              perm.begin() + static_cast<std::ptrdiff_t>(ranges[r].second), cmp);
  });

  // Iterative pairwise in-place merges (log2(chunks) passes).
  for (std::size_t step = 1; step < ranges.size(); step *= 2) {
    for (std::size_t r = 0; r + step < ranges.size(); r += 2 * step) {
      const auto begin = perm.begin() + static_cast<std::ptrdiff_t>(ranges[r].first);
      const auto mid = perm.begin() + static_cast<std::ptrdiff_t>(ranges[r + step].first);
      const auto end =
          perm.begin() +
          static_cast<std::ptrdiff_t>(ranges[std::min(r + 2 * step, ranges.size()) - 1].second);
      std::inplace_merge(begin, mid, end, cmp);
    }
  }

  parts.apply_permutation(perm);
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
