// The "GPU" of this reproduction.
//
// Bonsai's defining design decision (§III-A) is that *every* stage of the
// tree algorithm — key sort, tree construction, multipole computation and the
// tree walk — executes on the device, leaving the CPU only communication and
// orchestration. Device reproduces that architecture on host threads: it owns
// a worker pool (the "SMs"), dispatches target groups the way Bonsai
// dispatches warps, and is the only component allowed to touch particle data
// during a step. The interaction counts it records feed the flops accounting
// in util/flops.hpp, the same force-only convention the paper's performance
// numbers use (§VI-A).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "device/thread_pool.hpp"
#include "sfc/keys.hpp"
#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "tree/traverse.hpp"
#include "util/flops.hpp"

namespace bonsai {

// Threads per warp on the hardware the paper targets (footnote 4).
inline constexpr int kWarpSize = 32;

// Where compute_forces spent its device-seconds: walking the tree and staging
// interaction lists, versus draining the staged batches through the kernel.
// Summed over every pool thread, so both are device-seconds, not wall time.
struct GravitySplit {
  double walk_s = 0.0;
  double drain_s = 0.0;
};

class Device {
 public:
  // `num_threads == 0` uses all hardware threads. The thread that calls a
  // stage is one of them: a Device of T threads starts T - 1 pool workers
  // (none for T = 1) and runs loop chunks on the caller as well.
  explicit Device(std::size_t num_threads = 0)
      : num_threads_(num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                                      : num_threads),
        pool_(std::make_unique<ThreadPool>(num_threads_ - 1)) {}

  std::size_t num_threads() const { return num_threads_; }
  ThreadPool& pool() { return *pool_; }

  // Rank id stamped onto this device's trace spans (-1 = untagged).
  void set_trace_rank(int rank) { trace_rank_ = rank; }

  // --- Pipeline stages (Table II rows) -----------------------------------

  // "Sorting SFC": compute keys in parallel and sort the particle arrays by
  // (key, id).
  void sort_particles(ParticleSet& parts, const sfc::KeySpace& space);

  // "Tree-construction": build the octree over the sorted particles.
  void build_tree(const ParticleSet& parts, Octree& tree,
                  int nleaf = Octree::kDefaultNLeaf);

  // "Tree-properties": boxes, multipoles and MAC radii.
  void compute_properties(const ParticleSet& parts, Octree& tree, double theta);

  // "Compute gravity": walk `src` for all groups in parallel, accumulating
  // accelerations into `targets`. Groups are dispatched across workers the
  // way warps are scheduled onto SMs. One WalkTree of `src` is built per
  // call and shared by the workers; each walks its group into a
  // thread-local InteractionQueue and `config.backend` drains the staged
  // batches (tree/kernel_backend.hpp); emits a `gravity.eval` trace span on
  // the calling thread.
  InteractionStats compute_forces(const TreeView& src, ParticleSet& targets,
                                  std::span<const TargetGroup> groups,
                                  const TraversalConfig& config, bool self);

  // The walk/drain split accumulated by compute_forces since the last call,
  // and reset. Each pool thread samples the clock twice per group walk and
  // the queue twice per drain.
  GravitySplit take_gravity_split();

  // Generic data-parallel loop (integration, diagnostics, key generation).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool_->parallel_for(n, fn);
  }

 private:
  std::size_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;
  int trace_rank_ = -1;
  std::int64_t walk_ns_ = 0, drain_ns_ = 0;
};

}  // namespace bonsai
