// One in-process "rank": the unit of the paper's parallelization. A rank
// owns a particle slice (a contiguous Hilbert-key interval), its own Device,
// its own octree and target groups, and per-stage timings. Each of the
// in-process Simulation's lanes and each socket worker process drives one
// Rank, the way the paper's MPI processes each drive one GPU; swapping this
// emulation for real MPI/GPU backends changes the transport, not the
// dataflow.
#pragma once

#include <cstddef>
#include <string>

#include "device/device.hpp"
#include "domain/let.hpp"
#include "domain/metrics.hpp"
#include "sfc/keys.hpp"
#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "tree/traverse.hpp"
#include "util/aabb.hpp"
#include "util/timer.hpp"

namespace bonsai::domain {

// How redistribute() places the domain boundaries.
enum class BalanceMode {
  kCount,  // equalize sampled particle counts (quantile cuts)
  kCost,   // weight samples by the owner rank's measured gravity s/particle
};

// Per-step knobs shared by every rank (the Simulation owns the authoritative
// copy; ranks receive it by const reference each stage).
struct SimConfig {
  int nranks = 1;
  double theta = 0.4;  // opening angle (paper production value, §IV)
  double eps = 1e-2;   // Plummer softening
  int nleaf = Octree::kDefaultNLeaf;
  int ncrit = 64;  // target-group size
  bool quadrupole = true;
  double dt = 0.0;  // 0 disables integration (forces-only steps)
  sfc::CurveType curve = sfc::CurveType::kHilbert;
  std::size_t samples_per_rank = 4096;        // boundary-key samples per rank
  int snap_level = 8;                         // boundary snap (0 = off)
  std::size_t threads_per_rank = 0;           // 0: hardware threads / nranks
  bool async = true;  // unread, false rejected; deleted in the next benchmark change
  BalanceMode balance = BalanceMode::kCount;  // feedback balancing needs a
                                              // previous step's gravity times
  bool trace = false;                         // record spans (--trace); shipped
                                              // to workers in the Config frame
  KernelBackend kernel = KernelBackend::kSimd;  // batched force backend
                                                // (--kernel); shipped to
                                                // workers in the Config frame
  bool let_cache = false;   // incremental LET exchange (--let-cache); shipped
                            // to workers in the Config frame
  double let_churn = 0.75;  // churn threshold: ship a full Let when the delta
                            // is not below this fraction of the full encoding

  TraversalConfig traversal() const {
    TraversalConfig t;
    t.theta = theta;
    t.eps = eps;
    t.ncrit = ncrit;
    t.quadrupole = quadrupole;
    t.backend = kernel;
    return t;
  }
};

// Why `cfg` cannot drive a simulation, naming the first offending field, or
// empty when it can: nranks in [1, 255] (Config, PeerDirectory, Snapshot and
// JobSpec frames address ranks in one byte), theta, eps and dt finite,
// theta > 0 and eps >= 0. Shared by the in-process and cluster drivers and
// by job submit.
std::string physics_config_error(const SimConfig& cfg);

// Throws CheckError carrying physics_config_error's reason, if it has one.
void check_physics_config(const SimConfig& cfg);

class Rank {
 public:
  Rank(int id, std::size_t num_threads) : id_(id), device_(num_threads) {
    device_.set_trace_rank(id);
  }

  int id() const { return id_; }
  Device& device() { return device_; }
  ParticleSet& parts() { return parts_; }
  const ParticleSet& parts() const { return parts_; }
  const Octree& tree() const { return tree_; }
  std::span<const TargetGroup> groups() const { return groups_; }

  // Sort by SFC key, build the octree, compute multipoles/MAC radii and
  // target groups. Stage timings accumulate into `times` under the Table II
  // row names. The sort reuses the keys the step's exchange left on every
  // particle, which must come from `space` (Debug and sanitizer builds check
  // each one).
  void build(const sfc::KeySpace& space, const SimConfig& cfg, TimeBreakdown& times);

  // Extract this rank's LET for a remote domain box (sender-side work).
  LetTree export_let(const AABB& remote_box) const {
    return build_let(tree_.view(parts_), remote_box);
  }

  // Forces from the rank's own tree (exact self-interactions skipped).
  InteractionStats gravity_local(const SimConfig& cfg, TimeBreakdown& times);

  // Forces from one imported LET.
  InteractionStats gravity_remote(const TreeView& let, const SimConfig& cfg,
                                  TimeBreakdown& times);

  // Symplectic-Euler kick-drift using the freshly computed accelerations.
  void integrate(double dt, TimeBreakdown& times);

  // Book the device's walk/drain split since the last call (local + remote
  // gravity) as the gravity.walk_s and gravity.drain_s counters of `into`.
  void book_gravity_split(metrics::Snapshot& into);

 private:
  int id_;
  Device device_;
  ParticleSet parts_;
  Octree tree_;
  std::vector<TargetGroup> groups_;
};

}  // namespace bonsai::domain
