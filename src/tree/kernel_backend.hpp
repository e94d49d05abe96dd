// Pluggable force-kernel backends draining staged interaction lists.
//
// This is the paper's traversal/evaluation split (§III-A, §VI-A): the group
// walk (tree/traverse.*) does not evaluate forces but *emits* interaction
// lists — (target-group × accepted-cell) and (target-group × leaf-particle)
// records — into an InteractionQueue, and a kernel backend burns the staged
// batches down as wide, regular FLOPs over structure-of-arrays buffers. The
// same seam is where a CUDA/SYCL backend drops in later: the queue is the
// host side of the device interaction buffer, the drain is the kernel launch.
//
// Staging is sized once per queue and written by index: a cell is one slot,
// an opened leaf's contiguous particles are converted in one loop, and the
// self-pairs of a self walk are counted from leaf ranges as they are staged.
//
// Backends:
//   scalar — replays pp_kernel/pc_kernel per staged interaction, in staged
//            order, in double precision: the bitwise correctness reference.
//   simd   — the paper's mixed-precision device path (§III-A, after Gaburov
//            et al. 2010): sources and targets are staged in float relative
//            to the walk's centre (a target position), r^-1 comes from the
//            hardware reciprocal-square-root estimate plus one Newton step,
//            and each batch's float sums are added into the double target
//            arrays. The instruction set is picked once per process
//            (KernelIsa): AVX-512, AVX2+FMA or a portable fallback. The
//            walk's child test is dispatched on the same KernelIsa.
//
// The simd drain pads each walk's targets to kKernelBatchPad lanes (repeating
// the last target, whose sums are dropped) and holds two target vectors in
// registers per sweep over the sources, so each source is loaded once per
// two vectors. A self walk masks self-interactions per lane instead of
// branching around them, but only over the staged slots holding the group's
// own particles; every other slot runs unmasked, which is bit-identical
// because the mask only ever adds +0.0f and multiplies by 1.0f there.
// InteractionStats carries both the useful and the padded interaction counts
// (util/flops.hpp) so the Gflop/s accounting stays honest.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"
#include "util/vec3.hpp"

namespace bonsai {

enum class KernelBackend : std::uint8_t {
  kScalar = 0,
  kSimd = 1,
};

// Stable CLI / wire / report names: "scalar", "simd".
const char* kernel_backend_name(KernelBackend backend);
std::optional<KernelBackend> kernel_backend_from_name(std::string_view name);

// Every backend, in enum order (CLI help and error messages list these).
inline constexpr std::array<KernelBackend, 2> kKernelBackends = {KernelBackend::kScalar,
                                                                 KernelBackend::kSimd};

// Instruction-set variants of the simd drain. All share one loop body; only
// the reciprocal-square-root estimate differs per ISA.
//
// The AVX2 and AVX-512 variants (of the drain and of the walk's child test)
// are gcc target("...") functions on x86-64; any other compiler or
// architecture builds the portable variant only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define BONSAI_KERNEL_X86 1
#else
#define BONSAI_KERNEL_X86 0
#endif

enum class KernelIsa : std::uint8_t {
  kPortable = 0,  // plain vector code, exact 1/sqrt estimate
  kAvx2 = 1,      // rsqrtps + FMA, 8 lanes
  kAvx512 = 2,    // rsqrt14ps, 16 lanes
};

const char* kernel_isa_name(KernelIsa isa);  // "portable", "avx2+fma", "avx512"

// True when `isa` is compiled into this binary and the host CPU runs it.
bool kernel_isa_supported(KernelIsa isa);

// The widest supported variant, detected once per process. The simd drain
// uses it unless a queue is built for a specific variant.
KernelIsa dispatched_kernel_isa();

// Lanes a batch is padded to: one AVX-512 float vector (two AVX2, four
// portable), so every ISA evaluates exactly the padded lanes.
inline constexpr std::size_t kKernelBatchPad = 16;

// Per-walk parameters shared by every batch of one group walk.
struct WalkParams {
  double eps2 = 0.0;
  bool quadrupole = true;
  bool self = false;  // targets alias the source particle array
};

// Staging queue for one worker thread. Usage per target group:
//
//   queue.begin_walk(src, targets, params, backend, target_begin, target_end);
//   ... push_cell / push_leaf while walking ...
//   InteractionStats s = queue.finish_walk();
//
// finish_walk drains everything staged. When the staged source slots would
// reach `capacity` mid-walk the queue flushes — drains the pending cell and
// leaf batches through the backend and starts over — so the staging memory
// stays bounded no matter how deep a walk opens the tree. (A single leaf
// larger than `capacity` is staged whole, after a flush.)
class InteractionQueue {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  // `isa` selects the simd variant; production code keeps the dispatched
  // one, tests pass each supported variant to check them all.
  explicit InteractionQueue(std::size_t capacity = kDefaultCapacity,
                            KernelIsa isa = dispatched_kernel_isa());

  void begin_walk(const TreeView& src, ParticleSet& targets, const WalkParams& params,
                  KernelBackend backend, std::uint32_t target_begin,
                  std::uint32_t target_end);

  // Stage the MAC-accepted cell src.nodes[node] (internal node or multipole
  // leaf) against the current walk's target range. Only the index is
  // recorded here; the simd moments are converted in one pass per flush.
  void push_cell(std::uint32_t node) {
    if (ncell_ + nleaf_ >= capacity_) flush();
    cell_node_[ncell_++] = node;
  }

  // Stage an opened particle leaf's source particles against the current
  // walk's target range.
  void push_leaf(const TreeNode& leaf);

  // Drain everything still staged and return (and reset) the interaction
  // statistics accumulated since begin_walk. The queue is reusable
  // afterwards.
  InteractionStats finish_walk();

  std::size_t capacity() const { return capacity_; }
  KernelIsa isa() const { return isa_; }

  // Nanoseconds this queue has spent draining batches since construction
  // (two clock samples per flush); callers difference it around a walk to
  // split walk time from drain time.
  std::int64_t drain_ns() const { return drain_ns_; }

 private:
  // Staged columns, allocated once (uninitialized: only written slots are
  // ever read) and written by index.
  template <typename T>
  using Column = std::unique_ptr<T[]>;

  void flush();
  void stage_targets();
  void stage_cells();
  void grow_leaf_columns(std::size_t slots);
  void drain_cells();
  void drain_leaves();
  void drain_simd(bool cells);
  std::uint64_t evaluated_targets() const;

  std::size_t capacity_;
  KernelIsa isa_;

  // Walk context (set by begin_walk).
  TreeView src_{};
  ParticleSet* targets_ = nullptr;
  WalkParams params_{};
  KernelBackend backend_ = KernelBackend::kSimd;
  std::uint32_t target_begin_ = 0, target_end_ = 0;
  Vec3d centre_{};  // simd staging origin: the first target's position

  // Staged sources since the last flush: cells in slots [0, ncell_), leaf
  // particles in [0, nleaf_). Both backends record what they stage by index —
  // cells by node index, leaf particles by particle index — and the scalar
  // replay reads the double-precision source data through those indices. The
  // simd backend additionally stages float SoA relative to centre_: leaves
  // as x y z m when pushed, cells as x y z m qxx qxy qxz qyy qyz qzz
  // (Quadrupole::q order) when flushed.
  std::size_t ncell_ = 0, nleaf_ = 0, leaf_slots_ = 0;
  Column<std::uint32_t> cell_node_, leaf_part_;
  std::array<Column<float>, 10> fcell_;
  std::array<Column<float>, 4> fleaf_;

  // Self walks: staged particles that are targets of this walk (masked, not
  // useful) and the slot range holding them — the only slots the simd drain
  // masks.
  std::uint64_t self_pairs_ = 0;
  std::size_t self_begin_ = 0, self_end_ = 0;

  // simd drain scratch: the walk's targets as float lanes (positions relative
  // to centre_, global index for self-masking), padded to kKernelBatchPad,
  // and the per-lane float sums of one batch.
  std::array<std::vector<float>, 3> ftarget_;
  std::vector<std::int32_t> ftarget_idx_;
  std::array<std::vector<float>, 4> lane_sum_;

  InteractionStats stats_{};
  std::int64_t drain_ns_ = 0;
};

}  // namespace bonsai
