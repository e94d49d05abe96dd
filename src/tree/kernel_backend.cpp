#include "tree/kernel_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tree/kernels.hpp"
#include "tree/traverse.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

#if BONSAI_KERNEL_X86
#include <immintrin.h>  // declares the AVX2 / AVX-512 builtins and __mmask16
#endif

namespace bonsai {

namespace {

// Target lane index of non-self walks: never equal to a staged source index,
// so the self-mask compare stays uniform and never fires.
constexpr std::int32_t kNoSelf = -1;

std::size_t pad_to(std::size_t n) {
  return (n + kKernelBatchPad - 1) / kKernelBatchPad * kKernelBatchPad;
}

// ---- simd drain ---------------------------------------------------------------
//
// Loop order is source-major: each pass holds kBlock vectors of kLanes
// targets in registers and broadcasts the batch's sources to them one at a
// time, so the lanes need no horizontal reduction and every source is read
// once per kBlock * kLanes targets. The target lanes are padded to
// kKernelBatchPad (every ISA's lane count divides it) by repeating the last
// target, whose sums are then discarded; lanes left over after the last full
// block run as single vectors. Blocking only changes which lanes share a
// source load: every lane still sums its sources in staged order with the
// same operations, so the bits do not depend on the block size.

// The per-ISA helpers and the shared body pass vectors by value. They are
// always inlined into the target("...") entry points below, so no call ever
// crosses the ABI boundary gcc warns about. gcc reports it when the file
// ends, so the warning stays off for the rest of this file.
#if BONSAI_KERNEL_X86
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

template <std::uint32_t W, std::uint32_t B>
struct Lanes {
  static_assert(kKernelBatchPad % W == 0, "padded target lanes must fill whole vectors");
  static constexpr std::uint32_t kLanes = W;
  static constexpr std::uint32_t kBlock = B;  // target vectors per sweep
  typedef float F __attribute__((vector_size(W * sizeof(float))));
  typedef std::int32_t I __attribute__((vector_size(W * sizeof(std::int32_t))));
};

struct PortableIsa : Lanes<4, 2> {
  [[gnu::always_inline]] static inline F rsqrt_estimate(const F& x) {
    F r{};
    for (std::uint32_t l = 0; l < kLanes; ++l) r[l] = 1.0f / std::sqrt(x[l]);
    return r;
  }
};

#if BONSAI_KERNEL_X86
// gcc builtins rather than the <immintrin.h> wrappers: the wrappers carry
// their own target attribute and refuse to inline into the generic body,
// while a builtin is checked only where the inlined body lands.
struct Avx2Isa : Lanes<8, 2> {
  [[gnu::always_inline]] static inline F rsqrt_estimate(const F& x) {
    return __builtin_ia32_rsqrtps256(x);  // ~12-bit estimate
  }
};

struct Avx512Isa : Lanes<16, 2> {
  [[gnu::always_inline]] static inline F rsqrt_estimate(const F& x) {
    return __builtin_ia32_rsqrt14ps512_mask(x, F{}, static_cast<__mmask16>(0xffff));
  }
};
#endif

template <class V, class T>
[[gnu::always_inline]] inline V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
[[gnu::always_inline]] inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// r^-1 to float precision: the hardware estimate refined by one Newton step.
template <class Isa>
[[gnu::always_inline]] inline typename Isa::F rsqrt(const typename Isa::F& x) {
  const typename Isa::F y = Isa::rsqrt_estimate(x);
  return y * (1.5f - 0.5f * x * y * y);
}

// Everything a drain reads and writes: target lanes (positions relative to
// the walk centre, global index or kNoSelf), the batch's staged source
// columns, and one float sum per target lane and component.
struct DrainArgs {
  const float* tx;
  const float* ty;
  const float* tz;
  const std::int32_t* tidx;
  std::uint32_t lanes;  // padded target count
  const float* const* src;
  const std::uint32_t* src_idx;  // leaf particle indices (p-p only)
  std::uint32_t count;           // staged source slots [0, count)
  std::uint32_t mask_begin, mask_end;  // p-p slots that may hold self-pairs
  float eps2;
  float* ax;
  float* ay;
  float* az;
  float* pot;
};

// One block of B target vectors starting at lane i: positions and self
// indices in, per-lane sums out.
template <class Isa, std::uint32_t B>
struct Block {
  typename Isa::F x[B], y[B], z[B];
  typename Isa::I idx[B];
  typename Isa::F ax[B]{}, ay[B]{}, az[B]{}, pot[B]{};

  [[gnu::always_inline]] Block(const DrainArgs& a, std::uint32_t i) {
    for (std::uint32_t b = 0; b < B; ++b) {
      const std::uint32_t l = i + b * Isa::kLanes;
      x[b] = load<typename Isa::F>(a.tx + l);
      y[b] = load<typename Isa::F>(a.ty + l);
      z[b] = load<typename Isa::F>(a.tz + l);
      idx[b] = load<typename Isa::I>(a.tidx + l);
    }
  }

  [[gnu::always_inline]] void store_sums(const DrainArgs& a, std::uint32_t i) const {
    for (std::uint32_t b = 0; b < B; ++b) {
      const std::uint32_t l = i + b * Isa::kLanes;
      store(a.ax + l, ax[b]);
      store(a.ay + l, ay[b]);
      store(a.az + l, az[b]);
      store(a.pot + l, pot[b]);
    }
  }
};

// Softened monopole from leaf slots [begin, end). Masked sweeps give a
// source whose index equals the lane's target index zero mass and a biased
// r2, so the masked lane stays finite even at eps = 0; unmasked sweeps are
// the same arithmetic without the +0.0f and *1.0f the mask contributes there.
template <class Isa, std::uint32_t B, bool kMasked>
[[gnu::always_inline]] inline void pp_sweep(const DrainArgs& a, std::uint32_t begin,
                                            std::uint32_t end, Block<Isa, B>& t) {
  using F = typename Isa::F;
  const float* const sx = a.src[0];
  const float* const sy = a.src[1];
  const float* const sz = a.src[2];
  const float* const sm = a.src[3];
  for (std::uint32_t j = begin; j < end; ++j) {
    for (std::uint32_t b = 0; b < B; ++b) {
      const F dx = sx[j] - t.x[b];
      const F dy = sy[j] - t.y[b];
      const F dz = sz[j] - t.z[b];
      if constexpr (kMasked) {
        const F masked = __builtin_convertvector(
            (t.idx[b] == static_cast<std::int32_t>(a.src_idx[j])) & 1, F);
        const F r2 = dx * dx + dy * dy + dz * dz + a.eps2 + masked;
        const F rinv = rsqrt<Isa>(r2);
        const F m = sm[j] * (1.0f - masked);
        const F mr3 = m * rinv * rinv * rinv;
        t.ax[b] += mr3 * dx;
        t.ay[b] += mr3 * dy;
        t.az[b] += mr3 * dz;
        t.pot[b] -= m * rinv;
      } else {
        const F r2 = dx * dx + dy * dy + dz * dz + a.eps2;
        const F rinv = rsqrt<Isa>(r2);
        const F mr3 = sm[j] * rinv * rinv * rinv;
        t.ax[b] += mr3 * dx;
        t.ay[b] += mr3 * dy;
        t.az[b] += mr3 * dz;
        t.pot[b] -= sm[j] * rinv;
      }
    }
  }
}

template <class Isa, std::uint32_t B>
[[gnu::always_inline]] inline void pp_block(const DrainArgs& a, std::uint32_t i) {
  Block<Isa, B> t(a, i);
  pp_sweep<Isa, B, false>(a, 0, a.mask_begin, t);
  pp_sweep<Isa, B, true>(a, a.mask_begin, a.mask_end, t);
  pp_sweep<Isa, B, false>(a, a.mask_end, a.count, t);
  t.store_sums(a, i);
}

// Multipole cells with quadrupole corrections, Eq. (1)-(2) (kernels.hpp).
template <class Isa, std::uint32_t B>
[[gnu::always_inline]] inline void pc_block(const DrainArgs& a, std::uint32_t i) {
  using F = typename Isa::F;
  const float* const cx = a.src[0];
  const float* const cy = a.src[1];
  const float* const cz = a.src[2];
  const float* const cm = a.src[3];
  const float* const q0 = a.src[4];
  const float* const q1 = a.src[5];
  const float* const q2 = a.src[6];
  const float* const q3 = a.src[7];
  const float* const q4 = a.src[8];
  const float* const q5 = a.src[9];
  Block<Isa, B> t(a, i);
  for (std::uint32_t j = 0; j < a.count; ++j) {
    const float trq = q0[j] + q3[j] + q5[j];
    for (std::uint32_t b = 0; b < B; ++b) {
      const F dx = cx[j] - t.x[b];
      const F dy = cy[j] - t.y[b];
      const F dz = cz[j] - t.z[b];
      const F r2 = dx * dx + dy * dy + dz * dz + a.eps2;
      const F rinv = rsqrt<Isa>(r2);
      const F rinv2 = rinv * rinv;
      const F rinv3 = rinv * rinv2;
      const F rinv5 = rinv3 * rinv2;
      const F rinv7 = rinv5 * rinv2;
      const F qx = q0[j] * dx + q1[j] * dy + q2[j] * dz;
      const F qy = q1[j] * dx + q3[j] * dy + q4[j] * dz;
      const F qz = q2[j] * dx + q4[j] * dy + q5[j] * dz;
      const F rqr = dx * qx + dy * qy + dz * qz;
      t.pot[b] += -cm[j] * rinv + 0.5f * trq * rinv3 - 1.5f * rqr * rinv5;
      const F s = cm[j] * rinv3 - 1.5f * trq * rinv5 + 7.5f * rqr * rinv7;
      t.ax[b] += s * dx - 3.0f * rinv5 * qx;
      t.ay[b] += s * dy - 3.0f * rinv5 * qy;
      t.az[b] += s * dz - 3.0f * rinv5 * qz;
    }
  }
  t.store_sums(a, i);
}

// Full kBlock blocks first, then the leftover single vectors.
template <class Isa, bool kCells>
[[gnu::always_inline]] inline void drain(const DrainArgs& a) {
  constexpr std::uint32_t kStep = Isa::kBlock * Isa::kLanes;
  std::uint32_t i = 0;
  for (; i + kStep <= a.lanes; i += kStep) {
    if constexpr (kCells) {
      pc_block<Isa, Isa::kBlock>(a, i);
    } else {
      pp_block<Isa, Isa::kBlock>(a, i);
    }
  }
  for (; i < a.lanes; i += Isa::kLanes) {
    if constexpr (kCells) {
      pc_block<Isa, 1>(a, i);
    } else {
      pp_block<Isa, 1>(a, i);
    }
  }
}

template <class Isa>
[[gnu::always_inline]] inline void drain_pp(const DrainArgs& a) {
  drain<Isa, false>(a);
}

template <class Isa>
[[gnu::always_inline]] inline void drain_pc(const DrainArgs& a) {
  drain<Isa, true>(a);
}

void drain_pp_portable(const DrainArgs& a) { drain_pp<PortableIsa>(a); }
void drain_pc_portable(const DrainArgs& a) { drain_pc<PortableIsa>(a); }

#if BONSAI_KERNEL_X86
[[gnu::target("avx2,fma")]] void drain_pp_avx2(const DrainArgs& a) { drain_pp<Avx2Isa>(a); }
[[gnu::target("avx2,fma")]] void drain_pc_avx2(const DrainArgs& a) { drain_pc<Avx2Isa>(a); }
[[gnu::target("avx512f")]] void drain_pp_avx512(const DrainArgs& a) {
  drain_pp<Avx512Isa>(a);
}
[[gnu::target("avx512f")]] void drain_pc_avx512(const DrainArgs& a) {
  drain_pc<Avx512Isa>(a);
}
#endif

using DrainFn = void (*)(const DrainArgs&);

struct DrainVariant {
  DrainFn pp, pc;
};

DrainVariant drain_variant([[maybe_unused]] KernelIsa isa) {
#if BONSAI_KERNEL_X86
  if (isa == KernelIsa::kAvx512) return {drain_pp_avx512, drain_pc_avx512};
  if (isa == KernelIsa::kAvx2) return {drain_pp_avx2, drain_pc_avx2};
#endif
  return {drain_pp_portable, drain_pc_portable};
}

}  // namespace

const char* kernel_backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kSimd: return "simd";
  }
  return "unknown";
}

std::optional<KernelBackend> kernel_backend_from_name(std::string_view name) {
  for (const KernelBackend b : kKernelBackends)
    if (name == kernel_backend_name(b)) return b;
  return std::nullopt;
}

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable: return "portable";
    case KernelIsa::kAvx2: return "avx2+fma";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "unknown";
}

bool kernel_isa_supported(KernelIsa isa) {
#if BONSAI_KERNEL_X86
  __builtin_cpu_init();
  if (isa == KernelIsa::kAvx512) return __builtin_cpu_supports("avx512f");
  if (isa == KernelIsa::kAvx2)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  return isa == KernelIsa::kPortable;
}

KernelIsa dispatched_kernel_isa() {
  static const KernelIsa isa = [] {
    for (const KernelIsa c : {KernelIsa::kAvx512, KernelIsa::kAvx2})
      if (kernel_isa_supported(c)) return c;
    return KernelIsa::kPortable;
  }();
  return isa;
}

InteractionQueue::InteractionQueue(std::size_t capacity, KernelIsa isa)
    : capacity_(capacity == 0 ? 1 : capacity), isa_(isa) {
  BNS_CHECK(kernel_isa_supported(isa), "kernel ISA not supported on this host");
  cell_node_ = std::make_unique_for_overwrite<std::uint32_t[]>(capacity_);
  for (auto& c : fcell_) c = std::make_unique_for_overwrite<float[]>(capacity_);
  grow_leaf_columns(capacity_);
}

void InteractionQueue::grow_leaf_columns(std::size_t slots) {
  leaf_part_ = std::make_unique_for_overwrite<std::uint32_t[]>(slots);
  for (auto& c : fleaf_) c = std::make_unique_for_overwrite<float[]>(slots);
  leaf_slots_ = slots;
}

void InteractionQueue::begin_walk(const WalkTree& walk, ParticleSet& targets,
                                  const WalkParams& params, KernelBackend backend,
                                  std::uint32_t target_begin, std::uint32_t target_end) {
  BNS_CHECK(targets_ == nullptr, "finish_walk() must close the previous walk");
  walk_ = &walk;
  src_ = walk.src;
  targets_ = &targets;
  params_ = params;
  backend_ = backend;
  target_begin_ = target_begin;
  target_end_ = target_end;
  if (backend_ == KernelBackend::kSimd && target_begin < target_end) {
    centre_ = targets.pos(target_begin);
    stage_targets();
  }
}

void InteractionQueue::stage_targets() {
  const ParticleSet& t = *targets_;
  const std::size_t lanes = pad_to(target_end_ - target_begin_);
  for (auto& c : ftarget_) c.resize(lanes);
  ftarget_idx_.resize(lanes);
  for (auto& c : lane_sum_) c.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint32_t i =
        std::min<std::uint32_t>(target_begin_ + static_cast<std::uint32_t>(l), target_end_ - 1);
    ftarget_[0][l] = static_cast<float>(t.x[i] - centre_.x);
    ftarget_[1][l] = static_cast<float>(t.y[i] - centre_.y);
    ftarget_[2][l] = static_cast<float>(t.z[i] - centre_.z);
    ftarget_idx_[l] = params_.self ? static_cast<std::int32_t>(i) : kNoSelf;
  }
}

// The simd moments of every staged cell, relative to centre_, in one pass:
// the gathers overlap far better here than one at a time inside the walk.
// The COM comes from the walk tree's double columns, mass and quadrupole
// from its float image, so each cell reads two cache lines of compact
// arrays instead of a whole TreeNode.
void InteractionQueue::stage_cells() {
  std::array<float*, 10> f;
  for (std::size_t k = 0; k < f.size(); ++k) f[k] = fcell_[k].get();
  const double* const cx = walk_->com_x.data();
  const double* const cy = walk_->com_y.data();
  const double* const cz = walk_->com_z.data();
  const CellMoments* const moments = walk_->moments.data();
  const bool quadrupole = params_.quadrupole;
  for (std::size_t s = 0; s < ncell_; ++s) {
    const std::uint32_t node = cell_node_[s];
    const CellMoments m = moments[node];  // a copy: the float stores cannot alias it
    f[0][s] = static_cast<float>(cx[node] - centre_.x);
    f[1][s] = static_cast<float>(cy[node] - centre_.y);
    f[2][s] = static_cast<float>(cz[node] - centre_.z);
    f[3][s] = m.mass;
    for (std::size_t k = 0; k < 6; ++k) f[4 + k][s] = quadrupole ? m.quad[k] : 0.0f;
  }
}

void InteractionQueue::push_leaf(const TreeNode& leaf) {
  const std::uint32_t first = leaf.part_begin;
  const std::size_t count = leaf.part_end - first;
  if (count == 0) return;
  const std::size_t staged = ncell_ + nleaf_;
  if (staged > 0 && staged + count >= capacity_) flush();
  // Past the flush either nothing is staged or the leaf fits in capacity_,
  // so only an empty queue ever grows (and has nothing to copy).
  if (nleaf_ + count > leaf_slots_) {
    BNS_DCHECK(nleaf_ == 0);
    grow_leaf_columns(count);
  }
  const std::size_t s = nleaf_;
  nleaf_ += count;

  if (params_.self) {
    // Particles of this leaf that are also targets of this walk are
    // self-pairs: masked lanes, not useful interactions. Their slots bound
    // the only range the simd drain masks.
    const std::uint32_t lo = std::max(first, target_begin_);
    const std::uint32_t hi = std::min(leaf.part_end, target_end_);
    if (lo < hi) {
      self_pairs_ += hi - lo;
      const std::size_t mask_lo = s + (lo - first), mask_hi = s + (hi - first);
      self_begin_ = self_begin_ == self_end_ ? mask_lo : std::min(self_begin_, mask_lo);
      self_end_ = std::max(self_end_, mask_hi);
    }
  }

  std::uint32_t* const idx = leaf_part_.get() + s;
  for (std::size_t k = 0; k < count; ++k) idx[k] = first + static_cast<std::uint32_t>(k);
  if (backend_ != KernelBackend::kSimd) return;
  const double* const x = src_.x.data() + first;
  const double* const y = src_.y.data() + first;
  const double* const z = src_.z.data() + first;
  const double* const m = src_.m.data() + first;
  float* const fx = fleaf_[0].get() + s;
  float* const fy = fleaf_[1].get() + s;
  float* const fz = fleaf_[2].get() + s;
  float* const fm = fleaf_[3].get() + s;
  for (std::size_t k = 0; k < count; ++k) {
    fx[k] = static_cast<float>(x[k] - centre_.x);
    fy[k] = static_cast<float>(y[k] - centre_.y);
    fz[k] = static_cast<float>(z[k] - centre_.z);
    fm[k] = static_cast<float>(m[k]);
  }
}

// Target lanes one batch evaluates per source: the scalar replay runs the
// targets as they are, the simd drain their kKernelBatchPad-padded lanes.
std::uint64_t InteractionQueue::evaluated_targets() const {
  const std::uint64_t nt = target_end_ - target_begin_;
  return backend_ == KernelBackend::kScalar ? nt : pad_to(nt);
}

InteractionStats InteractionQueue::finish_walk() {
  BNS_CHECK(targets_ != nullptr, "finish_walk() without begin_walk()");
  flush();
  targets_ = nullptr;
  InteractionStats out = stats_;
  stats_ = InteractionStats{};
  return out;
}

// Close the staged cells and leaf particles as one batch each, account
// them, drain them (cells first) and empty the queue.
void InteractionQueue::flush() {
  const std::uint64_t nt = target_end_ - target_begin_;
  if (ncell_ > 0) {
    const std::uint64_t useful = ncell_ * nt;
    stats_.p2c += useful;
    stats_.p2c_padded += ncell_ * evaluated_targets();
    stats_.pc_batches += 1;
    stats_.observe_batch(useful);
  }
  if (nleaf_ > 0) {
    const std::uint64_t useful = nleaf_ * nt - self_pairs_;
    stats_.p2p += useful;
    // The scalar replay skips self-pairs the way the reference walk always
    // has; the simd drain evaluates every padded lane and masks, so its pad
    // count includes both the padding lanes and the masked self-pairs.
    stats_.p2p_padded +=
        backend_ == KernelBackend::kScalar ? useful : nleaf_ * evaluated_targets();
    stats_.pp_batches += 1;
    stats_.observe_batch(useful);
  }
  if (backend_ == KernelBackend::kSimd) stage_cells();
  if (ncell_ + nleaf_ > 0) {
    const std::int64_t start = now_ns();
    if (ncell_ > 0) drain_cells();
    if (nleaf_ > 0) drain_leaves();
    drain_ns_ += now_ns() - start;
  }
  ncell_ = nleaf_ = 0;
  self_pairs_ = 0;
  self_begin_ = self_end_ = 0;
}

// One simd batch: the dispatched drain leaves per-lane float sums, which are
// added into the double target arrays; the padding lanes past the real
// targets are dropped.
void InteractionQueue::drain_simd(bool cells) {
  std::array<const float*, 10> src{};
  if (cells) {
    for (std::size_t k = 0; k < fcell_.size(); ++k) src[k] = fcell_[k].get();
  } else {
    for (std::size_t k = 0; k < fleaf_.size(); ++k) src[k] = fleaf_[k].get();
  }
  const DrainArgs args{ftarget_[0].data(),
                       ftarget_[1].data(),
                       ftarget_[2].data(),
                       ftarget_idx_.data(),
                       static_cast<std::uint32_t>(ftarget_idx_.size()),
                       src.data(),
                       leaf_part_.get(),
                       static_cast<std::uint32_t>(cells ? ncell_ : nleaf_),
                       static_cast<std::uint32_t>(cells ? 0 : self_begin_),
                       static_cast<std::uint32_t>(cells ? 0 : self_end_),
                       static_cast<float>(params_.eps2),
                       lane_sum_[0].data(),
                       lane_sum_[1].data(),
                       lane_sum_[2].data(),
                       lane_sum_[3].data()};
  const DrainVariant drain = drain_variant(isa_);
  (cells ? drain.pc : drain.pp)(args);

  ParticleSet& t = *targets_;
  for (std::uint32_t i = target_begin_; i < target_end_; ++i) {
    const std::size_t l = i - target_begin_;
    t.ax[i] += static_cast<double>(lane_sum_[0][l]);
    t.ay[i] += static_cast<double>(lane_sum_[1][l]);
    t.az[i] += static_cast<double>(lane_sum_[2][l]);
    t.pot[i] += static_cast<double>(lane_sum_[3][l]);
  }
}

void InteractionQueue::drain_cells() {
  if (backend_ == KernelBackend::kSimd) {
    drain_simd(/*cells=*/true);
    return;
  }
  // Straight replay of the double kernels in staged (stack) order:
  // cell-outer, target-inner.
  ParticleSet& t = *targets_;
  for (std::size_t j = 0; j < ncell_; ++j) {
    const Multipole& mp = src_.nodes[cell_node_[j]].mp;
    for (std::uint32_t i = target_begin_; i < target_end_; ++i) {
      ForceAccum<double> f{};
      if (params_.quadrupole) {
        pc_kernel(t.pos(i), mp, params_.eps2, f);
      } else {
        pc_kernel_monopole(t.pos(i), mp, params_.eps2, f);
      }
      t.ax[i] += f.ax;
      t.ay[i] += f.ay;
      t.az[i] += f.az;
      t.pot[i] += f.pot;
    }
  }
}

void InteractionQueue::drain_leaves() {
  if (backend_ == KernelBackend::kSimd) {
    drain_simd(/*cells=*/false);
    return;
  }
  ParticleSet& t = *targets_;
  for (std::uint32_t i = target_begin_; i < target_end_; ++i) {
    const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
    ForceAccum<double> f{};
    for (std::size_t s = 0; s < nleaf_; ++s) {
      const std::uint32_t j = leaf_part_[s];
      if (params_.self && j == i) continue;  // exact self-interaction
      pp_kernel<double>(tx, ty, tz, src_.x[j], src_.y[j], src_.z[j], src_.m[j], params_.eps2,
                        f);
    }
    t.ax[i] += f.ax;
    t.ay[i] += f.ay;
    t.az[i] += f.az;
    t.pot[i] += f.pot;
  }
}

}  // namespace bonsai
