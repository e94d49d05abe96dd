#include "tree/kernel_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tree/kernels.hpp"
#include "util/check.hpp"

// The AVX2 and AVX-512 drains are gcc target("...") functions on x86-64; any
// other compiler or architecture builds the portable variant only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define BONSAI_KERNEL_X86 1
#else
#define BONSAI_KERNEL_X86 0
#endif

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
// Loop order is source-major: each pass holds kLanes targets in registers and
// broadcasts the batch's sources to them one at a time, so the lanes need no
// horizontal reduction and every source is read once per kLanes targets. The
// target lanes are padded to kKernelBatchPad (every ISA's lane count divides
// it) by repeating the last target, whose sums are then discarded.

// The per-ISA helpers and the shared body pass vectors by value. They are
// always inlined into the target("...") entry points below, so no call ever
// crosses the ABI boundary gcc warns about. gcc reports it when the file
// ends, so the warning stays off for the rest of this file.
#if BONSAI_KERNEL_X86
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

template <std::uint32_t W>
struct Lanes {
  static_assert(kKernelBatchPad % W == 0, "padded target lanes must fill whole vectors");
  static constexpr std::uint32_t kLanes = W;
  typedef float F __attribute__((vector_size(W * sizeof(float))));
  typedef std::int32_t I __attribute__((vector_size(W * sizeof(std::int32_t))));
};

struct PortableIsa : Lanes<4> {
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
struct Avx2Isa : Lanes<8> {
  [[gnu::always_inline]] static inline F rsqrt_estimate(const F& x) {
    return __builtin_ia32_rsqrtps256(x);  // ~12-bit estimate
  }
};

struct Avx512Isa : Lanes<16> {
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
  std::uint32_t begin, end;
  float eps2;
  float* ax;
  float* ay;
  float* az;
  float* pot;
};

// Softened monopole from leaf particles; a source whose index equals the
// lane's target index gets zero mass and a biased r2, so the masked lane
// stays finite even at eps = 0.
template <class Isa>
[[gnu::always_inline]] inline void drain_pp(const DrainArgs& a) {
  using F = typename Isa::F;
  using I = typename Isa::I;
  const float* const sx = a.src[0];
  const float* const sy = a.src[1];
  const float* const sz = a.src[2];
  const float* const sm = a.src[3];
  for (std::uint32_t i = 0; i < a.lanes; i += Isa::kLanes) {
    const F tx = load<F>(a.tx + i), ty = load<F>(a.ty + i), tz = load<F>(a.tz + i);
    const I ti = load<I>(a.tidx + i);
    F ax{}, ay{}, az{}, pot{};
    for (std::uint32_t j = a.begin; j < a.end; ++j) {
      const F masked =
          __builtin_convertvector((ti == static_cast<std::int32_t>(a.src_idx[j])) & 1, F);
      const F dx = sx[j] - tx;
      const F dy = sy[j] - ty;
      const F dz = sz[j] - tz;
      const F r2 = dx * dx + dy * dy + dz * dz + a.eps2 + masked;
      const F rinv = rsqrt<Isa>(r2);
      const F m = sm[j] * (1.0f - masked);
      const F mr3 = m * rinv * rinv * rinv;
      ax += mr3 * dx;
      ay += mr3 * dy;
      az += mr3 * dz;
      pot -= m * rinv;
    }
    store(a.ax + i, ax);
    store(a.ay + i, ay);
    store(a.az + i, az);
    store(a.pot + i, pot);
  }
}

// Multipole cells with quadrupole corrections, Eq. (1)-(2) (kernels.hpp).
template <class Isa>
[[gnu::always_inline]] inline void drain_pc(const DrainArgs& a) {
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
  for (std::uint32_t i = 0; i < a.lanes; i += Isa::kLanes) {
    const F tx = load<F>(a.tx + i), ty = load<F>(a.ty + i), tz = load<F>(a.tz + i);
    F ax{}, ay{}, az{}, pot{};
    for (std::uint32_t j = a.begin; j < a.end; ++j) {
      const F dx = cx[j] - tx;
      const F dy = cy[j] - ty;
      const F dz = cz[j] - tz;
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
      const float trq = q0[j] + q3[j] + q5[j];
      pot += -cm[j] * rinv + 0.5f * trq * rinv3 - 1.5f * rqr * rinv5;
      const F s = cm[j] * rinv3 - 1.5f * trq * rinv5 + 7.5f * rqr * rinv7;
      ax += s * dx - 3.0f * rinv5 * qx;
      ay += s * dy - 3.0f * rinv5 * qy;
      az += s * dz - 3.0f * rinv5 * qz;
    }
    store(a.ax + i, ax);
    store(a.ay + i, ay);
    store(a.az + i, az);
    store(a.pot + i, pot);
  }
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
}

void InteractionQueue::begin_walk(const TreeView& src, ParticleSet& targets,
                                  const WalkParams& params, KernelBackend backend,
                                  std::uint32_t target_begin, std::uint32_t target_end) {
  BNS_CHECK(targets_ == nullptr, "finish_walk() must close the previous walk");
  src_ = src;
  targets_ = &targets;
  params_ = params;
  backend_ = backend;
  target_begin_ = target_begin;
  target_end_ = target_end;
  cell_run_begin_ = static_cast<std::uint32_t>(cell_node_.size());
  leaf_run_begin_ = static_cast<std::uint32_t>(leaf_part_.size());
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

void InteractionQueue::push_cell(std::uint32_t node) {
  if (cell_node_.size() + leaf_part_.size() >= capacity_) flush();
  cell_node_.push_back(node);
  if (backend_ != KernelBackend::kSimd) return;
  const Multipole& mp = src_.nodes[node].mp;
  fcell_[0].push_back(static_cast<float>(mp.com.x - centre_.x));
  fcell_[1].push_back(static_cast<float>(mp.com.y - centre_.y));
  fcell_[2].push_back(static_cast<float>(mp.com.z - centre_.z));
  fcell_[3].push_back(static_cast<float>(mp.mass));
  for (std::size_t k = 0; k < 6; ++k)
    fcell_[4 + k].push_back(params_.quadrupole ? static_cast<float>(mp.quad.q[k]) : 0.0f);
}

void InteractionQueue::push_leaf(const TreeNode& leaf) {
  const std::size_t count = leaf.part_end - leaf.part_begin;
  if (count == 0) return;
  const std::size_t staged = cell_node_.size() + leaf_part_.size();
  if (staged > 0 && staged + count >= capacity_) flush();
  for (std::uint32_t j = leaf.part_begin; j < leaf.part_end; ++j) {
    leaf_part_.push_back(j);
    if (backend_ != KernelBackend::kSimd) continue;
    fleaf_[0].push_back(static_cast<float>(src_.x[j] - centre_.x));
    fleaf_[1].push_back(static_cast<float>(src_.y[j] - centre_.y));
    fleaf_[2].push_back(static_cast<float>(src_.z[j] - centre_.z));
    fleaf_[3].push_back(static_cast<float>(src_.m[j]));
  }
}

// Target lanes one batch evaluates per source: the scalar replay runs the
// targets as they are, the simd drain their kKernelBatchPad-padded lanes.
std::uint64_t InteractionQueue::evaluated_targets() const {
  const std::uint64_t nt = target_end_ - target_begin_;
  return backend_ == KernelBackend::kScalar ? nt : pad_to(nt);
}

void InteractionQueue::close_cell_run() {
  const auto end = static_cast<std::uint32_t>(cell_node_.size());
  if (end == cell_run_begin_) return;
  const Batch b{cell_run_begin_, end};
  const std::uint64_t sources = b.end - b.begin;
  const std::uint64_t useful = sources * (target_end_ - target_begin_);
  stats_.p2c += useful;
  stats_.p2c_padded += sources * evaluated_targets();
  stats_.pc_batches += 1;
  stats_.observe_batch(useful);
  cell_batches_.push_back(b);
  cell_run_begin_ = end;
}

void InteractionQueue::close_leaf_run() {
  const auto end = static_cast<std::uint32_t>(leaf_part_.size());
  if (end == leaf_run_begin_) return;
  const Batch b{leaf_run_begin_, end};
  std::uint64_t self_pairs = 0;
  if (params_.self) {
    // Self-pairs in this run: staged sources whose global index falls inside
    // the target range. They are masked lanes, not useful interactions.
    for (std::uint32_t s = b.begin; s < b.end; ++s)
      if (leaf_part_[s] >= target_begin_ && leaf_part_[s] < target_end_) ++self_pairs;
  }
  const std::uint64_t sources = b.end - b.begin;
  const std::uint64_t useful = sources * (target_end_ - target_begin_) - self_pairs;
  stats_.p2p += useful;
  // The scalar replay skips self-pairs the way the inline walk does; the simd
  // drain evaluates every padded lane and masks, so its pad count includes
  // both the padding lanes and the masked self-pairs.
  stats_.p2p_padded +=
      backend_ == KernelBackend::kScalar ? useful : sources * evaluated_targets();
  stats_.pp_batches += 1;
  stats_.observe_batch(useful);
  leaf_batches_.push_back(b);
  leaf_run_begin_ = end;
}

InteractionStats InteractionQueue::finish_walk() {
  BNS_CHECK(targets_ != nullptr, "finish_walk() without begin_walk()");
  flush();
  targets_ = nullptr;
  InteractionStats out = stats_;
  stats_ = InteractionStats{};
  return out;
}

void InteractionQueue::flush() {
  if (targets_ == nullptr) return;
  close_cell_run();
  close_leaf_run();
  for (const Batch& b : cell_batches_) drain_cell_batch(b);
  for (const Batch& b : leaf_batches_) drain_leaf_batch(b);
  cell_batches_.clear();
  leaf_batches_.clear();
  cell_node_.clear();
  leaf_part_.clear();
  for (auto& c : fcell_) c.clear();
  for (auto& c : fleaf_) c.clear();
  cell_run_begin_ = 0;
  leaf_run_begin_ = 0;
}

// One simd batch: the dispatched drain leaves per-lane float sums, which are
// added into the double target arrays; the padding lanes past the real
// targets are dropped.
void InteractionQueue::drain_simd_batch(const Batch& b, bool cells) {
  std::array<const float*, 10> src{};
  if (cells) {
    for (std::size_t k = 0; k < fcell_.size(); ++k) src[k] = fcell_[k].data();
  } else {
    for (std::size_t k = 0; k < fleaf_.size(); ++k) src[k] = fleaf_[k].data();
  }
  const DrainArgs args{ftarget_[0].data(),
                       ftarget_[1].data(),
                       ftarget_[2].data(),
                       ftarget_idx_.data(),
                       static_cast<std::uint32_t>(ftarget_idx_.size()),
                       src.data(),
                       leaf_part_.data(),
                       b.begin,
                       b.end,
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

void InteractionQueue::drain_cell_batch(const Batch& b) {
  if (backend_ == KernelBackend::kSimd) {
    drain_simd_batch(b, /*cells=*/true);
    return;
  }
  // Straight replay of the inline walk's kernels, in staged (stack) order:
  // cell-outer, target-inner, exactly like apply_cell once did.
  ParticleSet& t = *targets_;
  for (std::uint32_t j = b.begin; j < b.end; ++j) {
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

void InteractionQueue::drain_leaf_batch(const Batch& b) {
  if (backend_ == KernelBackend::kSimd) {
    drain_simd_batch(b, /*cells=*/false);
    return;
  }
  ParticleSet& t = *targets_;
  for (std::uint32_t i = target_begin_; i < target_end_; ++i) {
    const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
    ForceAccum<double> f{};
    for (std::uint32_t s = b.begin; s < b.end; ++s) {
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
