#include "domain/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace bonsai::domain::wire {

namespace {

constexpr bool kHostLittle = std::endian::native == std::endian::little;

// --- Archives -----------------------------------------------------------------
// Each message and each shared record is described once, by a
//
//   template <class Ar> void fields(Ar& ar, T& value)
//
// that names its fields in wire order. Three archives run a description: the
// Writer encodes, the bounds-checked Reader decodes, and the Sizer measures
// the smallest encoding (every count zero), which sizes the count checks. The
// archive is a template parameter, so each (archive, message) pair compiles
// to straight-line code with no per-field dispatch. A description uses:
//
//   ar(a, b, ...)                fixed-width little-endian scalars, records
//                                with a fields(), std::arrays, tuples, strings
//                                (u32 length + bytes), and vectors whose size
//                                is already set (their elements only);
//   ar.bounded(v, max, what)     an enum or flag as one byte, at most `max`;
//   ar.resize(c, n, bytes, what) size container c (or a tuple of them) to n
//                                elements of at least `bytes` wire bytes each:
//                                the Reader checks they fit in the rest of the
//                                payload before allocating, the Writer that c
//                                already holds n;
//   ar.sequence(c, what)         a u32 count, then the elements (vector, map);
//   ar.require(cond, what)       a field rule: the Reader enforces it, the
//                                Writer and the Sizer ignore it.
//
// Decoding archives (Reader, Sizer) fill the value in; only the Writer may be
// handed const data.

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};
// Vectors of scalars travel as one block.
template <class T> struct IsBlock : std::false_type {};
template <class T> struct IsBlock<std::vector<T>> : std::is_arithmetic<T> {};
template <class T> struct IsArray : std::false_type {};
template <class T, std::size_t N> struct IsArray<std::array<T, N>> : std::true_type {};
template <class T> struct IsTuple : std::false_type {};
template <class... Ts> struct IsTuple<std::tuple<Ts...>> : std::true_type {};

// The unsigned integer a scalar travels as.
template <class T>
using Bits = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>>;

template <class... Ts>
std::size_t min_size();

// Apply `fn` to container `c`, or to each container of a tuple of them.
template <class C, class Fn>
void each(C& c, Fn&& fn) {
  if constexpr (IsTuple<std::remove_const_t<C>>::value)
    std::apply([&](auto&... x) { (fn(x), ...); }, c);
  else
    fn(c);
}

template <class Derived>
class Archive {
 public:
  template <class... Ts>
  void operator()(Ts&... vs) {
    (item(vs), ...);
  }

  template <class E>
  void bounded(E& v, std::type_identity_t<E> max, const char* what) {
    auto b = static_cast<std::uint8_t>(v);
    self().scalar(b);
    self().require(b <= static_cast<std::uint8_t>(max), what);
    if constexpr (Derived::kDecoding) v = static_cast<E>(b);
  }

  template <class T>
  void sequence(std::vector<T>& v, const char* what) {
    auto n = static_cast<std::uint32_t>(v.size());
    self().scalar(n);
    self().resize(v, n, min_size<T>(), what);
    item(v);
  }

  // A map travels as its (key, value) pairs in key order.
  template <class K, class V>
  void sequence(std::map<K, V>& m, const char* what) {
    std::vector<std::pair<K, V>> pairs;
    if constexpr (!Derived::kDecoding) pairs.assign(m.begin(), m.end());
    sequence(pairs, what);
    if constexpr (Derived::kDecoding)
      for (auto& [k, v] : pairs) m.insert_or_assign(std::move(k), std::move(v));
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  template <class T>
  void item(T& v) {
    if constexpr (std::is_const_v<T>) {
      static_assert(!Derived::kDecoding, "a decoding archive needs a mutable value");
      item(const_cast<std::remove_const_t<T>&>(v));  // the Writer only reads it
    } else if constexpr (std::is_arithmetic_v<T>) {
      static_assert(!std::is_same_v<T, bool>, "flags travel through bounded()");
      self().scalar(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      auto n = static_cast<std::uint32_t>(v.size());
      self().scalar(n);
      self().resize(v, n, min_size<char>(), "string exceeds payload");
      self().span(std::span<char>(v));
    } else if constexpr (IsBlock<T>::value) {
      self().span(std::span(v));
    } else if constexpr (IsVector<T>::value || IsArray<T>::value) {
      for (auto& e : v) item(e);
    } else if constexpr (IsTuple<T>::value) {
      std::apply([this](auto&... c) { (item(c), ...); }, v);
    } else {
      fields(self(), v);
    }
  }
};

// --- Flat little-endian writer ----------------------------------------------
class Writer : public Archive<Writer> {
 public:
  static constexpr bool kDecoding = false;

  // Build a frame of `type` inside `reuse` (its capacity carries over, for
  // posting paths that encode every step: finish() hands the buffer back to
  // the caller, who keeps it for the next encode).
  explicit Writer(FrameType type, std::vector<std::uint8_t> reuse = {})
      : buf_(std::move(reuse)) {
    buf_.clear();
    if (buf_.capacity() < 64) buf_.reserve(64);
    put(kMagic);
    put(kVersion);
    put(static_cast<std::uint16_t>(type));
    put(std::uint64_t{0});  // payload length, patched by finish()
  }

  template <class T>
  void put(T v) {
    const auto bits = std::bit_cast<Bits<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  template <class T>
  void scalar(const T& v) {
    put(v);
  }

  template <class T>
  void span(std::span<T> v) {
    if constexpr (kHostLittle) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
      buf_.insert(buf_.end(), p, p + v.size_bytes());
    } else {
      for (const T x : v) put(x);
    }
  }

  template <class C>
  void resize(C& c, std::size_t n, std::size_t, const char*) {
    each(c, [n](auto& x) { BNS_CHECK(x.size() == n, "array length disagrees with its count"); });
  }

  void require(bool, const char*) {}

  std::vector<std::uint8_t> finish() {
    const std::uint64_t payload = buf_.size() - kHeaderBytes;
    for (int i = 0; i < 8; ++i)
      buf_[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

// --- Bounds-checked little-endian reader -------------------------------------
class Reader : public Archive<Reader> {
 public:
  static constexpr bool kDecoding = true;

  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  void require(bool cond, const char* what) {
    if (!cond) throw WireError(std::string("wire decode: ") + what);
  }

  template <class T>
  T get() {
    const auto s = take(sizeof(T));
    Bits<T> bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bits = static_cast<Bits<T>>(bits | (static_cast<Bits<T>>(s[i]) << (8 * i)));
    return std::bit_cast<T>(bits);
  }

  template <class T>
  void scalar(T& v) {
    v = get<T>();
  }

  template <class T>
  void span(std::span<T> out) {
    if (out.empty()) return;  // empty vector => null data(); memcpy(null,...) is UB
    const auto s = take(out.size_bytes());
    if constexpr (kHostLittle) {
      std::memcpy(out.data(), s.data(), s.size());
    } else {
      Reader sub(s);
      for (T& x : out) x = sub.get<T>();
    }
  }

  // Validate that `n` elements of `elem_bytes` each actually fit in the rest
  // of the payload *before* allocating, so a corrupted count can neither
  // overflow nor trigger a huge allocation.
  template <class C>
  void resize(C& c, std::size_t n, std::size_t elem_bytes, const char* what) {
    require(n <= remaining() / elem_bytes, what);
    each(c, [n](auto& x) { x.resize(n); });
  }

  void done() { require(pos_ == bytes_.size(), "trailing bytes after payload"); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    require(n <= remaining(), "truncated frame");
    const auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- Size pass ----------------------------------------------------------------
// Decodes the smallest payload of a default value: every count zero, every
// scalar at its width. Containers a description sizes from a count (a
// histogram's n + 1 buckets) are sized here too, so they are counted.
class Sizer : public Archive<Sizer> {
 public:
  static constexpr bool kDecoding = true;

  std::size_t bytes = 0;

  template <class T>
  void scalar(T&) {
    bytes += sizeof(T);
  }

  template <class T>
  void span(std::span<T> v) {
    bytes += v.size_bytes();
  }

  template <class C>
  void resize(C& c, std::size_t n, std::size_t, const char*) {
    each(c, [n](auto& x) { x.resize(n); });
  }

  void require(bool, const char*) {}
};

template <class T>
std::size_t min_size_of() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else {
    static const std::size_t bytes = [] {
      T value{};
      Sizer sizer;
      sizer(value);
      return sizer.bytes;
    }();
    return bytes;
  }
}

// Smallest wire footprint of one of each Ts: what a count of them must leave
// in the payload at the least.
template <class... Ts>
std::size_t min_size() {
  return (min_size_of<Ts>() + ...);
}

// Smallest footprint one element adds across parallel arrays.
template <class... Cs>
std::size_t row_bytes(const std::tuple<Cs&...>&) {
  return min_size<typename Cs::value_type...>();
}

// --- Shared records ------------------------------------------------------------
template <class Ar>
void fields(Ar& ar, Vec3d& v) {
  ar(v.x, v.y, v.z);
}

template <class Ar>
void fields(Ar& ar, AABB& b) {
  ar(b.lo, b.hi);
}

template <class Ar, class K, class V>
void fields(Ar& ar, std::pair<K, V>& p) {
  ar(p.first, p.second);
}

// Enforce the structural invariants both LET producers guarantee: children
// are a forward-pointing contiguous block inside the node array (so
// traversal cannot cycle), leaves have no children, and the particle range
// lies inside the payload arrays. Shared by the full-frame decoder and the
// LetDelta patcher, which re-runs it on every node of the *patched* tree
// before that tree is ever walked. Normalizes leaf child links to -1.
void validate_node(TreeNode& nd, std::size_t index, std::size_t num_nodes,
                   std::size_t num_particles) {
  const auto require = [](bool cond, const char* what) {
    if (!cond) throw WireError(std::string("wire decode: ") + what);
  };
  require(nd.key_begin <= nd.key_end, "node key range inverted");
  require(nd.part_begin <= nd.part_end, "node particle range inverted");
  require(nd.part_end <= num_particles, "node particle range out of bounds");
  if (nd.kind == NodeKind::kInternal) {
    require(nd.num_children >= 1, "internal node without children");
    require(nd.first_child > static_cast<std::int32_t>(index),
            "child block does not point forward");
    require(static_cast<std::size_t>(nd.first_child) + nd.num_children <= num_nodes,
            "child block out of bounds");
  } else {
    require(nd.num_children == 0, "leaf node with children");
    nd.first_child = -1;
  }
}

template <class Ar>
void fields(Ar& ar, TreeNode& nd) {
  ar(nd.key_begin, nd.key_end, nd.part_begin, nd.part_end, nd.first_child,
     nd.num_children, nd.level);
  ar.bounded(nd.kind, NodeKind::kMultipoleLeaf, "unknown node kind");
  ar(nd.box, nd.mp.mass, nd.mp.com, nd.mp.quad.q, nd.rcrit);
}

// The particle payload several frames share: source rank, force flag, count,
// then the arrays. Forces and potential ride along only when `with_forces`.
// `P` is const ParticleSet when encoding from a caller's particles in place.
template <class Ar, class P>
void particle_payload(Ar& ar, int& src, bool& with_forces, P& p) {
  auto state = std::tie(p.x, p.y, p.z, p.vx, p.vy, p.vz, p.mass, p.id, p.key);
  auto forces = std::tie(p.ax, p.ay, p.az, p.pot);
  auto n = static_cast<std::uint64_t>(p.size());
  ar(src);
  ar.bounded(with_forces, true, "unknown particle batch flags");
  ar(n);
  ar.resize(p, n, row_bytes(state) + (with_forces ? row_bytes(forces) : 0),
            "particle count exceeds payload");
  ar(state);
  if (with_forces) ar(forces);
}

// A payload whose force flag the frame type fixes: the Writer sets it, the
// Reader requires it.
template <class Ar, class P>
void particle_payload(Ar& ar, int& src, P& p, bool forces, const char* what) {
  bool with_forces = forces;
  particle_payload(ar, src, with_forces, p);
  ar.require(with_forces == forces, what);
}

template <class Ar>
void fields(Ar& ar, ParticleBatch& b) {
  particle_payload(ar, b.src, b.with_forces, b.parts);
}

template <class Ar>
void fields(Ar& ar, InteractionStats& s) {
  ar(s.p2p, s.p2c, s.p2p_padded, s.p2c_padded, s.pp_batches, s.pc_batches, s.batch_hist);
}

template <class Ar>
void fields(Ar& ar, TimeBreakdown::Entry& e) {
  ar(e.name, e.seconds);
}

// Stage timings travel as (name, seconds) entries in insertion order.
template <class Ar>
void fields(Ar& ar, TimeBreakdown& t) {
  std::vector<TimeBreakdown::Entry> entries;
  if constexpr (!Ar::kDecoding) entries = t.entries();
  ar.sequence(entries, "timing count exceeds payload");
  if constexpr (Ar::kDecoding)
    for (const auto& e : entries) t.add(e.name, e.seconds);
}

template <class Ar>
void fields(Ar& ar, trace::Span& s) {
  ar(s.name, s.begin_ns, s.end_ns, s.rank, s.lane, s.step, s.peer, s.bytes);
  ar.require(s.end_ns >= s.begin_ns, "span ends before it begins");
}

template <class Ar>
void fields(Ar& ar, metrics::HistogramData& h) {
  auto n = static_cast<std::uint32_t>(h.bounds.size());
  ar(n);
  ar.resize(h.bounds, n, row_bytes(std::tie(h.bounds, h.counts)),
            "histogram bound count exceeds payload");
  ar(h.bounds);
  ar.resize(h.counts, std::size_t{n} + 1, min_size<std::uint64_t>(),
            "histogram bucket count exceeds payload");
  ar(h.counts, h.count, h.sum);
  if constexpr (Ar::kDecoding) {
    std::uint64_t total = 0;
    for (const std::uint64_t c : h.counts) total += c;
    ar.require(total == h.count, "histogram buckets do not sum to its count");
  }
}

template <class Ar>
void fields(Ar& ar, metrics::Snapshot& m) {
  ar.sequence(m.counters, "metric counter count exceeds payload");
  ar.sequence(m.gauges, "metric gauge count exceeds payload");
  ar.sequence(m.histograms, "metric histogram count exceeds payload");
}

template <class Ar>
void fields(Ar& ar, PeerEndpoint& p) {
  ar(p.port, p.host);
}

// --- Messages -----------------------------------------------------------------
// Message types of the frames whose public codec takes or returns bare values.
struct Empty {};
struct PeerDirectory {
  std::vector<PeerEndpoint> peers;
};
struct PeerHello {
  int rank = -1;
};
struct JobCancel {
  std::int32_t job_id = -1;
};

template <class Ar>
void fields(Ar&, Empty&) {}

template <class Ar>
void fields(Ar& ar, LetMessage& m) {
  LetTree& let = m.let;
  auto xyzm = std::tie(let.x, let.y, let.z, let.m);
  auto nodes = static_cast<std::uint32_t>(let.nodes.size());
  auto parts = static_cast<std::uint32_t>(let.num_particles());
  ar(m.src, m.export_seconds, nodes, parts);
  ar.resize(let.nodes, nodes, min_size<TreeNode>(), "node count exceeds payload");
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    ar(let.nodes[i]);
    if constexpr (Ar::kDecoding) validate_node(let.nodes[i], i, nodes, parts);
  }
  ar.resize(xyzm, parts, row_bytes(xyzm), "particle count exceeds payload");
  ar(xyzm);
}

template <class Ar>
void fields(Ar& ar, Hello& h) {
  ar(h.rank, h.listen_port);
}

template <class Ar>
void fields(Ar& ar, SimConfig& c) {
  ar(c.nranks);
  ar.require(c.nranks >= 1 && c.nranks <= 255, "config rank count out of range");
  ar(c.theta, c.eps, c.nleaf, c.ncrit);
  ar.bounded(c.quadrupole, true, "unknown config quadrupole flag");
  ar(c.dt);
  ar.bounded(c.curve, sfc::CurveType::kMorton, "unknown config curve");
  ar(c.samples_per_rank, c.snap_level);
  ar.bounded(c.balance, BalanceMode::kCost, "unknown config balance mode");
  ar.bounded(c.trace, true, "unknown config trace flag");
  ar.bounded(c.kernel, KernelBackend::kSimd, "config kernel backend out of range");
  ar.bounded(c.let_cache, true, "unknown config let-cache flag");
  ar(c.let_churn);
}

template <class Ar>
void fields(Ar& ar, StepBegin& sb) {
  ar(sb.step);
  ar.bounded(sb.mode, StepMode::kCollect, "unknown step mode");
  int src = -1;
  particle_payload(ar, src, sb.parts, false, "step-begin batch must not carry forces");
}

template <class Ar>
void fields(Ar& ar, StepResult& sr) {
  ar(sr.rank, sr.let_cells, sr.let_particles, sr.local_stats, sr.remote_stats, sr.migrated,
     sr.local_count, sr.kinetic, sr.potential, sr.times);
  ar.sequence(sr.boundaries, "boundary count exceeds payload");
  ar(sr.metrics);
  ar.require(sr.metrics.gauges.empty(), "step-result metrics must not carry gauges");
}

template <class Ar>
void fields(Ar& ar, Boundaries& b) {
  ar(b.src, b.step);
  ar.bounded(b.post_migration, true, "unknown boundaries phase");
  ar(b.count, b.box, b.weight);
}

template <class Ar>
void fields(Ar& ar, KeySamples& ks) {
  auto n = static_cast<std::uint64_t>(ks.keys.size());
  ar(ks.src, ks.step, n);
  ar.resize(ks.keys, n, min_size<sfc::Key>(), "sample count exceeds payload");
  ar(ks.keys);
}

// Spelled over references so encode_migration describes the caller's
// particles in place.
template <class Ar, class P>
void migration(Ar& ar, int& src, int& step, P& parts) {
  ar(step);
  particle_payload(ar, src, parts, false, "migration batches must travel force-free");
}

template <class Ar>
void fields(Ar& ar, MigrationMsg& m) {
  migration(ar, m.src, m.step, m.parts);
}

template <class Ar>
void fields(Ar& ar, PeerDirectory& d) {
  auto n = static_cast<std::uint32_t>(d.peers.size());
  ar(n);
  ar.require(n >= 1 && n <= 255, "directory rank count out of range");
  ar.resize(d.peers, n, min_size<PeerEndpoint>(), "directory entry count exceeds payload");
  ar(d.peers);
}

template <class Ar>
void fields(Ar& ar, PeerHello& h) {
  ar(h.rank);
}

template <class Ar>
void fields(Ar& ar, TraceFrame& tf) {
  ar(tf.src, tf.step, tf.recv_ns, tf.send_ns, tf.clock_domain);
  ar.sequence(tf.spans, "span count exceeds payload");
}

template <class Ar>
void fields(Ar& ar, JobSpec& spec) {
  ar(spec.name, spec.n, spec.seed, spec.steps);
  ar.require(spec.steps >= 0, "job step count negative");
  ar(spec.ranks);
  ar.require(spec.ranks >= 0 && spec.ranks <= 255, "job rank request out of range");
  ar(spec.priority, spec.theta, spec.eps, spec.dt);
  ar.bounded(spec.kernel, KernelBackend::kSimd, "job kernel backend out of range");
  int src = -1;
  particle_payload(ar, src, spec.parts, false, "job initial condition must travel force-free");
}

template <class Ar>
void fields(Ar& ar, JobStatusMsg& st) {
  ar(st.job_id);
  ar.bounded(st.state, JobState::kRejected, "unknown job state");
  ar.bounded(st.wait, true, "unknown job status flags");
  ar(st.steps_done, st.steps_total, st.ranks, st.priority, st.n, st.reason);
}

template <class Ar>
void fields(Ar& ar, JobResultMsg& res) {
  ar(res.job_id);
  ar.bounded(res.state, JobState::kRejected, "unknown job state");
  ar(res.steps_done, res.kinetic, res.potential, res.reason);
  int src = -1;
  particle_payload(ar, src, res.parts, true, "job result batch must carry forces");
}

template <class Ar>
void fields(Ar& ar, JobCancel& c) {
  ar(c.job_id);
}

template <class Ar>
void fields(Ar& ar, SnapshotMsg& snap) {
  auto n = static_cast<std::uint32_t>(snap.sets.size());
  ar(snap.job_id, snap.next_step, n);
  ar.require(n <= 255, "snapshot rank count out of range");
  ar.resize(snap.sets, n, min_size<ParticleBatch>(), "snapshot set count exceeds payload");
  for (std::size_t r = 0; r < snap.sets.size(); ++r) {
    int src = static_cast<int>(r);
    particle_payload(ar, src, snap.sets[r], true, "snapshot sets must carry forces");
  }
}

// --- Frame table ----------------------------------------------------------------
// Type, name and message of every frame, in wire-value order. The public
// codecs, frame_type_name() and frame_table() (the fuzz seed list and
// dispatcher) all read it, and the static_assert holds it to FrameType.
template <FrameType T, class Msg>
struct Row {
  static constexpr FrameType kType = T;
  using Message = Msg;  // void: not run through fields() (LetDelta)
  const char* name;
};

constexpr std::tuple kFrames{
    Row<FrameType::kLet, LetMessage>{"Let"},
    Row<FrameType::kParticles, ParticleBatch>{"Particles"},
    Row<FrameType::kHello, Hello>{"Hello"},
    Row<FrameType::kConfig, SimConfig>{"Config"},
    Row<FrameType::kStepBegin, StepBegin>{"StepBegin"},
    Row<FrameType::kStepResult, StepResult>{"StepResult"},
    Row<FrameType::kShutdown, Empty>{"Shutdown"},
    Row<FrameType::kBoundaries, Boundaries>{"Boundaries"},
    Row<FrameType::kKeySamples, KeySamples>{"KeySamples"},
    Row<FrameType::kMigration, MigrationMsg>{"Migration"},
    Row<FrameType::kPeerDirectory, PeerDirectory>{"PeerDirectory"},
    Row<FrameType::kPeerHello, PeerHello>{"PeerHello"},
    Row<FrameType::kTrace, TraceFrame>{"Trace"},
    Row<FrameType::kJobSubmit, JobSpec>{"JobSubmit"},
    Row<FrameType::kJobStatus, JobStatusMsg>{"JobStatus"},
    Row<FrameType::kJobResult, JobResultMsg>{"JobResult"},
    Row<FrameType::kJobCancel, JobCancel>{"JobCancel"},
    Row<FrameType::kSnapshot, SnapshotMsg>{"Snapshot"},
    Row<FrameType::kMetricsQuery, Empty>{"MetricsQuery"},
    Row<FrameType::kMetricsReport, metrics::Snapshot>{"MetricsReport"},
    Row<FrameType::kLetDelta, void>{"LetDelta"},
};

static_assert(std::tuple_size_v<decltype(kFrames)> ==
                      static_cast<std::size_t>(FrameType::kEnd) - 1 &&
                  std::apply(
                      [](auto... row) {
                        std::size_t wire_value = 1;
                        return ((static_cast<std::size_t>(decltype(row)::kType) ==
                                 wire_value++) && ...);
                      },
                      kFrames),
              "every FrameType needs exactly one frame table row, in wire-value order");

template <FrameType T>
using MessageOf = typename std::tuple_element_t<static_cast<std::size_t>(T) - 1,
                                                std::remove_const_t<decltype(kFrames)>>::Message;

// Validate the header and position a Reader at the payload.
Reader open_frame(std::span<const std::uint8_t> frame, FrameType expected) {
  const FrameType type = frame_type(frame);
  if (type != expected)
    throw WireError("wire decode: unexpected frame type " +
                    std::to_string(static_cast<int>(type)) + " (expected " +
                    std::to_string(static_cast<int>(expected)) + ")");
  return Reader(frame.subspan(kHeaderBytes));
}

template <FrameType T>
std::vector<std::uint8_t> encode(const MessageOf<T>& msg,
                                 std::vector<std::uint8_t> reuse = {}) {
  Writer w(T, std::move(reuse));
  w(msg);
  return w.finish();
}

template <FrameType T>
MessageOf<T> decode(std::span<const std::uint8_t> frame) {
  Reader r = open_frame(frame, T);
  MessageOf<T> msg{};
  r(msg);
  r.done();
  return msg;
}

template <class R>
constexpr FrameInfo::Reencode reencoder() {
  if constexpr (std::is_void_v<typename R::Message>) {
    return nullptr;
  } else {
    return [](std::span<const std::uint8_t> frame) {
      return encode<R::kType>(decode<R::kType>(frame));
    };
  }
}

constexpr auto kFrameInfo = std::apply(
    [](auto... row) {
      return std::array{FrameInfo{decltype(row)::kType, row.name, reencoder<decltype(row)>()}...};
    },
    kFrames);

}  // namespace

const char* frame_type_name(FrameType type) {
  const std::size_t i = static_cast<std::size_t>(type) - 1;
  return i < kFrameInfo.size() ? kFrameInfo[i].name : "Unknown";
}

std::span<const FrameInfo> frame_table() { return kFrameInfo; }

void count_wire(metrics::Snapshot& into, std::string_view kind, std::uint64_t frames,
                std::uint64_t bytes, double encode_seconds, double decode_seconds) {
  const std::string base = "wire." + std::string(kind);
  into.counters[base + ".frames"] += static_cast<double>(frames);
  into.counters[base + ".bytes"] += static_cast<double>(bytes);
  into.counters[base + ".encode_s"] += encode_seconds;
  into.counters[base + ".decode_s"] += decode_seconds;
}

FrameType frame_type(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderBytes) throw WireError("wire decode: frame shorter than header");
  Reader r(frame);
  if (r.get<std::uint32_t>() != kMagic) throw WireError("wire decode: bad magic");
  const auto version = r.get<std::uint16_t>();
  if (version != kVersion)
    throw WireError("wire decode: version mismatch (got " + std::to_string(version) +
                    ", expected " + std::to_string(kVersion) + ")");
  const auto type = static_cast<FrameType>(r.get<std::uint16_t>());
  if (r.get<std::uint64_t>() != frame.size() - kHeaderBytes)
    throw WireError("wire decode: payload length mismatch");
  return type;
}

// --- Public codecs: one line each over the frame table ---------------------------
using Bytes = std::vector<std::uint8_t>;
using Frame = std::span<const std::uint8_t>;

Bytes encode_let(const LetMessage& msg) { return encode<FrameType::kLet>(msg); }

Bytes encode_let_scratch(const LetMessage& msg, Bytes& scratch) {
  scratch = encode<FrameType::kLet>(msg, std::move(scratch));
  return {scratch.begin(), scratch.end()};
}

LetMessage decode_let(Frame frame) {
  LetMessage msg = decode<FrameType::kLet>(frame);
  msg.wire_bytes = frame.size();
  return msg;
}

Bytes encode_particles(int src, const ParticleSet& parts, bool with_forces) {
  Writer w(FrameType::kParticles);
  particle_payload(w, src, with_forces, parts);
  return w.finish();
}

ParticleBatch decode_particles(Frame frame) { return decode<FrameType::kParticles>(frame); }

Bytes encode_hello(int rank, std::uint16_t listen_port) {
  return encode<FrameType::kHello>({rank, listen_port});
}
Hello decode_hello(Frame frame) { return decode<FrameType::kHello>(frame); }

Bytes encode_peer_directory(std::span<const PeerEndpoint> peers) {
  return encode<FrameType::kPeerDirectory>({{peers.begin(), peers.end()}});
}
std::vector<PeerEndpoint> decode_peer_directory(Frame frame) {
  return decode<FrameType::kPeerDirectory>(frame).peers;
}

Bytes encode_peer_hello(int rank) { return encode<FrameType::kPeerHello>({rank}); }
int decode_peer_hello(Frame frame) { return decode<FrameType::kPeerHello>(frame).rank; }

Bytes encode_config(const SimConfig& cfg) { return encode<FrameType::kConfig>(cfg); }
SimConfig decode_config(Frame frame) { return decode<FrameType::kConfig>(frame); }

Bytes encode_step_begin(const StepBegin& sb) { return encode<FrameType::kStepBegin>(sb); }
StepBegin decode_step_begin(Frame frame) { return decode<FrameType::kStepBegin>(frame); }

Bytes encode_boundaries(const Boundaries& b) { return encode<FrameType::kBoundaries>(b); }
Boundaries decode_boundaries(Frame frame) { return decode<FrameType::kBoundaries>(frame); }

Bytes encode_key_samples(const KeySamples& ks) { return encode<FrameType::kKeySamples>(ks); }
KeySamples decode_key_samples(Frame frame) { return decode<FrameType::kKeySamples>(frame); }

Bytes encode_migration(int src, int step, const ParticleSet& parts) {
  Writer w(FrameType::kMigration);
  migration(w, src, step, parts);
  return w.finish();
}
MigrationMsg decode_migration(Frame frame) { return decode<FrameType::kMigration>(frame); }

Bytes encode_step_result(const StepResult& sr) { return encode<FrameType::kStepResult>(sr); }
StepResult decode_step_result(Frame frame) { return decode<FrameType::kStepResult>(frame); }

Bytes encode_trace(const TraceFrame& tf) { return encode<FrameType::kTrace>(tf); }
TraceFrame decode_trace(Frame frame) { return decode<FrameType::kTrace>(frame); }

Bytes encode_shutdown() { return encode<FrameType::kShutdown>({}); }
void decode_shutdown(Frame frame) { decode<FrameType::kShutdown>(frame); }

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSuspended: return "suspended";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
  }
  return "unknown";
}

Bytes encode_job_submit(const JobSpec& spec) { return encode<FrameType::kJobSubmit>(spec); }
JobSpec decode_job_submit(Frame frame) { return decode<FrameType::kJobSubmit>(frame); }

Bytes encode_job_status(const JobStatusMsg& st) { return encode<FrameType::kJobStatus>(st); }
JobStatusMsg decode_job_status(Frame frame) { return decode<FrameType::kJobStatus>(frame); }

Bytes encode_job_result(const JobResultMsg& res) { return encode<FrameType::kJobResult>(res); }
JobResultMsg decode_job_result(Frame frame) { return decode<FrameType::kJobResult>(frame); }

Bytes encode_job_cancel(std::int32_t job_id) { return encode<FrameType::kJobCancel>({job_id}); }
std::int32_t decode_job_cancel(Frame frame) {
  return decode<FrameType::kJobCancel>(frame).job_id;
}

Bytes encode_snapshot(const SnapshotMsg& snap) { return encode<FrameType::kSnapshot>(snap); }
SnapshotMsg decode_snapshot(Frame frame) { return decode<FrameType::kSnapshot>(frame); }

Bytes encode_metrics_query() { return encode<FrameType::kMetricsQuery>({}); }
void decode_metrics_query(Frame frame) { decode<FrameType::kMetricsQuery>(frame); }

Bytes encode_metrics_report(const metrics::Snapshot& snapshot) {
  return encode<FrameType::kMetricsReport>(snapshot);
}
metrics::Snapshot decode_metrics_report(Frame frame) {
  return decode<FrameType::kMetricsReport>(frame);
}

// --- Incremental LET codec (wire v7) -----------------------------------------
// A LetDelta frame patches the LET a peer already holds into the fresh one.
// Node topology ships as per-node records — matched nodes name their cached
// counterpart (by index delta) and carry only the structural fields that
// changed; unmatched nodes ship the full TreeNode record. The floating-point
// payload (17 values per matched node, 4 per particle) ships as the XOR of
// each value against a prediction extrapolated from up to three cached
// generations; because exporter and importer extrapolate from mirrored,
// bit-identical inputs, the residual is lossless and near-zero for smoothly
// drifting values, so only its significant low bytes travel (a 4-bit length
// per value, two per byte, then the byte stream). This codec is stateful, so
// it is written by hand against the same Writer/Reader and TreeNode record.
namespace {

constexpr std::size_t kNodeValues = 17;  // box(6) mass com(3) quad(6) rcrit
constexpr std::size_t kPartValues = 4;   // x y z m

void node_values(const TreeNode& nd, double* out) {
  out[0] = nd.box.lo.x;
  out[1] = nd.box.lo.y;
  out[2] = nd.box.lo.z;
  out[3] = nd.box.hi.x;
  out[4] = nd.box.hi.y;
  out[5] = nd.box.hi.z;
  out[6] = nd.mp.mass;
  out[7] = nd.mp.com.x;
  out[8] = nd.mp.com.y;
  out[9] = nd.mp.com.z;
  for (std::size_t i = 0; i < 6; ++i) out[10 + i] = nd.mp.quad.q[i];
  out[16] = nd.rcrit;
}

void set_node_values(TreeNode& nd, const double* v) {
  nd.box.lo = {v[0], v[1], v[2]};
  nd.box.hi = {v[3], v[4], v[5]};
  nd.mp.mass = v[6];
  nd.mp.com = {v[7], v[8], v[9]};
  for (std::size_t i = 0; i < 6; ++i) nd.mp.quad.q[i] = v[10 + i];
  nd.rcrit = v[16];
}

// Extrapolate the next value from up to three cached generations (v1 newest).
// Kept out-of-line so the exporter and the importer run the *same* machine
// code: the XOR residual is lossless either way, but identical predictions
// are what make it small. Prediction order follows how long the element has
// been tracked, so freshly matched nodes fall back to last-value prediction.
[[gnu::noinline]] double predict(double v1, double v2, double v3, std::uint8_t age) {
  if (age >= 3) return 3.0 * (v1 - v2) + v3;  // quadratic extrapolation
  if (age == 2) return 2.0 * v1 - v2;         // linear extrapolation
  return v1;
}

void put_varint(Writer& w, std::uint64_t v) {
  while (v >= 0x80) {
    w.put(static_cast<std::uint8_t>(0x80 | (v & 0x7F)));
    v >>= 7;
  }
  w.put(static_cast<std::uint8_t>(v));
}

std::uint64_t read_varint(Reader& r) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    r.require(shift < 64, "varint too long");
    const auto b = r.get<std::uint8_t>();
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// Encoder half of the XOR-residual value stream.
struct ValueBlob {
  std::vector<std::uint8_t> lens;   // significant-byte count per value (0..8)
  std::vector<std::uint8_t> data;   // concatenated residual low bytes, LE

  void put(double actual, double pred) {
    std::uint64_t d =
        std::bit_cast<std::uint64_t>(actual) ^ std::bit_cast<std::uint64_t>(pred);
    std::uint8_t n = 0;
    while (d != 0) {
      data.push_back(static_cast<std::uint8_t>(d & 0xFF));
      d >>= 8;
      ++n;
    }
    lens.push_back(n);
  }

  void write(Writer& w) const {
    for (std::size_t i = 0; i < lens.size(); i += 2) {
      const std::uint8_t hi = (i + 1 < lens.size()) ? lens[i + 1] : 0;
      w.put(static_cast<std::uint8_t>(lens[i] | (hi << 4)));
    }
    w(data);
  }
};

// Decoder half: the nibble lengths are read up front (validated <= 8), then
// get() consumes residual bytes value by value.
class ValueBlobReader {
 public:
  ValueBlobReader(Reader& r, std::size_t count) : r_(r), lens_(count) {
    for (std::size_t i = 0; i < count; i += 2) {
      const auto b = r.get<std::uint8_t>();
      lens_[i] = b & 0x0F;
      if (i + 1 < count)
        lens_[i + 1] = b >> 4;
      else
        r.require((b >> 4) == 0, "value length padding not zero");
    }
    for (const std::uint8_t n : lens_)
      r.require(n <= 8, "value length out of range");
  }

  double get(double pred) {
    const std::uint8_t n = lens_[next_++];
    std::uint64_t d = 0;
    for (std::uint8_t i = 0; i < n; ++i)
      d |= static_cast<std::uint64_t>(r_.get<std::uint8_t>()) << (8 * i);
    return std::bit_cast<double>(d ^ std::bit_cast<std::uint64_t>(pred));
  }

 private:
  Reader& r_;
  std::vector<std::uint8_t> lens_;
  std::size_t next_ = 0;
};

// Match each node of `next` to its cached counterpart by the exact
// (key range, level) triple — the identity that survives a step while every
// float around it drifts. Each cached node matches at most once; the first
// claimant wins, deterministically.
std::vector<std::int32_t> match_nodes(const LetTree& cached, const LetTree& next) {
  std::map<std::array<std::uint64_t, 3>, std::int32_t> index;
  for (std::size_t j = 0; j < cached.nodes.size(); ++j) {
    const TreeNode& nd = cached.nodes[j];
    index.try_emplace({nd.key_begin, nd.key_end, nd.level},
                      static_cast<std::int32_t>(j));
  }
  std::vector<std::int32_t> match(next.nodes.size(), -1);
  for (std::size_t i = 0; i < next.nodes.size(); ++i) {
    const TreeNode& nd = next.nodes[i];
    const auto it = index.find({nd.key_begin, nd.key_end, nd.level});
    if (it == index.end()) continue;
    match[i] = it->second;
    index.erase(it);  // claim it
  }
  return match;
}

// Per-particle counterpart indices, derived from matched particle leaves of
// equal population: their ranges map element-wise.
std::vector<std::int64_t> match_particles(const LetTree& cached, const LetTree& next,
                                          std::span<const std::int32_t> nmatch) {
  std::vector<std::int64_t> match(next.num_particles(), -1);
  for (std::size_t i = 0; i < next.nodes.size(); ++i) {
    if (nmatch[i] < 0) continue;
    const TreeNode& nd = next.nodes[i];
    const TreeNode& od = cached.nodes[static_cast<std::size_t>(nmatch[i])];
    if (nd.kind != NodeKind::kParticleLeaf || od.kind != NodeKind::kParticleLeaf)
      continue;
    if (nd.count() != od.count() || nd.count() == 0) continue;
    for (std::uint32_t k = 0; k < nd.count(); ++k)
      match[nd.part_begin + k] = static_cast<std::int64_t>(od.part_begin) + k;
  }
  return match;
}

// Advance a pair's mirrored cache to `next` (the tree the peer now holds),
// shifting the per-element value history along the match arrays. Empty match
// arrays mean a full-frame reset: every element restarts at age 1. The
// caller sets `version`. Built fully before anything is assigned, so a
// throw (allocation) leaves the cache untouched.
void advance_let_cache(LetCacheEntry& cache, LetTree next,
                       std::span<const std::int32_t> nmatch,
                       std::span<const std::int64_t> pmatch) {
  const std::size_t n = next.num_cells();
  const std::size_t p = next.num_particles();
  std::vector<double> nh1(n * kNodeValues, 0.0), nh2(n * kNodeValues, 0.0);
  std::vector<double> ph1(p * kPartValues, 0.0), ph2(p * kPartValues, 0.0);
  std::vector<std::uint8_t> na(n, 1), pa(p, 1);
  if (!nmatch.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (nmatch[i] < 0) continue;
      const std::size_t j = static_cast<std::size_t>(nmatch[i]);
      node_values(cache.tree.nodes[j], &nh1[i * kNodeValues]);
      if (cache.node_age[j] >= 2)
        std::copy_n(&cache.node_hist1[j * kNodeValues], kNodeValues,
                    &nh2[i * kNodeValues]);
      na[i] = static_cast<std::uint8_t>(std::min<int>(cache.node_age[j] + 1, 3));
    }
    for (std::size_t k = 0; k < p; ++k) {
      if (pmatch[k] < 0) continue;
      const std::size_t q = static_cast<std::size_t>(pmatch[k]);
      ph1[k * kPartValues + 0] = cache.tree.x[q];
      ph1[k * kPartValues + 1] = cache.tree.y[q];
      ph1[k * kPartValues + 2] = cache.tree.z[q];
      ph1[k * kPartValues + 3] = cache.tree.m[q];
      if (cache.part_age[q] >= 2)
        std::copy_n(&cache.part_hist1[q * kPartValues], kPartValues,
                    &ph2[k * kPartValues]);
      pa[k] = static_cast<std::uint8_t>(std::min<int>(cache.part_age[q] + 1, 3));
    }
  }
  cache.tree = std::move(next);
  cache.node_hist1 = std::move(nh1);
  cache.node_hist2 = std::move(nh2);
  cache.part_hist1 = std::move(ph1);
  cache.part_hist2 = std::move(ph2);
  cache.node_age = std::move(na);
  cache.part_age = std::move(pa);
}

// Exact wire footprint of the full Let frame for the same tree.
std::uint64_t full_let_bytes(const LetTree& let) {
  return kHeaderBytes + min_size<LetMessage>() + let.num_cells() * min_size<TreeNode>() +
         let.num_particles() * kPartValues * min_size<double>();
}

}  // namespace

void LetCacheEntry::check_consistency() const {
  if (version == 0) {
    BNS_CHECK(tree.nodes.empty() && tree.num_particles() == 0 && node_hist1.empty() &&
                  node_hist2.empty() && part_hist1.empty() && part_hist2.empty() &&
                  node_age.empty() && part_age.empty(),
              "unsynced LET cache entry must be empty");
    return;
  }
  const std::size_t n = tree.num_cells();
  const std::size_t p = tree.num_particles();
  BNS_CHECK(node_hist1.size() == n * kNodeValues && node_hist2.size() == n * kNodeValues,
            "node history arrays out of step with the cached tree");
  BNS_CHECK(part_hist1.size() == p * kPartValues && part_hist2.size() == p * kPartValues,
            "particle history arrays out of step with the cached tree");
  BNS_CHECK(node_age.size() == n && part_age.size() == p,
            "age arrays out of step with the cached tree");
  for (const std::uint8_t a : node_age)
    BNS_CHECK(a >= 1 && a <= 3, "node age outside the prediction window");
  for (const std::uint8_t a : part_age)
    BNS_CHECK(a >= 1 && a <= 3, "particle age outside the prediction window");
}

LetEncodeResult encode_let_cached(const LetMessage& msg, LetCacheEntry& cache,
                                  double churn_ratio,
                                  std::vector<std::uint8_t>* scratch) {
  const LetTree& let = msg.let;
  LetEncodeResult res;
  res.full_bytes = full_let_bytes(let);
  std::vector<std::uint8_t> local;
  std::vector<std::uint8_t>& buf = scratch ? *scratch : local;

  if (cache.version != 0 && !let.empty()) {
    const std::vector<std::int32_t> nmatch = match_nodes(cache.tree, let);
    const std::vector<std::int64_t> pmatch = match_particles(cache.tree, let, nmatch);

    Writer w(FrameType::kLetDelta, std::move(buf));
    w(msg.src, msg.export_seconds, cache.version);
    w.put(static_cast<std::uint32_t>(let.num_cells()));
    w.put(static_cast<std::uint32_t>(let.num_particles()));

    ValueBlob node_blob;
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const TreeNode& nd = let.nodes[i];
      if (nmatch[i] < 0) {
        w.put(std::uint8_t{0});
        w(nd);
        continue;
      }
      const std::size_t j = static_cast<std::size_t>(nmatch[i]);
      const TreeNode& od = cache.tree.nodes[j];
      w.put(std::uint8_t{1});
      put_varint(w, zigzag(static_cast<std::int64_t>(j) - static_cast<std::int64_t>(i)));
      std::uint8_t sflags = 0;
      if (nd.part_begin != od.part_begin || nd.part_end != od.part_end) sflags |= 1;
      if (nd.first_child != od.first_child || nd.num_children != od.num_children ||
          nd.kind != od.kind)
        sflags |= 2;
      w.put(sflags);
      if (sflags & 1) {
        put_varint(w, zigzag(static_cast<std::int64_t>(nd.part_begin) -
                             static_cast<std::int64_t>(od.part_begin)));
        put_varint(w, zigzag(static_cast<std::int64_t>(nd.part_end) -
                             static_cast<std::int64_t>(od.part_end)));
      }
      if (sflags & 2) {
        w(nd.first_child, nd.num_children);
        w.put(static_cast<std::uint8_t>(nd.kind));
      }
      double vals[kNodeValues], base[kNodeValues];
      node_values(nd, vals);
      node_values(od, base);
      for (std::size_t k = 0; k < kNodeValues; ++k)
        node_blob.put(vals[k],
                      predict(base[k], cache.node_hist1[j * kNodeValues + k],
                              cache.node_hist2[j * kNodeValues + k], cache.node_age[j]));
    }

    // Particle coverage as runs of matched/raw indices.
    std::vector<std::array<std::int64_t, 3>> runs;  // {len, kind, old_start}
    const std::size_t np = let.num_particles();
    for (std::size_t k = 0; k < np;) {
      if (pmatch[k] < 0) {
        std::size_t e = k;
        while (e < np && pmatch[e] < 0) ++e;
        runs.push_back({static_cast<std::int64_t>(e - k), 0, 0});
        k = e;
      } else {
        std::size_t e = k;
        while (e + 1 < np && pmatch[e + 1] == pmatch[e] + 1) ++e;
        ++e;
        runs.push_back({static_cast<std::int64_t>(e - k), 1, pmatch[k]});
        k = e;
      }
    }
    w.put(static_cast<std::uint32_t>(runs.size()));
    std::size_t covered = 0;
    for (const auto& run : runs) {
      put_varint(w, static_cast<std::uint64_t>(run[0]));
      w.put(static_cast<std::uint8_t>(run[1]));
      if (run[1] == 1)
        put_varint(w, zigzag(run[2] - static_cast<std::int64_t>(covered)));
      covered += static_cast<std::size_t>(run[0]);
    }

    ValueBlob part_blob;
    for (std::size_t k = 0; k < np; ++k) {
      const double actual[kPartValues] = {let.x[k], let.y[k], let.z[k], let.m[k]};
      if (pmatch[k] < 0) {
        for (std::size_t c = 0; c < kPartValues; ++c) part_blob.put(actual[c], 0.0);
        continue;
      }
      const std::size_t q = static_cast<std::size_t>(pmatch[k]);
      const double base[kPartValues] = {cache.tree.x[q], cache.tree.y[q],
                                        cache.tree.z[q], cache.tree.m[q]};
      for (std::size_t c = 0; c < kPartValues; ++c)
        part_blob.put(actual[c],
                      predict(base[c], cache.part_hist1[q * kPartValues + c],
                              cache.part_hist2[q * kPartValues + c], cache.part_age[q]));
    }

    node_blob.write(w);
    part_blob.write(w);
    buf = w.finish();

    if (static_cast<double>(buf.size()) <
        churn_ratio * static_cast<double>(res.full_bytes)) {
      res.frame.assign(buf.begin(), buf.end());
      res.is_delta = true;
      advance_let_cache(cache, let, nmatch, pmatch);
      ++cache.version;
      if constexpr (kDcheckEnabled) cache.check_consistency();
      return res;
    }
    // Churn beyond the threshold: the patch is not worth shipping. Fall
    // through to a full frame, which also resets the peer's cache.
  }

  buf = encode<FrameType::kLet>(msg, std::move(buf));
  res.frame.assign(buf.begin(), buf.end());
  res.is_delta = false;
  advance_let_cache(cache, let, {}, {});
  cache.version = 1;
  if constexpr (kDcheckEnabled) cache.check_consistency();
  return res;
}

int peek_let_src(std::span<const std::uint8_t> frame) {
  const FrameType type = frame_type(frame);
  if (type != FrameType::kLet && type != FrameType::kLetDelta)
    throw WireError("wire decode: not a LET-class frame");
  Reader r(frame.subspan(kHeaderBytes));
  return r.get<std::int32_t>();
}

LetMessage decode_let_cached(std::span<const std::uint8_t> frame, LetCacheEntry& cache) {
  if (frame_type(frame) == FrameType::kLet) {
    LetMessage msg = decode_let(frame);
    advance_let_cache(cache, msg.let, {}, {});
    cache.version = 1;
    if constexpr (kDcheckEnabled) cache.check_consistency();
    return msg;
  }

  Reader r = open_frame(frame, FrameType::kLetDelta);
  LetMessage msg;
  msg.wire_bytes = frame.size();
  std::uint64_t base = 0;
  r(msg.src, msg.export_seconds, base);
  if (cache.version == 0)
    throw WireError("wire decode: LET delta without a cached base tree");
  if (base != cache.version)
    throw WireError("wire decode: LET delta base version mismatch (got " +
                    std::to_string(base) + ", expected " +
                    std::to_string(cache.version) + ")");

  const std::size_t num_nodes = r.get<std::uint32_t>();
  const std::size_t num_parts = r.get<std::uint32_t>();
  // Every node record costs at least one byte and every particle at least
  // two nibble bytes of value stream, so corrupted counts cannot trigger a
  // huge allocation.
  r.require(num_nodes <= r.remaining(), "node count exceeds payload");
  r.require(num_parts <= r.remaining() / 2, "particle count exceeds payload");
  const std::size_t old_nodes = cache.tree.num_cells();
  const std::size_t old_parts = cache.tree.num_particles();

  std::vector<TreeNode> nodes;
  nodes.reserve(num_nodes);
  std::vector<std::int32_t> nmatch(num_nodes, -1);
  std::size_t num_matched = 0;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const auto flags = r.get<std::uint8_t>();
    r.require(flags <= 1, "unknown LET delta node flags");
    if (!(flags & 1)) {
      TreeNode nd;
      r(nd);
      validate_node(nd, i, num_nodes, num_parts);
      nodes.push_back(nd);
      continue;
    }
    const std::int64_t j = static_cast<std::int64_t>(i) + unzigzag(read_varint(r));
    r.require(j >= 0 && j < static_cast<std::int64_t>(old_nodes),
              "LET delta node match out of range");
    nmatch[i] = static_cast<std::int32_t>(j);
    ++num_matched;
    TreeNode nd = cache.tree.nodes[static_cast<std::size_t>(j)];
    const auto sflags = r.get<std::uint8_t>();
    r.require(sflags <= 3, "unknown LET delta node change flags");
    if (sflags & 1) {
      const std::int64_t pb =
          static_cast<std::int64_t>(nd.part_begin) + unzigzag(read_varint(r));
      const std::int64_t pe =
          static_cast<std::int64_t>(nd.part_end) + unzigzag(read_varint(r));
      r.require(pb >= 0 && pb <= static_cast<std::int64_t>(num_parts) && pe >= 0 &&
                    pe <= static_cast<std::int64_t>(num_parts),
                "LET delta particle range out of bounds");
      nd.part_begin = static_cast<std::uint32_t>(pb);
      nd.part_end = static_cast<std::uint32_t>(pe);
    }
    if (sflags & 2) {
      r(nd.first_child, nd.num_children);
      r.bounded(nd.kind, NodeKind::kMultipoleLeaf, "unknown node kind");
    }
    nodes.push_back(nd);
  }

  const std::size_t num_runs = r.get<std::uint32_t>();
  std::vector<std::int64_t> pmatch(num_parts, -1);
  std::size_t covered = 0;
  for (std::size_t run = 0; run < num_runs; ++run) {
    const std::uint64_t len = read_varint(r);
    r.require(len >= 1 && len <= num_parts - covered,
              "LET delta runs exceed particle count");
    const auto kind = r.get<std::uint8_t>();
    r.require(kind <= 1, "unknown LET delta run kind");
    if (kind == 1) {
      const std::int64_t old_start =
          static_cast<std::int64_t>(covered) + unzigzag(read_varint(r));
      r.require(old_start >= 0 && static_cast<std::uint64_t>(old_start) + len <=
                                      static_cast<std::uint64_t>(old_parts),
                "LET delta run out of range");
      for (std::uint64_t k = 0; k < len; ++k)
        pmatch[covered + k] = old_start + static_cast<std::int64_t>(k);
    }
    covered += static_cast<std::size_t>(len);
  }
  r.require(covered == num_parts, "LET delta runs do not cover particles");

  ValueBlobReader node_vals(r, num_matched * kNodeValues);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    if (nmatch[i] < 0) continue;
    const std::size_t j = static_cast<std::size_t>(nmatch[i]);
    double base_vals[kNodeValues], out[kNodeValues];
    node_values(cache.tree.nodes[j], base_vals);
    for (std::size_t k = 0; k < kNodeValues; ++k)
      out[k] = node_vals.get(
          predict(base_vals[k], cache.node_hist1[j * kNodeValues + k],
                  cache.node_hist2[j * kNodeValues + k], cache.node_age[j]));
    set_node_values(nodes[i], out);
  }

  ValueBlobReader part_vals(r, num_parts * kPartValues);
  msg.let.x.resize(num_parts);
  msg.let.y.resize(num_parts);
  msg.let.z.resize(num_parts);
  msg.let.m.resize(num_parts);
  for (std::size_t k = 0; k < num_parts; ++k) {
    double pred[kPartValues] = {0.0, 0.0, 0.0, 0.0};
    if (pmatch[k] >= 0) {
      const std::size_t q = static_cast<std::size_t>(pmatch[k]);
      const double base_vals[kPartValues] = {cache.tree.x[q], cache.tree.y[q],
                                             cache.tree.z[q], cache.tree.m[q]};
      for (std::size_t c = 0; c < kPartValues; ++c)
        pred[c] = predict(base_vals[c], cache.part_hist1[q * kPartValues + c],
                          cache.part_hist2[q * kPartValues + c], cache.part_age[q]);
    }
    msg.let.x[k] = part_vals.get(pred[0]);
    msg.let.y[k] = part_vals.get(pred[1]);
    msg.let.z[k] = part_vals.get(pred[2]);
    msg.let.m[k] = part_vals.get(pred[3]);
  }
  r.done();

  // The patched tree gets the same traversal-safety validation a full frame
  // gets, before it can be walked or cached.
  for (std::size_t i = 0; i < num_nodes; ++i)
    validate_node(nodes[i], i, num_nodes, num_parts);
  msg.let.nodes = std::move(nodes);

  // Patch validated: commit the pair's new state. Nothing above mutated the
  // cache, so a thrown WireError leaves it exactly as it was.
  advance_let_cache(cache, msg.let, nmatch, pmatch);
  ++cache.version;
  if constexpr (kDcheckEnabled) cache.check_consistency();
  return msg;
}

}  // namespace bonsai::domain::wire
