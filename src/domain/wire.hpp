// Versioned wire format for inter-rank messages (the serialization layer the
// ROADMAP names as the blocker for real transports, §III-B of the paper).
//
// Every message is a self-describing *frame*: a fixed 16-byte header
// (magic, version, frame type, payload length) followed by a flat
// little-endian payload. Frames are what a Transport moves between ranks —
// live C++ objects never cross the rank boundary, so an MPI or socket
// backend carries exactly the same bytes as the in-process loopback.
//
// Decoding validates hard: magic/version/type/length are checked before any
// payload read, every payload read is bounds-checked against the buffer, and
// structural invariants of decoded trees (node kinds, child ranges pointing
// strictly forward, particle ranges inside the payload arrays) are enforced.
// A malformed frame throws WireError; it never reads out of bounds and never
// produces a tree the traversal could walk off of.
//
// Adding a frame takes one message struct, one fields() description in
// wire.cpp (the Writer, the bounds-checked Reader and the size pass all run
// it) and one row in wire.cpp's frame table; a FrameType value without a row
// fails to compile. Then give the new type a seed frame in
// tests/fuzz/wire_corpus.hpp and run corpus_dump. Bump kVersion, and
// regenerate the corpora, only when the bytes of an existing frame change
// (and see kSnapshotLayoutVersion).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "domain/let.hpp"
#include "domain/metrics.hpp"
#include "domain/rank.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai::domain::wire {

// Frame header constants. The magic bytes spell "BNSW" on the wire.
// Version 3 extends Hello with the worker's mesh listen port and adds the
// PeerDirectory / PeerHello handshake frames of the mesh topology. Version 4
// adds the Trace frame (span traces + metric deltas shipped alongside
// StepResult) and the trace flag in Config. Version 5 adds the kernel-backend
// selector to Config and the batched-engine counters (padded interactions,
// batch counts, batch-size histogram) to the StepResult interaction stats.
// Version 6 adds the job-server client protocol (JobSubmit / JobStatus /
// JobResult / JobCancel / Snapshot) and the live metrics scrape
// (MetricsQuery / MetricsReport). Version 7 adds the incremental LET
// exchange: the LetDelta frame (a versioned per-pair patch against the LET
// the peer already holds), the let-cache/churn knobs in Config, and the
// delta accounting counters in StepResult. Version 8 narrows the kernel
// selector of Config and JobSubmit to scalar (0) and simd (1): simd now
// names the mixed-precision rsqrt drain, and the retired simd-float (2) is
// rejected. It also adds the worker's clock domain to the Trace frame.
// Version 9 replaces StepResult's typed wire/traffic/LET-size/delta fields
// with the worker's metrics Snapshot (counters and histograms only) and drops
// the metric deltas from the Trace frame. Version 10 drops the hub cluster
// mode's StepBegin fields (key-space bounds, active set, domain boxes) and
// StepResult's particle batch, and renumbers StepMode from 0.
inline constexpr std::uint32_t kMagic = 0x57534E42u;
inline constexpr std::uint16_t kVersion = 10;
inline constexpr std::size_t kHeaderBytes = 16;

// The version in which the Snapshot frame and the particle payload it
// carries last changed their bytes (version 6 added the frame; no bump
// since has touched it). Snapshot files of any version from here up to
// kVersion load (serve/snapshot.hpp). A bump that changes those bytes must
// raise this to the new kVersion.
inline constexpr std::uint16_t kSnapshotLayoutVersion = 6;

enum class FrameType : std::uint16_t {
  kLet = 1,        // one rank's LET for one remote rank
  kParticles = 2,  // particle batch (in-process migration cell, gather reply)
  kHello = 3,      // worker -> coordinator: rank id + mesh listen port
  kConfig = 4,     // coordinator -> worker: simulation parameters
  kStepBegin = 5,  // coordinator -> worker: step trigger (+ bootstrap batch)
  kStepResult = 6, // worker -> coordinator: timings, stats, energies
  kShutdown = 7,   // coordinator -> worker: exit cleanly; client -> job server:
                   // stop serving
  kBoundaries = 8, // SPMD allgather: one rank's local bounds/population/weight
  kKeySamples = 9, // SPMD allgather: one rank's sampled SFC keys
  kMigration = 10, // SPMD peer-to-peer: owner-changing particles (alltoallv cell)
  kPeerDirectory = 11,  // coordinator -> worker: every worker's mesh endpoint
  kPeerHello = 12,      // worker -> worker: dialing rank's id on a fresh mesh link
  kTrace = 13,          // worker -> coordinator: step spans + clock samples
  kJobSubmit = 14,      // client -> job server: job spec (+ optional explicit IC)
  kJobStatus = 15,      // client <-> job server: status request / description
  kJobResult = 16,      // job server -> client: terminal state + final particles
  kJobCancel = 17,      // client -> job server: cancel a queued or running job
  kSnapshot = 18,       // checkpoint/snapshot: per-rank populations + step
  kMetricsQuery = 19,   // client -> job server: scrape the metrics registry
  kMetricsReport = 20,  // job server -> client: the registry snapshot
  kLetDelta = 21,       // incremental LET: patch against the peer's cached LET
  kEnd,                 // one past the last frame type: add new types above
};

// Human-readable frame type name for reports ("Let", "Migration", ...).
const char* frame_type_name(FrameType type);

// One row of the frame table.
struct FrameInfo {
  using Reencode = std::vector<std::uint8_t> (*)(std::span<const std::uint8_t> frame);

  FrameType type;
  const char* name;
  // Decode a frame of this type and encode the decoded message again: the
  // identity on every frame an encoder produced. Null for LetDelta, whose
  // codec is stateful (encode_let_cached / decode_let_cached).
  Reencode reencode;
};

// The frame table: one row per FrameType, in wire-value order.
std::span<const FrameInfo> frame_table();

// Malformed/truncated/mismatched frame. Decoders throw this (and only this)
// for any byte-level problem.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// Validate the header of `frame` (magic, version, payload length against the
// buffer size) and return its type. Throws WireError on any mismatch.
FrameType frame_type(std::span<const std::uint8_t> frame);

// Books serialization accounting into `into` under traffic class `kind`
// ("let", "part" or "dom"): wire.<kind>.frames / .bytes count encoded frames
// put on the wire, wire.<kind>.encode_s / .decode_s the codec seconds. All
// four rows are touched on every call, zeros included.
void count_wire(metrics::Snapshot& into, std::string_view kind, std::uint64_t frames,
                std::uint64_t bytes, double encode_seconds, double decode_seconds);

// One LET in flight from rank `src`, carrying the sender-side extraction cost
// so the schedule model can reconstruct when the message could have arrived,
// and (after decode) the encoded frame size for the LET size histogram.
struct LetMessage {
  int src = -1;
  LetTree let;
  double export_seconds = 0.0;
  std::uint64_t wire_bytes = 0;
};

// --- LET frames --------------------------------------------------------------
std::vector<std::uint8_t> encode_let(const LetMessage& msg);
LetMessage decode_let(std::span<const std::uint8_t> frame);

// --- Incremental LET frames (wire v7) ----------------------------------------
// One (src, dst) pair's incremental-exchange state: the LET the peer
// currently holds plus up to two older generations of its values, aligned
// with `tree` — 17 doubles per node (box, mass, com, quad, rcrit) and 4 per
// particle (x, y, z, m). The exporter and the importer evolve a mirrored
// copy of this entry from the same shipped match indices, so predictions
// are computed from bit-identical inputs on both sides. `*_age[i]` counts
// the generations valid for element i (1 = only `tree`, 3 = all).
struct LetCacheEntry {
  std::uint64_t version = 0;  // 0: nothing synced (first contact or reset)
  LetTree tree;
  std::vector<double> node_hist1, node_hist2;  // [num_cells * 17]
  std::vector<double> part_hist1, part_hist2;  // [num_particles * 4]
  std::vector<std::uint8_t> node_age, part_age;

  void reset() { *this = LetCacheEntry{}; }

  // Mirror consistency: history/age arrays sized to the cached tree, ages in
  // [1, 3], and an unsynced entry (version 0) fully empty. Exporter and
  // importer run the same check after every commit (Debug/sanitizer builds),
  // so a divergence is caught at the seam instead of as silent drift in a
  // later delta. Throws CheckError on violation.
  void check_consistency() const;
};

struct LetEncodeResult {
  std::vector<std::uint8_t> frame;
  bool is_delta = false;
  std::uint64_t full_bytes = 0;  // what a full Let frame would have cost
};

// Exporter side of the incremental exchange: encode `msg.let` for a peer
// whose mirrored state is `cache`. Ships a kLetDelta patch when it comes
// out smaller than `churn_ratio` times the full encoding (topology churn
// and migration churn inflate the patch past that bound, which is the
// fallback trigger); ships a full kLet frame otherwise, and always on
// first contact or for an empty tree. Updates `cache` to what the peer
// will hold after decoding. `scratch` (optional) is an encode buffer
// whose capacity is reused across calls.
LetEncodeResult encode_let_cached(const LetMessage& msg, LetCacheEntry& cache,
                                  double churn_ratio,
                                  std::vector<std::uint8_t>* scratch = nullptr);

// Importer side: decode a kLet or kLetDelta frame against `cache`. A full
// frame unconditionally resets the pair's state (version restarts at 1); a
// delta requires its base version to equal `cache.version` exactly and is
// patched and re-validated against the full traversal-safety invariants
// before the tree is returned. On any WireError the cache is left exactly
// as it was (patches commit only after validation).
LetMessage decode_let_cached(std::span<const std::uint8_t> frame, LetCacheEntry& cache);

// The source rank of a kLet/kLetDelta frame without decoding it (both
// layouts lead with the source id) — the importer routes the frame to the
// right per-pair cache before the full decode.
int peek_let_src(std::span<const std::uint8_t> frame);

// --- Particle-migration batches ----------------------------------------------
// A batch owns full particle state; forces/potential ride along only when
// `with_forces` (the worker -> coordinator result direction). Migration
// batches travel force-free — forces are recomputed every step.
struct ParticleBatch {
  int src = -1;
  bool with_forces = false;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_particles(int src, const ParticleSet& parts,
                                           bool with_forces);
ParticleBatch decode_particles(std::span<const std::uint8_t> frame);

// --- Cluster control frames (coordinator <-> out-of-process workers) ---------
// The first frame on every worker -> coordinator connection. `listen_port`
// is the port the worker's own mesh listener is bound to (0: star topology,
// the worker accepts no peer connections).
struct Hello {
  int rank = -1;
  std::uint16_t listen_port = 0;
};

std::vector<std::uint8_t> encode_hello(int rank, std::uint16_t listen_port = 0);
Hello decode_hello(std::span<const std::uint8_t> frame);

// --- Mesh-topology handshake frames ------------------------------------------
// One worker's dialable endpoint, as the coordinator's rendezvous learned it
// from the Hello handshake.
struct PeerEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

// The rendezvous directory the coordinator broadcasts before Config in mesh
// topology: entry r is rank r's listen endpoint. Workers dial every
// higher-ranked entry; lower ranks accept, so each pair meets exactly once.
std::vector<std::uint8_t> encode_peer_directory(std::span<const PeerEndpoint> peers);
std::vector<PeerEndpoint> decode_peer_directory(std::span<const std::uint8_t> frame);

// The dialing worker's rank announcement, first frame on a fresh mesh link.
std::vector<std::uint8_t> encode_peer_hello(int rank);
int decode_peer_hello(std::span<const std::uint8_t> frame);

std::vector<std::uint8_t> encode_config(const SimConfig& cfg);
SimConfig decode_config(std::span<const std::uint8_t> frame);

// What a StepBegin asks the worker to do.
enum class StepMode : std::uint8_t {
  kSpmdBootstrap = 0,  // batch seeds the resident state, then run SPMD phases
  kSpmdStep = 1,       // empty batch: step the resident state via SPMD phases
  kCollect = 2,        // no step: reply with the resident particles (+forces)
};

// The coordinator's per-step trigger: a bare step number and mode, plus the
// worker's bootstrap batch on the first step. Workers compute the key space,
// active set and domain boxes themselves from the Boundaries/KeySamples
// allgathers.
struct StepBegin {
  int step = 0;
  StepMode mode = StepMode::kSpmdStep;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_step_begin(const StepBegin& sb);
StepBegin decode_step_begin(std::span<const std::uint8_t> frame);

// --- SPMD domain frames ------------------------------------------------------
// One rank's contribution to the distributed domain update, posted to every
// peer. Pre-migration (phase 1) it carries the local particle bounds, the
// population and the rank's cost weight (measured gravity seconds per
// particle last step; 0 outside cost balancing) — enough for every rank to
// build the identical global KeySpace, sample stride and weight vector.
// Post-migration (phase 4) the same frame re-announces the rank's new
// population and tight box, which is what peers build LETs against.
struct Boundaries {
  int src = -1;
  int step = 0;
  bool post_migration = false;
  std::uint64_t count = 0;  // local population (0: box is default/invalid)
  AABB box;
  double weight = 0.0;
};

std::vector<std::uint8_t> encode_boundaries(const Boundaries& b);
Boundaries decode_boundaries(std::span<const std::uint8_t> frame);

// One rank's sampled SFC keys (phase 2): pooled in rank order by every
// receiver, so all ranks cut the identical Decomposition.
struct KeySamples {
  int src = -1;
  int step = 0;
  std::vector<sfc::Key> keys;
};

std::vector<std::uint8_t> encode_key_samples(const KeySamples& ks);
KeySamples decode_key_samples(std::span<const std::uint8_t> frame);

// One (src, dst) cell of the SPMD particle alltoallv (phase 3): the
// particles of `src` whose new owner is the destination rank. Always
// force-free — forces are recomputed every step.
struct MigrationMsg {
  int src = -1;
  int step = 0;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_migration(int src, int step, const ParticleSet& parts);
MigrationMsg decode_migration(std::span<const std::uint8_t> frame);

// A worker's step output: per-stage timings, interaction/LET statistics,
// the local population/energy summary and the worker's step accounting —
// never particles, which stay resident on the worker. `boundaries` carries
// the Decomposition the worker computed so the coordinator can cross-check
// that all workers derived the identical partition. `metrics` holds what the
// worker booked this step (wire.*, let.delta.*, transport.post.* counters and
// the let.size.bytes histogram); the coordinator merges the workers'
// Snapshots in rank order. It carries only additive counters and histograms:
// a gauge, or a histogram whose buckets do not sum to its count, is a
// WireError.
struct StepResult {
  int rank = -1;
  std::uint64_t let_cells = 0;
  std::uint64_t let_particles = 0;
  InteractionStats local_stats, remote_stats;
  std::uint64_t migrated = 0;     // emigrants this rank posted (SPMD)
  std::uint64_t local_count = 0;  // resident population after the step
  double kinetic = 0.0;           // local kinetic-energy partial sum
  double potential = 0.0;         // local potential-energy partial sum
  TimeBreakdown times;
  std::vector<sfc::Key> boundaries;  // computed decomposition bounds
  metrics::Snapshot metrics;
};

std::vector<std::uint8_t> encode_step_result(const StepResult& sr);
StepResult decode_step_result(std::span<const std::uint8_t> frame);

// A worker's observability sidecar for one step, posted just before the
// StepResult when tracing is on: the spans its driver thread recorded and the
// two worker-local clock samples the coordinator needs for the NTP-style
// offset estimate (recv_ns: StepBegin decoded, send_ns: Trace frame encoded —
// both on the worker's steady clock).
struct TraceFrame {
  int src = -1;
  int step = 0;
  std::int64_t recv_ns = 0;
  std::int64_t send_ns = 0;
  std::uint64_t clock_domain = 0;  // the worker's trace::clock_domain()
  std::vector<trace::Span> spans;
};

std::vector<std::uint8_t> encode_trace(const TraceFrame& tf);
TraceFrame decode_trace(std::span<const std::uint8_t> frame);

// Payload-less frames: decoding checks the type and that the payload is
// empty.
std::vector<std::uint8_t> encode_shutdown();
void decode_shutdown(std::span<const std::uint8_t> frame);

// --- Job-server client protocol (wire v6; see src/serve/) --------------------
// Lifecycle of a job on the server. Rejected/Failed/Cancelled/Completed are
// terminal; Suspended jobs hold a disk checkpoint and resume when slots free.
enum class JobState : std::uint8_t {
  kQueued = 0,     // admitted, waiting for rank slots
  kRunning = 1,    // stepping on its slice of the rank pool
  kSuspended = 2,  // preempted: checkpointed to disk, slots released
  kCompleted = 3,  // all steps done, result available
  kCancelled = 4,  // cancelled by a client before completion
  kFailed = 5,     // runner threw; reason carries the message
  kRejected = 6,   // admission control refused it; reason names the limit
};

// Human-readable state name ("queued", "running", ...).
const char* job_state_name(JobState state);

// What a client asks the server to run. When `parts` is empty the server
// generates a Plummer sphere from (n, seed); otherwise `parts` is the
// explicit force-free initial condition (e.g. a --snapshot-in file) and `n`
// is ignored. `ranks` = 0 lets the scheduler size the job's slice of the
// rank pool; `priority` orders the queue, and a higher-priority job may
// preempt a running lower-priority one.
struct JobSpec {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t seed = 42;
  std::int32_t steps = 1;
  std::int32_t ranks = 0;
  std::int32_t priority = 0;
  double theta = 0.4;
  double eps = 1e-2;
  double dt = 1e-3;
  KernelBackend kernel = KernelBackend::kSimd;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_job_submit(const JobSpec& spec);
JobSpec decode_job_submit(std::span<const std::uint8_t> frame);

// One job's description. Client -> server it is a request (only job_id —
// and `wait`, which asks the server to block until the job is terminal and
// answer with a JobResult frame instead); server -> client it is the reply
// to a submit, status or cancel, fully filled. `reason` carries the
// admission-rejection or failure detail.
struct JobStatusMsg {
  std::int32_t job_id = -1;
  JobState state = JobState::kQueued;
  bool wait = false;
  std::int32_t steps_done = 0;
  std::int32_t steps_total = 0;
  std::int32_t ranks = 0;
  std::int32_t priority = 0;
  std::uint64_t n = 0;
  std::string reason;
};

std::vector<std::uint8_t> encode_job_status(const JobStatusMsg& status);
JobStatusMsg decode_job_status(std::span<const std::uint8_t> frame);

// Terminal answer to a `wait` request: the final state, energies, and — for
// completed jobs — the particle population with forces, sorted by id.
struct JobResultMsg {
  std::int32_t job_id = -1;
  JobState state = JobState::kCompleted;
  std::int32_t steps_done = 0;
  double kinetic = 0.0;
  double potential = 0.0;
  std::string reason;
  ParticleSet parts;
};

std::vector<std::uint8_t> encode_job_result(const JobResultMsg& result);
JobResultMsg decode_job_result(std::span<const std::uint8_t> frame);

std::vector<std::uint8_t> encode_job_cancel(std::int32_t job_id);
std::int32_t decode_job_cancel(std::span<const std::uint8_t> frame);

// A checkpoint/snapshot: the per-rank populations in array order (forces
// included) plus the step counter. Under count balancing these are the
// complete input of the next step, so restoring them into a fresh Simulation
// with the same config resumes bit-for-bit — this frame is the job server's
// preemption checkpoint, the --snapshot-out/--snapshot-in file format, and
// the reply to a client's snapshot request (an empty-`sets` Snapshot frame
// carrying the job id).
struct SnapshotMsg {
  std::int32_t job_id = -1;  // -1: standalone file outside the server
  std::int32_t next_step = 0;
  std::vector<ParticleSet> sets;
};

std::vector<std::uint8_t> encode_snapshot(const SnapshotMsg& snap);
SnapshotMsg decode_snapshot(std::span<const std::uint8_t> frame);

// Live scrape of a running server's metrics registry (job-labeled step
// aggregates plus the server's own counters/gauges).
std::vector<std::uint8_t> encode_metrics_query();
void decode_metrics_query(std::span<const std::uint8_t> frame);
std::vector<std::uint8_t> encode_metrics_report(const metrics::Snapshot& snapshot);
metrics::Snapshot decode_metrics_report(std::span<const std::uint8_t> frame);

}  // namespace bonsai::domain::wire
