// Multi-rank driver: the in-process analogue of the paper's full per-step
// pipeline (§III-B, Table II):
//
//   domain update (sampled boundary keys)  ->  particle exchange
//   -> per-rank sort / tree build / properties
//   -> LET exchange (sender-side extraction, receiver-side walk)
//   -> gravity: local tree walk + imported-LET walks
//   -> integration
//
// One schedule drives the ranks (§III-B3): one Executor lane per rank runs
// the whole pipeline independently; LETs travel as serialized wire frames
// through the byte Transport, and a rank walks the imported LETs as they
// arrive (in fixed peer order) — local gravity is not a barrier, and no
// rank waits for all imports first. The step report carries the modeled
// critical path vs the lockstep stage-sum (overlap efficiency).
//
// Per-stage timings are recorded per rank, so the report can show the
// parallel-model wall-clock (max over ranks) and total device-seconds (sum),
// the way Table II reports per-process times.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "domain/channel.hpp"
#include "domain/decomposition.hpp"
#include "domain/executor.hpp"
#include "domain/metrics.hpp"
#include "domain/rank.hpp"
#include "domain/schedule.hpp"
#include "domain/transport.hpp"
#include "domain/wire.hpp"
#include "util/flops.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

// Everything one step produces, for printing and for tests.
struct StepReport {
  int step = 0;
  KernelBackend kernel = KernelBackend::kSimd;  // force backend of this step
  std::size_t num_particles = 0;
  std::uint64_t migrated = 0;       // particles that changed rank this step
  std::uint64_t let_cells = 0;      // total exported LET nodes
  std::uint64_t let_particles = 0;  // total exported leaf particles
  InteractionStats local_stats, remote_stats;
  TimeBreakdown max_times;  // per-stage max over ranks (parallel wall-clock)
  TimeBreakdown sum_times;  // per-stage sum over ranks (device-seconds)
  double elapsed = 0.0;     // actual wall-clock of the whole step

  // Schedule model (see schedule.hpp), from the in-process lanes' timelines:
  // the pipelined critical path vs the lockstep stage-sum over the
  // rank-concurrent stages, and the same pair restricted to the LET exports
  // (extraction + encode), Gravity local and the remote walks (decode +
  // walk). All zero when the driver has no lane model (the
  // cluster coordinator sees only its workers' stage totals).
  double critical_path = 0.0;
  double sequential_model = 0.0;
  double gravity_critical = 0.0;
  double gravity_sequential = 0.0;

  // The step's accounting, the only source the printer, the --bench JSON and
  // the job server read it from. Booked where it is measured:
  //   wire.{let,part,dom}.{frames,bytes,encode_s,decode_s}  serialization:
  //       LET frames, particle batches (migration cells plus the cluster
  //       StepBegin/StepResult frames), SPMD domain frames (Boundaries /
  //       KeySamples allgathers);
  //   let.delta.*                      incremental LET exchange (--let-cache);
  //   let.size.bytes                   histogram of imported LET frame sizes;
  //   gravity.{walk,drain}_s           device-seconds of tree walk + list
  //       staging vs batch drains, measured per device thread, per rank;
  //   transport.post.{frames,bytes}{src,dst,type}    send-side traffic matrix
  //       (kCoordinatorRank appears as -1);
  //   transport.routed.{frames,bytes}{src,dst,type}  cluster runs only: the
  //       worker↔worker frames the coordinator forwarded (a steady-state mesh
  //       step leaves none).
  // The driver adds the physics and derived rows from the fields above with
  // build_step_metrics(). Cluster workers' rows arrive in their StepResults.
  metrics::Snapshot metrics;

  // Tracing runs only: every span recorded this step, already merged across
  // ranks (and, in cluster runs, clock-shifted onto the coordinator's clock).
  std::vector<trace::Span> spans;

  InteractionStats stats() const { return local_stats + remote_stats; }

  bool has_lane_model() const { return critical_path > 0.0; }

  // How much faster the pipelined schedule completes than the lockstep one
  // (>= 1; ratio of modeled times).
  double overlap_efficiency() const {
    return critical_path > 0.0 ? sequential_model / critical_path : 1.0;
  }
};

// Thread-budget policy for per-rank device pools: R rank pipelines partition
// the host's `hardware_threads`, each receiving floor(hw/R) workers (minimum
// 1 — hosts with fewer cores than ranks run oversubscribed but correct; a
// 1-core host gives every rank exactly one worker). An explicit
// cfg.threads_per_rank is clamped to that share: concurrent pipelines must
// not oversubscribe each other.
std::size_t threads_for(const SimConfig& cfg, std::size_t hardware_threads);

class Simulation {
 public:
  explicit Simulation(const SimConfig& cfg);

  // Scatter an initial particle set across the ranks (samples an initial
  // decomposition and runs one exchange).
  void init(ParticleSet global);

  // One full pipeline step; forces are valid for every particle afterwards.
  StepReport step();

  // All particles of all ranks, sorted by id, with forces preserved.
  ParticleSet gather() const;

  std::size_t num_particles() const;
  const SimConfig& config() const { return cfg_; }
  const Decomposition& decomposition() const { return decomp_; }
  const sfc::KeySpace& key_space() const { return space_; }
  Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  const Rank& rank(int r) const { return *ranks_[static_cast<std::size_t>(r)]; }

  // Diagnostics over the current population (KE from velocities, PE from the
  // per-particle potentials of the last force pass).
  double kinetic_energy() const;
  double potential_energy() const;

  // Checkpoint/restore seam (the job server's preemption primitive): the
  // per-rank populations in array order plus the step counter are, under
  // count balancing, the complete input of the next step — step() resamples
  // the decomposition and key space from the sets before anything else.
  // Restoring a checkpoint into a fresh Simulation with the same config
  // therefore continues bit-for-bit where the checkpointed run left off
  // (cost balancing resumes too, but falls back to the equal-count cut on
  // its first step: measured gravity seconds are not replayable).
  std::vector<ParticleSet> checkpoint_sets() const;
  void restore(std::vector<ParticleSet> sets, int next_step);
  int next_step() const { return next_step_; }

 private:
  // Domain update + particle exchange (on the rank lanes); records the
  // driver's and each rank's timings and the counts.
  void redistribute(StepReport& report, TimeBreakdown& driver_times,
                    std::span<TimeBreakdown> rank_times);

  // Runs every rank's pipeline on its Executor lane; leaves valid forces on
  // every rank and fills per-rank stage times and `lanes` for the pipeline
  // model.
  void run_lanes(StepReport& report, std::vector<TimeBreakdown>& rank_times,
                 std::vector<LaneTimeline>& lanes);

  SimConfig cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::unique_ptr<Executor> executor_;  // one lane per rank
  // All inter-rank traffic (LET frames, particle batches) flows through the
  // recorder wrapped around this byte transport; swapping the backend for a
  // socket/MPI one changes no pipeline code (the out-of-process driver in
  // domain/cluster.hpp does exactly that). The recorder feeds the step's
  // transport.post.* counters.
  std::unique_ptr<InProcTransport> inproc_;
  std::unique_ptr<TrafficRecordingTransport> transport_;
  Decomposition decomp_;
  sfc::KeySpace space_;
  int next_step_ = 0;

  // Incremental LET exchange: per-pair caches and encode scratch, persisting
  // across the per-step LetExchange instances (--let-cache).
  LetChannelState let_state_;

  // Feedback for BalanceMode::kCost: last step's per-rank gravity seconds
  // and populations (empty before the first step).
  std::vector<double> prev_gravity_seconds_;
  std::vector<std::size_t> prev_rank_size_;
};

// The shared "Domain update" + "Exchange particles" stages (used by the
// in-process Simulation and the cluster coordinator's bootstrap so their
// reports cannot drift apart): sample a new decomposition from the per-rank
// sets on the driver — cost-weighted by the previous step's gravity seconds
// per particle when BalanceMode::kCost and a step has been timed — then
// migrate particles through `transport`, each rank's passes on its lane of
// `lanes` when given (see exchange()). Records the counts, the driver's
// "Domain update" time, each rank's exchange rows in `rank_times` (one per
// rank; serialization cost broken out into the wire rows) and the
// wire.part.* counters. Returns the domain update so callers keep the
// bounds/space/partition.
DomainUpdate redistribute_sets(std::vector<ParticleSet>& sets, const SimConfig& cfg,
                               std::span<const double> prev_gravity_seconds,
                               std::span<const std::size_t> prev_rank_size,
                               Transport& transport, StepReport& report,
                               TimeBreakdown& driver_times, std::span<TimeBreakdown> rank_times,
                               Executor* lanes);

// Everything one rank's LET/gravity phase produces.
struct RankStepStats {
  std::uint64_t let_cells = 0, let_particles = 0;
  InteractionStats local_stats, remote_stats;
};

// One rank's step body after tree build — the phase the in-process lanes and
// the socket workers must run identically for out-of-process runs
// to reproduce in-process forces: round-robin LET exports starting at
// self+1, local gravity, remote gravity per arrived LET, integration, and
// the wire stage rows (the LET accounting itself stays in `net`). `next_peer` advances past each successfully
// posted peer so a caller's failure path knows which posts are still owed.
// `lane`, when given, records the timeline for the schedule model.
RankStepStats run_rank_step(Rank& rank, const SimConfig& cfg, LetExchange& net,
                            std::span<const std::uint8_t> active,
                            std::span<const AABB> boxes, TimeBreakdown& times,
                            LaneTimeline* lane, std::size_t& next_peer);

// Concatenate per-rank populations into one set sorted by particle id,
// forces/potentials/keys preserved — the gather() both drivers expose — and
// the energy diagnostics over the same populations (KE from velocities, PE
// from the per-particle potentials of the last force pass).
ParticleSet gather_sorted(std::span<const ParticleSet* const> sets);
double total_kinetic_energy(std::span<const ParticleSet* const> sets);
double total_potential_energy(std::span<const ParticleSet* const> sets);

// Fold driver-level and per-rank stage times into the report's max/sum
// aggregate views, in canonical Table II stage order.
void fold_stage_times(StepReport& report, const TimeBreakdown& driver_times,
                      std::span<const TimeBreakdown> rank_times);

// Render a StepReport as the per-stage timing table (Table II layout), plus
// the pipeline/overlap lines when the report carries a lane model.
void print_step_report(const StepReport& report, std::ostream& os);

// The physics and derived rows of a final report: step.* counts and gauges,
// gravity.* interaction counts, kernel.* batch statistics, stage.* times and
// the schedule.* model, plus zero wire.{let,part,dom}.* rows so those always
// exist. Every driver merges the result into report.metrics.
metrics::Snapshot build_step_metrics(const StepReport& report);

// Run-level metadata for the --bench JSON header, so trajectory tooling can
// tell configurations apart without parsing command lines.
struct RunInfo {
  int ranks = 0;
  std::size_t num_particles = 0;
  double theta = 0.0;
  std::string transport = "inproc";  // "inproc" | "socket" | "serve"
  std::string topology = "none";     // "none" | "star" | "mesh"
  std::string balance = "count";     // "count" | "cost"
  std::string kernel = "simd";       // "scalar" | "simd"
  bool let_cache = false;            // incremental LET exchange on?
  int wire_version = wire::kVersion;
};

// Emit reports as a JSON object {"schema": 3, "config": {...run metadata...},
// "steps": [...]} (the --bench trajectory format): per-stage max/sum seconds,
// interaction counts, Gflop/s, the schedule model, and the step's metrics
// block, which carries all wire, traffic and LET-size accounting.
void write_step_report_json(const RunInfo& info, std::span<const StepReport> reports,
                            std::ostream& os);

}  // namespace bonsai::domain
