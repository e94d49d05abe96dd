// Out-of-process ranks: the coordinator/worker drivers of --transport socket.
//
// The paper's ranks are separate MPI processes; this module reproduces that
// process boundary over the SocketTransport in two state models (--cluster):
//
// * hub (PR 3, kept for differential testing): the coordinator owns the
//   global particle state, the decomposition and the step loop, and ships
//   each rank's batch out and back every step —
//
//     coordinator -> worker   Config, then per step: StepBegin (key-space
//                             bounds, active set, domain boxes, batch)
//     worker <-> worker       LET frames, routed through the coordinator
//     worker -> coordinator   StepResult (particles + forces, timings, stats)
//
//   Per-step wire volume is O(N) no matter how few particles change owner.
//
// * spmd (the paper's actual structure, §III-B1): workers keep their
//   particle slice *resident across steps* and run the domain update among
//   themselves — per step, after a bare StepBegin trigger:
//
//     phase 1  Boundaries allgather: local bounds, population, cost weight
//              -> every worker derives the identical global KeySpace/stride
//     phase 2  KeySamples allgather -> identical Decomposition on all ranks
//     phase 3  Migration alltoallv: only owner-changing particles travel,
//              peer-to-peer through the router (the migration barrier: a
//              worker proceeds only after all n-1 inbound batches arrived)
//     phase 4  Boundaries allgather (post-migration active set + boxes)
//     then     LET exchange + gravity + integration, exactly as in-process
//     finally  StepResult: timings/stats/energies only — no particles
//
//   Steady-state traffic is O(samples + boundary crossers + LETs); the
//   coordinator is demoted to rendezvous, frame routing and aggregated step
//   reports. The coordinator cross-checks the Decomposition every worker
//   reports and fails fast on divergence, and any worker death closes the
//   star's sockets so every blocked recv() unblinds instead of hanging.
//
// Orthogonally, --topology picks the socket fabric (see transport.hpp):
// star routes every worker↔worker frame through the coordinator; mesh gives
// each worker pair its own TCP connection (rendezvous via the coordinator's
// PeerDirectory) so LET/Boundaries/KeySamples/Migration frames never touch
// the coordinator — its per-step routed-traffic matrix, booked as the
// report's transport.routed.* counters, must stay empty in a steady-state
// mesh run.
//
// Both modes compute the same physics as the in-process Simulation: the same
// decomposition arithmetic (shared via domain/decomposition.hpp helpers),
// the same Rank code, the same run_rank_step body, the same LET protocol —
// only where the state lives and which frames carry it differ.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "domain/simulation.hpp"
#include "domain/transport.hpp"

namespace bonsai::domain {

// Where the particle state lives between steps.
enum class ClusterMode {
  kHub,   // coordinator-owned state, O(N) per-step wire volume
  kSpmd,  // worker-resident state, distributed sampling, peer migration
};

struct ClusterConfig {
  SimConfig sim;
  ClusterMode mode = ClusterMode::kHub;
  // Where worker↔worker frames travel: through the coordinator (star) or on
  // direct pair sockets (mesh, the paper's point-to-point structure). The
  // coordinator link always carries the control frames either way.
  SocketTopology topology = SocketTopology::kStar;
  std::uint16_t port = 0;     // 0: pick an ephemeral port
  bool spawn_workers = true;  // fork/exec `program` once per rank; false:
                              // wait for externally launched workers
  std::string program;        // bonsai_sim binary path (argv[0]) for spawning
  std::size_t worker_threads = 0;  // device threads per worker (0: hw/nranks)
  // Test seam: invoked with the bound port after listen() and before the
  // accept wait, so in-process run_worker() threads can be pointed at an
  // ephemeral port without fixed-port flakiness.
  std::function<void(std::uint16_t)> on_listen;
};

// Coordinator-side driver with the same step interface as Simulation, so the
// CLI and the validation path are generic over where the ranks live.
class ClusterSimulation {
 public:
  explicit ClusterSimulation(const ClusterConfig& cfg);
  ~ClusterSimulation();

  void init(ParticleSet global);
  StepReport step();
  // Hub: concatenates the coordinator-resident sets. SPMD: a collect
  // round-trip pulls every worker's resident particles (with forces).
  ParticleSet gather() const;

  std::size_t num_particles() const;
  const SimConfig& config() const { return cfg_.sim; }
  ClusterMode mode() const { return cfg_.mode; }
  // Hub: the coordinator-computed partition. SPMD: the partition every
  // worker reported (and the coordinator verified identical) last step.
  const Decomposition& decomposition() const { return decomp_; }
  std::uint16_t port() const { return net_->port(); }

  // Hub: computed over the coordinator-resident sets. SPMD: the per-worker
  // partial sums aggregated from the last step's results.
  double kinetic_energy() const;
  double potential_energy() const;

 private:
  void redistribute(StepReport& report, TimeBreakdown& driver_times);
  void spawn_workers();
  void broadcast_shutdown() noexcept;
  StepReport step_hub();
  StepReport step_spmd();
  // Shared receive half of both step drivers: every worker's decoded,
  // deduplicated StepResult, indexed by rank, with the mode-independent
  // aggregates (LET and interaction statistics, the StepResult frames' wire
  // and traffic rows, and the workers' metrics, merged in rank order) already
  // folded into `report`. Trace frames interleaved with the results are
  // absorbed on the way: their spans are clock-shifted onto the
  // coordinator's clock (post_ns holds the per-rank StepBegin post times of
  // this step) and appended to `spans`.
  std::vector<wire::StepResult> recv_step_results(TrafficRecordingTransport& rec,
                                                  StepReport& report,
                                                  std::span<const std::int64_t> post_ns,
                                                  std::vector<trace::Span>& spans);

  ClusterConfig cfg_;
  std::unique_ptr<SocketTransport> net_;
  // The coordinator-local alltoallv between its per-rank sets (hub mode and
  // the SPMD bootstrap split); migration frames here never need the sockets
  // because the coordinator owns all sets at that point. The recorder feeds
  // the hub report's transport.post.* counters.
  std::unique_ptr<InProcTransport> migrate_net_;
  std::unique_ptr<TrafficRecordingTransport> migrate_rec_;
  std::vector<ParticleSet> sets_;
  Decomposition decomp_;
  sfc::KeySpace space_;
  AABB bounds_;
  int next_step_ = 0;
  std::vector<double> prev_gravity_seconds_;
  std::vector<std::size_t> prev_rank_size_;
  std::vector<long> children_;  // pids of spawned worker processes
  // SPMD bookkeeping: the bootstrap batches are shipped with the first
  // StepBegin; afterwards the coordinator holds no particles and serves
  // population/energy queries from the aggregated step results.
  bool bootstrap_pending_ = false;
  bool spmd_stepped_ = false;
  std::size_t spmd_particles_ = 0;
  double spmd_kinetic_ = 0.0;
  double spmd_potential_ = 0.0;
};

// Worker-process entry (bonsai_sim --transport socket --rank-id K
// --coordinator HOST:PORT [--topology mesh --listen-port P]): connect — in
// mesh topology also stand up the worker's own listener and the pair links —
// receive the config, serve StepBegin frames — hub, SPMD or collect, as each
// frame's mode requests — until Shutdown. Returns the process exit code.
int run_worker(const std::string& host, std::uint16_t port, int rank_id,
               std::size_t threads, SocketTopology topology = SocketTopology::kStar,
               std::uint16_t listen_port = 0);

}  // namespace bonsai::domain
