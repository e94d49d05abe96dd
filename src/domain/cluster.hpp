// Out-of-process ranks: the coordinator/worker drivers of --transport socket.
//
// The paper's ranks are separate MPI processes; this module reproduces that
// process boundary over the SocketTransport the paper's way (§III-B1):
// workers keep their particle slice *resident across steps* and run the
// domain update among themselves — per step, after a bare StepBegin trigger
// (which carries each worker's bootstrap slice on the first step only):
//
//   phase 1  Boundaries allgather: local bounds, population, cost weight
//            -> every worker derives the identical global KeySpace/stride
//   phase 2  KeySamples allgather -> identical Decomposition on all ranks
//   phase 3  Migration alltoallv: only owner-changing particles travel,
//            peer-to-peer (the migration barrier: a worker proceeds only
//            after all n-1 inbound batches arrived)
//   phase 4  Boundaries allgather (post-migration active set + boxes)
//   then     LET exchange + gravity + integration, exactly as in-process
//   finally  StepResult: timings/stats/energies only — no particles
//
// Steady-state traffic is O(samples + boundary crossers + LETs); the
// coordinator is demoted to rendezvous, frame routing and aggregated step
// reports. It cross-checks the Decomposition every worker reports and fails
// fast on divergence, and any worker death closes the sockets so every
// blocked recv() unblocks instead of hanging.
//
// --topology picks the socket fabric (see transport.hpp): star routes every
// worker↔worker frame through the coordinator; mesh gives each worker pair
// its own TCP connection (rendezvous via the coordinator's PeerDirectory) so
// LET/Boundaries/KeySamples/Migration frames never touch the coordinator —
// its per-step routed-traffic matrix, booked as the report's
// transport.routed.* counters, must stay empty in a steady-state mesh run.
//
// The workers compute the same physics as the in-process Simulation: the
// same decomposition arithmetic (shared via domain/decomposition.hpp
// helpers), the same Rank code, the same run_rank_step body, the same LET
// protocol — only where the state lives and which frames carry it differ.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "domain/simulation.hpp"
#include "domain/transport.hpp"

namespace bonsai::domain {

// Deleted in the next benchmark change, once bench/ stops setting `mode`.
enum class ClusterMode { kSpmd };

struct ClusterConfig {
  SimConfig sim;
  ClusterMode mode = ClusterMode::kSpmd;
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
  // The id-sorted particles with forces: the bootstrap slices before the
  // first step, afterwards a collect round-trip to every worker.
  ParticleSet gather() const;

  // Totals over the bootstrap slices before the first step, afterwards the
  // per-worker partial sums aggregated from the last step's results.
  std::size_t num_particles() const { return num_particles_; }
  double kinetic_energy() const { return kinetic_; }
  double potential_energy() const { return potential_; }

  const SimConfig& config() const { return cfg_.sim; }
  // The bootstrap partition before the first step, afterwards the partition
  // every worker reported (and the coordinator verified identical).
  const Decomposition& decomposition() const { return decomp_; }
  std::uint16_t port() const { return net_->port(); }

 private:
  void spawn_workers();
  void broadcast_shutdown() noexcept;
  // Every worker's decoded, deduplicated StepResult, indexed by rank, with
  // the LET and interaction statistics, the StepResult frames' wire and
  // traffic rows and the workers' metrics (merged in rank order) already
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
  // The bootstrap slices init() cut, shipped with the first StepBegin;
  // afterwards the coordinator holds no particles.
  std::vector<ParticleSet> sets_;
  bool bootstrap_pending_ = false;
  Decomposition decomp_;
  int next_step_ = 0;
  std::vector<long> children_;  // pids of spawned worker processes
  std::size_t num_particles_ = 0;
  double kinetic_ = 0.0;
  double potential_ = 0.0;
};

// Worker-process entry (bonsai_sim --transport socket --rank-id K
// --coordinator HOST:PORT [--topology mesh --listen-port P]): connect — in
// mesh topology also stand up the worker's own listener and the pair links —
// receive the config, serve StepBegin frames — an SPMD step or a collect, as
// each frame's mode requests — until Shutdown. Returns the process exit code.
int run_worker(const std::string& host, std::uint16_t port, int rank_id,
               std::size_t threads, SocketTopology topology = SocketTopology::kStar,
               std::uint16_t listen_port = 0);

}  // namespace bonsai::domain
