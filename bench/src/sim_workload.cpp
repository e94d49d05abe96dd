// The two simulation workloads: a Plummer sphere on in-process async ranks
// and a Milky Way model on SPMD socket workers in mesh topology. Both are
// driven through their public drivers only (domain::Simulation,
// domain::ClusterSimulation, whose workers run domain::run_worker).
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "domain/cluster.hpp"
#include "domain/simulation.hpp"
#include "ic.hpp"
#include "replay.hpp"

namespace bench {

namespace {

using bonsai::ParticleSet;
namespace dom = bonsai::domain;

constexpr int kPrefixSteps = 3;  // timed steps before the accuracy snapshot

struct SimSpec {
  bool galaxy = false;
  bool cluster = false;
  std::size_t n = 0;
  dom::SimConfig cfg;
  std::size_t accuracy_targets = 2048;
  int replay_iterations = 2;
};

// One public driver behind a common face.
struct Driver {
  virtual ~Driver() = default;
  virtual void init(ParticleSet ic) = 0;
  virtual void step() = 0;
  virtual ParticleSet gather() = 0;
};

template <typename Sim>
struct DriverOf final : Driver {
  template <typename Config>
  explicit DriverOf(const Config& c) : sim(c) {}
  void init(ParticleSet ic) override { sim.init(std::move(ic)); }
  void step() override { sim.step(); }
  ParticleSet gather() override { return sim.gather(); }
  Sim sim;
};

std::unique_ptr<Driver> make_driver(const SimSpec& spec, const dom::SimConfig& cfg,
                                    const Options& opt) {
  if (!spec.cluster) return std::make_unique<DriverOf<dom::Simulation>>(cfg);
  dom::ClusterConfig cc;
  cc.sim = cfg;
  cc.mode = dom::ClusterMode::kSpmd;
  cc.topology = dom::SocketTopology::kMesh;
  cc.spawn_workers = true;
  cc.program = opt.program;
  return std::make_unique<DriverOf<dom::ClusterSimulation>>(cc);
}

ParticleSet make_ic(const SimSpec& spec, std::uint64_t seed) {
  return spec.galaxy ? make_galaxy(spec.n, seed) : make_plummer(spec.n, seed);
}

// Time `count` steps (or, with count == 0, steps until `seconds` of them have
// run); each step() is one attempted operation.
std::vector<double> timed_steps(Driver& sim, RunResult& res, int count, double seconds,
                                SpanLog* log) {
  std::vector<double> times;
  double busy = 0.0;
  while (count > 0 ? static_cast<int>(times.size()) < count : busy < seconds) {
    Scope span(log, "domain.step");
    const double t0 = now_s();
    ++res.attempted;
    try {
      sim.step();
    } catch (const std::exception& e) {
      ++res.failed;
      res.fail(std::string("step threw: ") + e.what());
    }
    times.push_back(now_s() - t0);
    busy += times.back();
  }
  return times;
}

void run_sim(const SimSpec& spec, const Options& opt, RunResult& res) {
  const int setups = opt.trace ? 1 : kSetups;

  // Set-up: IC generation, driver construction (worker spawn and rendezvous
  // for socket runs), init() and the warm-up step, several times over. The
  // last driver carries on into the timed steps.
  std::vector<double> setup_s;
  std::unique_ptr<Driver> sim;
  for (int k = 0; k < setups; ++k) {
    sim.reset();
    const double t0 = now_s();
    ParticleSet ic = make_ic(spec, opt.seed);
    sim = make_driver(spec, spec.cfg, opt);
    sim->init(std::move(ic));
    ++res.attempted;
    try {
      sim->step();
    } catch (const std::exception& e) {
      ++res.failed;
      res.fail(std::string("warm-up step threw: ") + e.what());
    }
    setup_s.push_back(now_s() - t0);
  }
  std::cerr << "bench: set-up " << median(setup_s) << " s\n";

  // The accuracy check and the replay start from the state after a fixed
  // number of timed steps, so they repeat exactly however many steps fit.
  std::vector<double> prefix = timed_steps(*sim, res, kPrefixSteps, 0.0, nullptr);
  const double t_gather = now_s();
  const ParticleSet snapshot = sim->gather();
  const double gather_s = now_s() - t_gather;

  std::vector<double> steps = prefix;
  double loop_s = 0.0;
  if (!opt.trace) {
    for (const double t : prefix) loop_s += t;
    const double t0 = now_s();
    const std::vector<double> more =
        timed_steps(*sim, res, 0, std::max(0.0, opt.seconds - loop_s), nullptr);
    loop_s += now_s() - t0;
    steps.insert(steps.end(), more.begin(), more.end());
  } else {
    // Tracing overhead: traced and untraced steps alternate, so slow drift
    // of the host lands on both sides alike.
    std::vector<double> traced, untraced;
    for (int k = 0; k < kPrefixSteps; ++k) {
      const double t = timed_steps(*sim, res, 1, 0.0, &res.spans)[0];
      traced.push_back(t);
      untraced.push_back(timed_steps(*sim, res, 1, 0.0, nullptr)[0]);
    }
    res.info["step_s_untraced"] = median(untraced);
    res.info["step_s_traced"] = median(traced);
  }
  sim.reset();  // socket workers are reaped here and count in the peak
  const double rss_mb = peak_rss_mb();
  std::cerr << "bench: " << steps.size() << " timed steps, median " << median(steps)
            << " s\n";

  // Forces-only pass over the snapshot with the same driver and rank count,
  // checked against direct summation.
  {
    dom::SimConfig fcfg = spec.cfg;
    fcfg.dt = 0.0;
    ParticleSet forces;
    try {
      std::unique_ptr<Driver> pass = make_driver(spec, fcfg, opt);
      pass->init(snapshot);
      pass->step();
      forces = pass->gather();
    } catch (const std::exception& e) {
      res.fail(std::string("forces-only pass threw: ") + e.what());
    }
    if (forces.size() == snapshot.size()) {
      apply_accuracy(res, force_errors(forces, spec.cfg.eps, opt.seed, spec.accuracy_targets),
                     spec.cfg.theta);
    } else {
      ++res.attempted;
      ++res.failed;
      res.fail("forces-only pass returned the wrong particle count");
    }
  }

  res.info["steps"] = static_cast<double>(steps.size());
  res.info["setups"] = static_cast<double>(setup_s.size());
  res.info["gather_s"] = gather_s;
  res.info["particles"] = static_cast<double>(spec.n);

  if (opt.trace) {
    ReplayOptions ro;
    ro.cfg = spec.cfg;
    ro.threads_per_rank = dom::threads_for(spec.cfg, std::thread::hardware_concurrency());
    ro.concurrent_lanes = true;
    ro.iterations = spec.replay_iterations;
    for (const auto& [k, v] : replay_layers(snapshot, ro, res.spans)) res.metrics[k] = v;
    serve_layer_probe(snapshot, opt, res);
    return;
  }

  const double step_med = median(steps);
  res.metrics["step_s"] = step_med;
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["peak_rss_mb"] = rss_mb;
  // On a simulation workload the unit of work a user waits for is a step.
  res.metrics["job_turnaround_s"] = step_med;
  res.metrics["jobs_per_s"] = static_cast<double>(steps.size()) / loop_s;
  res.metrics["success_ratio"] = res.success_ratio();
}

}  // namespace

void run_plummer_inproc(const Options& opt, RunResult& res) {
  SimSpec spec;
  spec.n = opt.tiny ? 4096 : 131072;
  spec.cfg.nranks = 4;
  spec.cfg.dt = 1e-3;
  spec.cfg.let_cache = false;
  spec.accuracy_targets = opt.tiny ? 512 : 2048;
  spec.replay_iterations = 2;
  run_sim(spec, opt, res);
}

void run_galaxy_mesh(const Options& opt, RunResult& res) {
  SimSpec spec;
  spec.galaxy = true;
  spec.cluster = true;
  spec.n = opt.tiny ? 4096 : 32768;
  spec.cfg.nranks = 4;
  spec.cfg.dt = 1e-3;
  spec.cfg.let_cache = true;
  spec.accuracy_targets = opt.tiny ? 512 : 2048;
  spec.replay_iterations = 3;
  run_sim(spec, opt, res);
}

}  // namespace bench
