// Shared pieces of the benchmark driver: run options, the result record,
// the force-accuracy check and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "tree/particle.hpp"

namespace bench {

inline constexpr int kSetups = 3;  // set-ups per untraced run; setup_s is their median

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        // smoke-test sizes
  std::string workdir;      // scratch files (spool, per-job JSON)
  std::string program;      // this binary, exec'd as a socket worker
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;  // sample counts and other context
  std::vector<std::string> errors;
  SpanLog spans;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  double success_ratio() const {
    return attempted ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
                     : 0.0;
  }
};

// Each workload fills `res` (which holds a span log, so it is not movable).
void run_plummer_inproc(const Options& opt, RunResult& res);
void run_galaxy_mesh(const Options& opt, RunResult& res);
void run_serve_jobs(const Options& opt, RunResult& res);

// Traced runs of the simulation workloads: the serve layer's client calls on
// a strided slice of the workload's state (serve.* metrics into `res`).
void serve_layer_probe(const bonsai::ParticleSet& state, const Options& opt, RunResult& res);

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);  // linear interpolation

// Peak resident set of this process and of its largest reaped child, MiB.
double peak_rss_mb();

// The accuracy gate of --validate: the direct-sum envelope on the median
// relative force error for an opening angle.
double force_error_envelope(double theta);

struct ForceErrors {
  double p50 = 0.0, p99 = 0.0;
  std::size_t samples = 0;
};

// Relative |a - a_direct| / |a_direct| over a seeded subset of `nsub`
// targets of `parts` (which carries tree forces), with direct summation
// spread over the host's threads.
std::vector<double> force_error_samples(const bonsai::ParticleSet& parts, double eps,
                                        std::uint64_t seed, std::size_t nsub);
ForceErrors summarize_errors(const std::vector<double>& errors);
ForceErrors force_errors(const bonsai::ParticleSet& parts, double eps, std::uint64_t seed,
                         std::size_t nsub);

// Record the accuracy metrics and apply the gate: a breach fails the run
// and counts as one failed operation.
void apply_accuracy(RunResult& res, const ForceErrors& fe, double theta);

}  // namespace bench
