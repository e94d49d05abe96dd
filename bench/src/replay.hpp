// The traced replay: one pipeline step rebuilt from each layer's public
// functions on a workload's own state, with one span per call, and the
// isolated probes (kernel drain, thread-pool scaling, transports) the
// per-layer metrics are ratios against.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "domain/rank.hpp"
#include "spans.hpp"
#include "tree/particle.hpp"

namespace bench {

using LayerMetrics = std::map<std::string, double>;

struct ReplayOptions {
  bonsai::domain::SimConfig cfg;  // the workload's physics and rank count
  std::size_t threads_per_rank = 1;
  bool concurrent_lanes = true;   // async/SPMD ranks overlap; lockstep jobs do not
  int iterations = 2;             // measured, after one priming iteration
};

// Replay decomposition -> exchange -> keys/sort/build/properties -> LET
// build, full and delta encode, decode and patch -> local and remote
// gravity -> integration, `1 + iterations` times from `state` (the first
// iteration scatters the state and primes the LET caches and is not
// measured), then the kernel, thread-pool and transport probes. Every
// decoded LET is checked against its source; a mismatch throws.
LayerMetrics replay_layers(const bonsai::ParticleSet& state, const ReplayOptions& opt,
                           SpanLog& log);

}  // namespace bench
