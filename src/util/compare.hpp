// Force-field comparison metrics shared by the validation CLI and the test
// suite, so the validator and the tests cannot silently diverge. Both sets
// must be index-aligned (same particle order, e.g. both sorted by id).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "tree/particle.hpp"
#include "util/stats.hpp"

namespace bonsai {

// Quantile q of |a_test - a_ref| / max(|a_ref|, floor) over all particles.
inline double acc_error_percentile(const ParticleSet& test, const ParticleSet& ref, double q) {
  std::vector<double> err;
  err.reserve(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    err.push_back(norm(test.acc(i) - ref.acc(i)) / std::max(norm(ref.acc(i)), 1e-300));
  return percentile(err, q);
}

inline double median_acc_error(const ParticleSet& test, const ParticleSet& ref) {
  return acc_error_percentile(test, ref, 0.5);
}

// Root-mean-square of the absolute acceleration difference.
inline double rms_acc_diff(const ParticleSet& a, const ParticleSet& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += norm2(a.acc(i) - b.acc(i));
  return a.empty() ? 0.0 : std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace bonsai
