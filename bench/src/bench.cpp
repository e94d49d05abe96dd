#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <thread>

#include "ic.hpp"
#include "tree/direct.hpp"

namespace bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // the largest reaped child
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double force_error_envelope(double theta) {
  return theta <= 0.3 ? 2e-5 : theta <= 0.5 ? 2e-4 : 2e-3;
}

std::vector<double> force_error_samples(const bonsai::ParticleSet& parts, double eps,
                                        std::uint64_t seed, std::size_t nsub) {
  const std::size_t n = parts.size();
  nsub = std::min(nsub, n);
  // Seeded partial Fisher-Yates: nsub distinct targets.
  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  Rng rng(seed ^ 0x5eed5eedULL);
  for (std::size_t i = 0; i < nsub; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next() % (n - i));
    std::swap(all[i], all[j]);
  }
  const std::vector<std::uint32_t> subset(all.begin(),
                                          all.begin() + static_cast<std::ptrdiff_t>(nsub));

  // Each thread owns a disjoint slice of the targets; sources are read-only.
  bonsai::ParticleSet direct = parts;
  const std::size_t nthreads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8);
  std::vector<std::thread> workers;
  const std::size_t chunk = (nsub + nthreads - 1) / nthreads;
  for (std::size_t t = 0; t < nthreads; ++t) {
    const std::size_t b = std::min(nsub, t * chunk), e = std::min(nsub, b + chunk);
    if (b == e) continue;
    workers.emplace_back([&direct, &subset, eps, b, e] {
      bonsai::direct_forces_subset(direct, eps,
                                   std::span<const std::uint32_t>(subset).subspan(b, e - b));
    });
  }
  for (auto& w : workers) w.join();

  std::vector<double> err;
  err.reserve(nsub);
  for (const std::uint32_t i : subset) {
    const double dx = parts.ax[i] - direct.ax[i], dy = parts.ay[i] - direct.ay[i],
                 dz = parts.az[i] - direct.az[i];
    const double ref = std::sqrt(direct.ax[i] * direct.ax[i] + direct.ay[i] * direct.ay[i] +
                                 direct.az[i] * direct.az[i]);
    err.push_back(std::sqrt(dx * dx + dy * dy + dz * dz) / std::max(ref, 1e-300));
  }
  return err;
}

ForceErrors summarize_errors(const std::vector<double>& errors) {
  return {quantile(errors, 0.5), quantile(errors, 0.99), errors.size()};
}

ForceErrors force_errors(const bonsai::ParticleSet& parts, double eps, std::uint64_t seed,
                         std::size_t nsub) {
  return summarize_errors(force_error_samples(parts, eps, seed, nsub));
}

void apply_accuracy(RunResult& res, const ForceErrors& fe, double theta) {
  res.metrics["force_err_p50"] = fe.p50;
  res.metrics["force_err_p99"] = fe.p99;
  res.info["force_err_samples"] = static_cast<double>(fe.samples);
  const double envelope = force_error_envelope(theta);
  res.info["force_err_envelope"] = envelope;
  ++res.attempted;
  if (!(fe.p50 <= envelope)) {
    ++res.failed;
    res.fail("force_err_p50 " + std::to_string(fe.p50) + " exceeds the envelope " +
             std::to_string(envelope));
  }
}

namespace {

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void SpanLog::write_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  const auto flags = os.flags();
  os << std::setprecision(17) << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i ? ",\n " : "\n ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"name\": ";
    write_string(os, s.name);
    os << ", \"rank\": " << s.rank << ", \"iter\": " << s.iter << ", \"start_ns\": "
       << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : s.counts) {
      os << (first ? "" : ", ");
      write_string(os, k);
      os << ": " << v;
      first = false;
    }
    os << "}}";
  }
  os << "\n]";
  os.flags(flags);
}

}  // namespace bench
