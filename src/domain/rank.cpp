#include "domain/rank.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

std::string physics_config_error(const SimConfig& cfg) {
  const auto reason = [](const char* field, const char* rule, double value) {
    std::ostringstream os;
    os << field << " must be " << rule << ", got " << value;
    return os.str();
  };
  if (cfg.nranks < 1 || cfg.nranks > 255)
    return reason("nranks", "in [1, 255] (the wire addresses ranks in one byte)", cfg.nranks);
  if (!std::isfinite(cfg.theta) || cfg.theta <= 0.0)
    return reason("theta", "finite and > 0", cfg.theta);
  if (!std::isfinite(cfg.eps) || cfg.eps < 0.0) return reason("eps", "finite and >= 0", cfg.eps);
  if (!std::isfinite(cfg.dt)) return reason("dt", "finite", cfg.dt);
  return {};
}

void check_physics_config(const SimConfig& cfg) {
  const std::string error = physics_config_error(cfg);
  BNS_CHECK(error.empty(), error);
}

void Rank::build(const sfc::KeySpace& space, const SimConfig& cfg, TimeBreakdown& times) {
  {
    trace::ScopedSpan span("rank.sort", id_, id_);
    ScopedTimer t(times, "Sorting SFC");
    device_.sort_particles(parts_, space);
  }
  {
    trace::ScopedSpan span("rank.build", id_, id_);
    ScopedTimer t(times, "Tree-construction");
    device_.build_tree(parts_, tree_, cfg.nleaf);
  }
  {
    trace::ScopedSpan span("rank.properties", id_, id_);
    ScopedTimer t(times, "Tree-properties");
    device_.compute_properties(parts_, tree_, cfg.theta);
    groups_ = make_groups(parts_, cfg.ncrit);
  }
}

InteractionStats Rank::gravity_local(const SimConfig& cfg, TimeBreakdown& times) {
  trace::ScopedSpan span("gravity.local", id_, id_);
  ScopedTimer t(times, "Gravity local");
  if (parts_.empty()) return {};
  return device_.compute_forces(tree_.view(parts_), parts_, groups_, cfg.traversal(),
                                /*self=*/true);
}

InteractionStats Rank::gravity_remote(const TreeView& let, const SimConfig& cfg,
                                      TimeBreakdown& times) {
  ScopedTimer t(times, "Gravity remote");
  if (parts_.empty() || let.empty()) return {};
  return device_.compute_forces(let, parts_, groups_, cfg.traversal(),
                                /*self=*/false);
}

void Rank::integrate(double dt, TimeBreakdown& times) {
  trace::ScopedSpan span("rank.integrate", id_, id_);
  ScopedTimer t(times, "Integration");
  ParticleSet& p = parts_;
  device_.parallel_for(p.size(), [&](std::size_t i) {
    p.vx[i] += p.ax[i] * dt;
    p.vy[i] += p.ay[i] * dt;
    p.vz[i] += p.az[i] * dt;
    p.x[i] += p.vx[i] * dt;
    p.y[i] += p.vy[i] * dt;
    p.z[i] += p.vz[i] * dt;
  });
}

void Rank::book_gravity_split(metrics::Snapshot& into) {
  const GravitySplit split = device_.take_gravity_split();
  into.counters["gravity.walk_s"] += split.walk_s;
  into.counters["gravity.drain_s"] += split.drain_s;
}

}  // namespace bonsai::domain
