// Workload initial conditions, generated by the benchmark itself so the
// program under test receives only finished inputs (and a change to the
// program's own generators cannot change what the benchmark measures).
//
// * make_plummer: equal-mass Plummer sphere (Aarseth, Hénon & Wielen 1974
//   sampling), G = 1, total mass 1, scale radius 1, truncated at 10 scale
//   radii.
// * make_galaxy: an analytic Milky Way-like model — exponential disk with a
//   sech^2 vertical profile, Hernquist bulge and Hernquist halo — sampled by
//   rejection against radial truncations, with a rotating disk on circular
//   orbits (plus a small dispersion) and isotropic bulge/halo velocities.
//   The paper's benchmark model has the same three components (§IV).
//
// Every sampler is a pure function of the seed: the same seed gives the same
// bytes. Particle ids are 0..n-1; galaxy ids run disk, bulge, halo.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "tree/particle.hpp"

namespace bench {

// xoshiro256++ seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix(seed);
  }

  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }

  // Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  // Uniform in (0, 1): safe under log().
  double open_uniform() {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return u;
  }

  double gaussian() {
    const double r = std::sqrt(-2.0 * std::log(open_uniform()));
    return r * std::cos(2.0 * std::numbers::pi * uniform());
  }

  bonsai::Vec3d unit_sphere() {
    const double z = 2.0 * uniform() - 1.0;
    const double phi = 2.0 * std::numbers::pi * uniform();
    const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
    return {r * std::cos(phi), r * std::sin(phi), z};
  }

 private:
  static std::uint64_t splitmix(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

  std::uint64_t s_[4]{};
};

inline bonsai::ParticleSet make_plummer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  bonsai::ParticleSet parts;
  parts.reserve(n);
  const double m = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r;
    do {
      r = 1.0 / std::sqrt(std::pow(rng.open_uniform(), -2.0 / 3.0) - 1.0);
    } while (r > 10.0);
    // Speed fraction q = v/v_esc from f(q) ~ q^2 (1-q^2)^{7/2} (max ~0.092).
    double q, g;
    do {
      q = rng.uniform();
      g = 0.1 * rng.uniform();
    } while (g > q * q * std::pow(1.0 - q * q, 3.5));
    const double vesc = std::sqrt(2.0) / std::pow(r * r + 1.0, 0.25);
    parts.add({rng.unit_sphere() * r, rng.unit_sphere() * (q * vesc), m, i});
  }
  return parts;
}

// Milky Way-like model parameters (G = 1, total mass 1).
struct GalaxyModel {
  double disk_mass = 0.25;   // mass fractions; halo = 1 - disk - bulge
  double bulge_mass = 0.10;
  double disk_scale = 1.0;   // exponential scale length R_d
  double disk_height = 0.1;  // sech^2 scale height z_0
  double disk_rmax = 10.0;   // truncation, in R_d
  double disk_sigma = 0.1;   // in-plane dispersion, fraction of v_circ
  double bulge_scale = 0.2;  // Hernquist a_b
  double bulge_rmax = 10.0;  // truncation, in a_b
  double halo_scale = 3.0;   // Hernquist a_h
  double halo_rmax = 10.0;   // truncation, in a_h

  double halo_mass() const { return 1.0 - disk_mass - bulge_mass; }
};

// Mass of a truncated Hernquist component (total `mass` inside r_max =
// rmax_scales * a) enclosed by radius r.
inline double hernquist_enclosed(double mass, double a, double rmax_scales, double r) {
  const double rmax = rmax_scales * a;
  const double rr = std::min(r, rmax);
  const double norm = (rmax * rmax) / ((rmax + a) * (rmax + a));
  return mass * (rr * rr) / ((rr + a) * (rr + a)) / norm;
}

// Spherical approximation of the model's enclosed mass (the disk's enclosed
// mass is its cylindrical M(<R), used at radius r).
inline double galaxy_enclosed(const GalaxyModel& g, double r) {
  const double x = std::min(r, g.disk_rmax * g.disk_scale) / g.disk_scale;
  const double xmax = g.disk_rmax;
  const double disk = g.disk_mass * (1.0 - (1.0 + x) * std::exp(-x)) /
                      (1.0 - (1.0 + xmax) * std::exp(-xmax));
  return disk + hernquist_enclosed(g.bulge_mass, g.bulge_scale, g.bulge_rmax, r) +
         hernquist_enclosed(g.halo_mass(), g.halo_scale, g.halo_rmax, r);
}

// Particles per component for `n` equal-mass particles: disk and bulge by
// their mass fractions (rounded), the halo takes the rest.
struct GalaxyCounts {
  std::size_t disk = 0, bulge = 0, halo = 0;
};

inline GalaxyCounts galaxy_counts(const GalaxyModel& g, std::size_t n) {
  GalaxyCounts c;
  c.disk = static_cast<std::size_t>(std::llround(g.disk_mass * static_cast<double>(n)));
  c.bulge = static_cast<std::size_t>(std::llround(g.bulge_mass * static_cast<double>(n)));
  c.disk = std::min(c.disk, n);
  c.bulge = std::min(c.bulge, n - c.disk);
  c.halo = n - c.disk - c.bulge;
  return c;
}

inline bonsai::ParticleSet make_galaxy(std::size_t n, std::uint64_t seed,
                                       const GalaxyModel& g = {}) {
  using bonsai::Vec3d;
  Rng rng(seed);
  bonsai::ParticleSet parts;
  parts.reserve(n);
  const double m = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  const GalaxyCounts counts = galaxy_counts(g, n);
  std::uint64_t id = 0;

  const auto vcirc = [&g](double r) {
    return r > 0.0 ? std::sqrt(galaxy_enclosed(g, r) / r) : 0.0;
  };

  // Disk: p(R) ~ R exp(-R/R_d) (Gamma(2)), p(z) ~ sech^2(z/z_0), both
  // rejected past their truncation radius.
  for (std::size_t i = 0; i < counts.disk; ++i) {
    double R;
    do {
      R = -g.disk_scale * std::log(rng.open_uniform() * rng.open_uniform());
    } while (R > g.disk_rmax * g.disk_scale);
    double z;
    do {
      z = g.disk_height * std::atanh(2.0 * rng.open_uniform() - 1.0);
    } while (std::abs(z) > 10.0 * g.disk_height);
    const double phi = 2.0 * std::numbers::pi * rng.uniform();
    const double c = std::cos(phi), s = std::sin(phi);
    const double vc = vcirc(std::sqrt(R * R + z * z));
    const double sigma = g.disk_sigma * vc;
    const double vr = sigma * rng.gaussian();
    const double vt = vc + sigma * rng.gaussian();
    const double vz = 0.5 * sigma * rng.gaussian();
    parts.add({{R * c, R * s, z}, {vr * c - vt * s, vr * s + vt * c, vz}, m, id++});
  }

  // Hernquist spheroids: inverse CDF r = a sqrt(u) / (1 - sqrt(u)), rejected
  // past the truncation; isotropic Gaussian velocities with
  // sigma_1D = v_circ / sqrt(3), capped below the local escape speed.
  const auto spheroid = [&](std::size_t count, double a, double rmax_scales) {
    for (std::size_t i = 0; i < count; ++i) {
      double r;
      do {
        const double su = std::sqrt(rng.open_uniform());
        r = su < 1.0 ? a * su / (1.0 - su) : 2.0 * rmax_scales * a;
      } while (r > rmax_scales * a);
      const double sigma = vcirc(r) / std::sqrt(3.0);
      Vec3d v{sigma * rng.gaussian(), sigma * rng.gaussian(), sigma * rng.gaussian()};
      const double vmax = 0.95 * std::sqrt(2.0) * vcirc(r);
      const double speed = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
      if (speed > vmax && speed > 0.0) v = v * (vmax / speed);
      parts.add({rng.unit_sphere() * r, v, m, id++});
    }
  };
  spheroid(counts.bulge, g.bulge_scale, g.bulge_rmax);
  spheroid(counts.halo, g.halo_scale, g.halo_rmax);

  // Move to the centre-of-mass frame: zero net momentum and a centred model.
  double cx = 0, cy = 0, cz = 0, px = 0, py = 0, pz = 0, mt = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    cx += parts.mass[i] * parts.x[i];
    cy += parts.mass[i] * parts.y[i];
    cz += parts.mass[i] * parts.z[i];
    px += parts.mass[i] * parts.vx[i];
    py += parts.mass[i] * parts.vy[i];
    pz += parts.mass[i] * parts.vz[i];
    mt += parts.mass[i];
  }
  if (mt > 0.0) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      parts.x[i] -= cx / mt;
      parts.y[i] -= cy / mt;
      parts.z[i] -= cz / mt;
      parts.vx[i] -= px / mt;
      parts.vy[i] -= py / mt;
      parts.vz[i] -= pz / mt;
    }
  }
  return parts;
}

}  // namespace bench
