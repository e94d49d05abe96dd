// Checks of the benchmark's initial conditions: determinism in the seed, the
// Milky Way model's component mass fractions and disk scale length, and a
// centre-of-mass frame (zero net momentum). Exit code 0 on success.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "../src/ic.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, double value = 0.0) {
  std::printf("%s %s (%.6g)\n", ok ? "PASS" : "FAIL", what, value);
  if (!ok) ++failures;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool identical(const bonsai::ParticleSet& a, const bonsai::ParticleSet& b) {
  return same_bytes(a.x, b.x) && same_bytes(a.y, b.y) && same_bytes(a.z, b.z) &&
         same_bytes(a.vx, b.vx) && same_bytes(a.vy, b.vy) && same_bytes(a.vz, b.vz) &&
         same_bytes(a.mass, b.mass) && same_bytes(a.id, b.id);
}

}  // namespace

int main() {
  const std::size_t n = 32768;
  const bench::GalaxyModel model;
  const bonsai::ParticleSet g1 = bench::make_galaxy(n, 7);
  const bonsai::ParticleSet g2 = bench::make_galaxy(n, 7);
  const bonsai::ParticleSet g3 = bench::make_galaxy(n, 8);
  check(g1.size() == n, "galaxy has n particles", static_cast<double>(g1.size()));
  check(identical(g1, g2), "same seed gives the same galaxy bytes");
  check(!identical(g1, g3), "another seed gives another galaxy");
  check(identical(bench::make_plummer(4096, 3), bench::make_plummer(4096, 3)),
        "same seed gives the same Plummer bytes");

  // Component mass fractions (ids run disk, bulge, halo).
  const bench::GalaxyCounts counts = bench::galaxy_counts(model, n);
  double disk = 0, bulge = 0, total = 0;
  for (std::size_t i = 0; i < g1.size(); ++i) {
    total += g1.mass[i];
    if (g1.id[i] < counts.disk) disk += g1.mass[i];
    else if (g1.id[i] < counts.disk + counts.bulge) bulge += g1.mass[i];
  }
  const double tol = 1.0 / static_cast<double>(n);
  check(std::abs(total - 1.0) < 1e-9, "total mass is 1", total);
  check(std::abs(disk / total - model.disk_mass) <= tol, "disk mass fraction", disk / total);
  check(std::abs(bulge / total - model.bulge_mass) <= tol, "bulge mass fraction",
        bulge / total);
  check(std::abs((total - disk - bulge) / total - model.halo_mass()) <= 2 * tol,
        "halo mass fraction", (total - disk - bulge) / total);

  // Disk scale length: for Sigma ~ exp(-R/R_d), <R> = 2 R_d (the truncation
  // at 10 R_d moves this by < 0.1%). The estimate's standard error at this
  // size is ~1%; allow 5%.
  double sum_r = 0.0;
  for (std::size_t i = 0; i < g1.size(); ++i)
    if (g1.id[i] < counts.disk) sum_r += std::hypot(g1.x[i], g1.y[i]);
  const double rd = sum_r / static_cast<double>(counts.disk) / 2.0;
  check(std::abs(rd / model.disk_scale - 1.0) < 0.05, "disk scale length within 5%", rd);

  // The disk is thin and rotates; the spheroids do not.
  double lz_disk = 0.0, abs_z = 0.0;
  for (std::size_t i = 0; i < g1.size(); ++i)
    if (g1.id[i] < counts.disk) {
      lz_disk += g1.x[i] * g1.vy[i] - g1.y[i] * g1.vx[i];
      abs_z += std::abs(g1.z[i]);
    }
  check(lz_disk > 0.0, "disk rotates (positive L_z)", lz_disk);
  check(abs_z / static_cast<double>(counts.disk) < 3.0 * model.disk_height,
        "disk is thin (mean |z| below 3 z0)", abs_z / static_cast<double>(counts.disk));

  // Net momentum and centre of mass.
  double px = 0, py = 0, pz = 0, cx = 0, cy = 0, cz = 0;
  for (std::size_t i = 0; i < g1.size(); ++i) {
    px += g1.mass[i] * g1.vx[i];
    py += g1.mass[i] * g1.vy[i];
    pz += g1.mass[i] * g1.vz[i];
    cx += g1.mass[i] * g1.x[i];
    cy += g1.mass[i] * g1.y[i];
    cz += g1.mass[i] * g1.z[i];
  }
  const double p = std::sqrt(px * px + py * py + pz * pz);
  const double c = std::sqrt(cx * cx + cy * cy + cz * cz);
  check(p < 1e-12, "net momentum ~0", p);
  check(c < 1e-12, "centre of mass at the origin", c);

  std::printf("%s\n", failures == 0 ? "bench_ic_test: PASS" : "bench_ic_test: FAIL");
  return failures == 0 ? 0 : 1;
}
