// Particle storage.
//
// ParticleSet is structure-of-arrays: the tree walk streams positions and
// masses contiguously (Per.16/Per.19 of the Core Guidelines: compact data,
// predictable access), and per-array access is what the GPU kernels the paper
// describes operate on. Particle is the array-of-structs view used for
// serialization (initial conditions exchange, domain migration, snapshots).
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "sfc/keys.hpp"
#include "util/aabb.hpp"
#include "util/check.hpp"
#include "util/vec3.hpp"

namespace bonsai {

// Plain-old-data particle used on the wire and in generators.
struct Particle {
  Vec3d pos;
  Vec3d vel;
  double mass = 0.0;
  std::uint64_t id = 0;
};

// SoA particle container with per-particle force/potential outputs and SFC
// keys. All arrays always have identical length.
class ParticleSet {
 public:
  ParticleSet() = default;
  explicit ParticleSet(std::size_t n) { resize(n); }

  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    z.resize(n);
    vx.resize(n);
    vy.resize(n);
    vz.resize(n);
    ax.resize(n);
    ay.resize(n);
    az.resize(n);
    pot.resize(n);
    mass.resize(n);
    id.resize(n);
    key.resize(n);
  }

  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
    vx.reserve(n);
    vy.reserve(n);
    vz.reserve(n);
    ax.reserve(n);
    ay.reserve(n);
    az.reserve(n);
    pot.reserve(n);
    mass.reserve(n);
    id.reserve(n);
    key.reserve(n);
  }

  void clear() { resize(0); }

  void add(const Particle& p) {
    x.push_back(p.pos.x);
    y.push_back(p.pos.y);
    z.push_back(p.pos.z);
    vx.push_back(p.vel.x);
    vy.push_back(p.vel.y);
    vz.push_back(p.vel.z);
    ax.push_back(0.0);
    ay.push_back(0.0);
    az.push_back(0.0);
    pot.push_back(0.0);
    mass.push_back(p.mass);
    id.push_back(p.id);
    key.push_back(0);
  }

  Vec3d pos(std::size_t i) const { return {x[i], y[i], z[i]}; }
  Vec3d vel(std::size_t i) const { return {vx[i], vy[i], vz[i]}; }
  Vec3d acc(std::size_t i) const { return {ax[i], ay[i], az[i]}; }

  void set_pos(std::size_t i, const Vec3d& p) {
    x[i] = p.x;
    y[i] = p.y;
    z[i] = p.z;
  }
  void set_vel(std::size_t i, const Vec3d& v) {
    vx[i] = v.x;
    vy[i] = v.y;
    vz[i] = v.z;
  }

  Particle get(std::size_t i) const { return {pos(i), vel(i), mass[i], id[i]}; }

  // Append every particle of `from`, each array in one copy: forces,
  // potentials and keys come along as they are.
  void append(const ParticleSet& from) {
    const auto cat = [](auto& to, const auto& v) { to.insert(to.end(), v.begin(), v.end()); };
    cat(x, from.x);
    cat(y, from.y);
    cat(z, from.z);
    cat(vx, from.vx);
    cat(vy, from.vy);
    cat(vz, from.vz);
    cat(ax, from.ax);
    cat(ay, from.ay);
    cat(az, from.az);
    cat(pot, from.pot);
    cat(mass, from.mass);
    cat(id, from.id);
    cat(key, from.key);
  }

  // Tight bounding box of all particle positions.
  AABB bounds() const {
    AABB box;
    for (std::size_t i = 0; i < size(); ++i) box.expand(pos(i));
    return box;
  }

  double total_mass() const { return std::accumulate(mass.begin(), mass.end(), 0.0); }

  // Reorder all arrays so that entry i comes from old index perm[i]. One
  // scratch array per element type is gathered into and swapped in, so the
  // set never holds more than one spare array of each.
  void apply_permutation(std::span<const std::uint32_t> perm) {
    BNS_CHECK(perm.size() == size());
    std::vector<double> f64(size());
    for (auto* v : {&x, &y, &z, &vx, &vy, &vz, &ax, &ay, &az, &pot, &mass}) permute(*v, perm, f64);
    std::vector<std::uint64_t> u64(size());
    for (auto* v : {&id, &key}) permute(*v, perm, u64);
  }

  void zero_forces() {
    std::fill(ax.begin(), ax.end(), 0.0);
    std::fill(ay.begin(), ay.end(), 0.0);
    std::fill(az.begin(), az.end(), 0.0);
    std::fill(pot.begin(), pot.end(), 0.0);
  }

  std::vector<double> x, y, z;
  std::vector<double> vx, vy, vz;
  std::vector<double> ax, ay, az, pot;
  std::vector<double> mass;
  std::vector<std::uint64_t> id;
  std::vector<sfc::Key> key;

 private:
  template <typename T>
  static void permute(std::vector<T>& v, std::span<const std::uint32_t> perm,
                      std::vector<T>& scratch) {
    for (std::size_t i = 0; i < perm.size(); ++i) scratch[i] = v[perm[i]];
    v.swap(scratch);
  }
};

// The first position, velocity or mass of `s` that is NaN or infinite, as
// "particle I field F = V", or "" when every input is finite. Forces,
// potentials and keys are outputs and are not inspected. Particles that
// come from outside the program (a submitted job's initial condition, a
// snapshot file) pass this before they reach the key space, whose
// float-to-grid conversion is undefined for a non-finite position.
std::string find_non_finite(const ParticleSet& s);

// The permutation (new index -> old index) that orders particles by
// (key, id): a stable LSD radix sort on the 64-bit keys, 11 bits a pass,
// skipping every pass whose digit all keys share, then each run of equal
// keys ordered by id. Particles equal in both keep their input order. This
// is the one particle sort; the paper's GPU sort is a radix sort too.
std::vector<std::uint32_t> key_id_order(std::span<const sfc::Key> keys,
                                        std::span<const std::uint64_t> ids);

// Sort the set by (key, id) on the keys it already holds. Returns the
// permutation applied (new index -> old index).
std::vector<std::uint32_t> sort_by_current_keys(ParticleSet& parts);

// Compute SFC keys for all particles and sort the set by (key, id). Returns
// the permutation applied. This is the "Sorting SFC" stage of Table II.
std::vector<std::uint32_t> sort_by_keys(ParticleSet& parts, const sfc::KeySpace& space);

}  // namespace bonsai
