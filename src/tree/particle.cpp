#include "tree/particle.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

namespace bonsai {

std::string find_non_finite(const ParticleSet& s) {
  const std::pair<const char*, const std::vector<double>*> fields[] = {
      {"x", &s.x},   {"y", &s.y},   {"z", &s.z},      {"vx", &s.vx},
      {"vy", &s.vy}, {"vz", &s.vz}, {"mass", &s.mass},
  };
  for (std::size_t i = 0; i < s.size(); ++i)
    for (const auto& [name, values] : fields)
      if (!std::isfinite((*values)[i])) {
        std::ostringstream os;
        os << "particle " << i << " field " << name << " = " << (*values)[i];
        return os.str();
      }
  return "";
}

std::vector<std::uint32_t> sort_by_keys(ParticleSet& parts, const sfc::KeySpace& space) {
  const std::size_t n = parts.size();
  for (std::size_t i = 0; i < n; ++i) parts.key[i] = space.key(parts.pos(i));

  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return parts.key[a] < parts.key[b] || (parts.key[a] == parts.key[b] && parts.id[a] < parts.id[b]);
  });
  parts.apply_permutation(perm);
  return perm;
}

}  // namespace bonsai
