#include "tree/particle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

std::vector<std::uint32_t> key_id_order(std::span<const sfc::Key> keys,
                                        std::span<const std::uint64_t> ids) {
  BNS_CHECK(keys.size() == ids.size());
  BNS_CHECK(keys.size() <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t n = keys.size();
  std::vector<std::uint32_t> perm(n);
  if (n == 0) return perm;

  struct Item {
    sfc::Key key;
    std::uint32_t index;
  };
  std::vector<Item> items(n), spare(n);
  sfc::Key differ = 0;  // bits in which some key differs from the first
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {keys[i], static_cast<std::uint32_t>(i)};
    differ |= keys[i] ^ keys[0];
  }

  constexpr int kDigitBits = 11;
  constexpr sfc::Key kDigitMask = (sfc::Key{1} << kDigitBits) - 1;
  std::vector<std::uint32_t> count(std::size_t{1} << kDigitBits);
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    // A digit every key shares would leave the order as it is.
    if (((differ >> shift) & kDigitMask) == 0) continue;
    std::fill(count.begin(), count.end(), 0u);
    for (const Item& it : items) ++count[(it.key >> shift) & kDigitMask];
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) offset += std::exchange(c, offset);
    for (const Item& it : items) spare[count[(it.key >> shift) & kDigitMask]++] = it;
    items.swap(spare);
  }

  // Equal keys sit together in input order; order each run by id.
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    end = begin + 1;
    while (end < n && items[end].key == items[begin].key) ++end;
    if (end - begin > 1)
      std::stable_sort(items.begin() + static_cast<std::ptrdiff_t>(begin),
                       items.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](const Item& a, const Item& b) { return ids[a.index] < ids[b.index]; });
  }
  for (std::size_t i = 0; i < n; ++i) perm[i] = items[i].index;
  return perm;
}

std::vector<std::uint32_t> sort_by_current_keys(ParticleSet& parts) {
  std::vector<std::uint32_t> perm = key_id_order(parts.key, parts.id);
  parts.apply_permutation(perm);
  return perm;
}

std::vector<std::uint32_t> sort_by_keys(ParticleSet& parts, const sfc::KeySpace& space) {
  for (std::size_t i = 0; i < parts.size(); ++i) parts.key[i] = space.key(parts.pos(i));
  return sort_by_current_keys(parts);
}

}  // namespace bonsai
