#include "sfc/hilbert.hpp"

#include <array>
#include <cstddef>
#include <utility>

namespace bonsai::sfc {
namespace {

// Skilling's transform, read top level first, is a finite-state machine. At
// each level his rules do two things with the level's octant bits w (the
// coordinate bits after the transforms of the levels above):
//  * they reorient every level below: for each axis i in order, a set w_i
//    inverts axis 0 and a clear w_i swaps axes 0 and i, so a lower level sees
//    its octant through the composed signed axis permutation;
//  * the Gray code g of w (g0 = w0, g1 = w0^w1, g2 = w0^w1^w2) is the
//    level's digit, complemented when the Gray-coded X2 bits g2 of the levels
//    above have odd parity.
// A state is one of the 48 signed axis permutations together with that
// parity: 96 states, each mapping a 3-bit octant to a 3-bit digit and the
// next state. The tables are derived from the rules above at compile time.
constexpr std::size_t kFlips = 8, kStates = 6 * kFlips * 2;

struct Orientation {
  std::array<std::size_t, 3> axis{0, 1, 2};  // bit j of w is octant bit axis[j] ...
  std::array<unsigned, 3> flip{};            // ... xor flip[j]
  unsigned parity = 0;                       // of the Gray-coded X2 bits above
};

// Octant and digit bit j is bit (2 - j) of the 3-bit number: x (axis 0) is
// the most significant, as in morton_encode and in the key's level groups.
constexpr unsigned bit(std::size_t v, std::size_t j) {
  return static_cast<unsigned>(v >> (2 - j)) & 1u;
}

// State s = (permutation * kFlips + flips) * 2 + parity, where the
// permutation is axis[0] * 2 + (whether axis[1] skips axis[0] + 1).
constexpr std::size_t state_index(const Orientation& o) {
  const std::size_t perm = o.axis[0] * 2 + (o.axis[1] == (o.axis[0] + 1) % 3 ? 0 : 1);
  const std::size_t flips = o.flip[0] << 2 | o.flip[1] << 1 | o.flip[2];
  return (perm * kFlips + flips) * 2 + o.parity;
}

constexpr Orientation state_at(std::size_t s) {
  Orientation o;
  o.parity = static_cast<unsigned>(s & 1);
  const std::size_t flips = (s >> 1) % kFlips, perm = (s >> 1) / kFlips;
  for (std::size_t j = 0; j < 3; ++j) o.flip[j] = bit(flips, j);
  o.axis[0] = perm / 2;
  o.axis[1] = (o.axis[0] + 1 + perm % 2) % 3;
  o.axis[2] = 3 - o.axis[0] - o.axis[1];
  return o;
}

// An entry is the next state's row (state * width) plus a value below the
// width, so the next row is the entry with the value bits masked off. `encode`
// maps row + octant to the level's digit and `decode` row + digit to the
// octant. `encode2` composes two levels, row + 6 octant bits to 6 digit bits:
// the key's 21 levels take 10 of its lookups and one of `encode`, which
// halves the chain of dependent loads a key costs.
struct Machine {
  std::array<std::uint16_t, kStates * 8> encode{};
  std::array<std::uint16_t, kStates * 8> decode{};
  std::array<std::uint16_t, kStates * 64> encode2{};
};

constexpr Machine build_machine() {
  Machine m;
  for (std::size_t s = 0; s < kStates; ++s) {
    const Orientation o = state_at(s);
    for (std::size_t octant = 0; octant < 8; ++octant) {
      std::array<unsigned, 3> w{};
      for (std::size_t j = 0; j < 3; ++j) w[j] = bit(octant, o.axis[j]) ^ o.flip[j];
      const unsigned g0 = w[0], g1 = g0 ^ w[1], g2 = g1 ^ w[2];
      const std::size_t digit = (g0 << 2 | g1 << 1 | g2) ^ (o.parity ? 7u : 0u);

      Orientation next = o;
      next.parity ^= g2;
      for (std::size_t i = 0; i < 3; ++i) {
        if (w[i]) {
          next.flip[0] ^= 1u;
        } else {
          std::swap(next.axis[0], next.axis[i]);
          std::swap(next.flip[0], next.flip[i]);
        }
      }
      const std::size_t row = state_index(next) * 8;
      m.encode[s * 8 + octant] = static_cast<std::uint16_t>(row | digit);
      m.decode[s * 8 + digit] = static_cast<std::uint16_t>(row | octant);
    }
  }
  for (std::size_t s = 0; s < kStates; ++s)
    for (std::size_t octants = 0; octants < 64; ++octants) {
      const std::size_t hi = m.encode[s * 8 + (octants >> 3)];
      const std::size_t lo = m.encode[(hi & ~std::size_t{7}) + (octants & 7)];
      const std::size_t row = (lo & ~std::size_t{7}) * 8;
      m.encode2[s * 64 + octants] = static_cast<std::uint16_t>(row | (hi & 7) << 3 | (lo & 7));
    }
  return m;
}

constexpr Machine kMachine = build_machine();

constexpr bool states_round_trip() {
  for (std::size_t s = 0; s < kStates; ++s)
    if (state_index(state_at(s)) != s) return false;
  return true;
}
static_assert(states_round_trip());
// The encoders start in row 0: Skilling's start, no reorientation and even
// parity.
static_assert(state_index(Orientation{}) == 0);

}  // namespace

static_assert(kMaxLevel % 2 == 1, "hilbert_encode pairs every level but the last");

std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  const std::uint64_t octants = morton_encode(x, y, z);  // level groups, top first
  std::uint64_t key = 0;
  unsigned row = 0;
  for (int level = kMaxLevel - 2; level >= 1; level -= 2) {  // levels 20..1
    const unsigned e = kMachine.encode2[row + ((octants >> (3 * level)) & 63u)];
    key = key << 6 | (e & 63u);
    row = e & ~63u;
  }
  const unsigned e = kMachine.encode[row / 8 + (octants & 7u)];  // level 0
  return key << 3 | (e & 7u);
}

Coords hilbert_decode(std::uint64_t key) {
  std::uint64_t octants = 0;
  unsigned row = 0;
  for (int level = kMaxLevel - 1; level >= 0; --level) {
    const unsigned e = kMachine.decode[row + ((key >> (3 * level)) & 7u)];
    octants = octants << 3 | (e & 7u);
    row = e & ~7u;
  }
  return morton_decode(octants);
}

}  // namespace bonsai::sfc
