// 3-D Peano-Hilbert space-filling-curve keys (21 levels, 63-bit keys).
//
// The domain decomposition of the paper (§III-B1, Fig. 2) orders particles
// along a Peano-Hilbert curve and cuts the curve into per-process pieces; the
// curve's locality keeps each piece geometrically compact and guarantees that
// sub-domain boundaries are branches of a hypothetical global octree.
//
// The curve is Skilling's ("Programming the Hilbert curve", AIP Conf. Proc.
// 707, 2004, n = 3 dimensions), evaluated as the finite-state machine his
// per-level rules define: a table lookup maps a level's octant to its 3-bit
// key digit and the curve's orientation below it (the encoder looks up two
// levels at a time). The keys are bit-identical to his transpose algorithm
// (tests/test_sfc.cpp keeps it as the reference).
#pragma once

#include <cstdint>

#include "sfc/morton.hpp"

namespace bonsai::sfc {

// Encode integer coordinates (each < 2^21) into a 63-bit Hilbert key.
// The top 3L bits of the key identify the level-L cell of the octree in
// curve order; keys of a cell's interior form one contiguous range.
std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z);

// Inverse of hilbert_encode.
Coords hilbert_decode(std::uint64_t key);

}  // namespace bonsai::sfc
