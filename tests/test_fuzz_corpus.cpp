// Deterministic fuzz sweeps over the seed corpus: every FrameType gets the
// truncation and byte-flip treatment through the same decode_any() dispatch
// the libFuzzer harnesses use, and every stateless frame-table row must
// decode and re-encode its seed frame byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "fuzz/wire_corpus.hpp"

namespace bonsai {
namespace {

namespace wire = domain::wire;

const std::vector<fuzz::SeedFrame>& seeds() {
  static const std::vector<fuzz::SeedFrame> frames = fuzz::seed_frames();
  return frames;
}

const fuzz::LetDeltaScenario& scenario() {
  static const fuzz::LetDeltaScenario sc = fuzz::make_let_delta_scenario();
  return sc;
}

TEST(FuzzCorpus, SeedFramesCoverEveryFrameType) {
  std::set<std::uint16_t> seen;
  for (const fuzz::SeedFrame& seed : seeds()) {
    EXPECT_TRUE(seen.insert(static_cast<std::uint16_t>(seed.type)).second)
        << "duplicate seed for type " << wire::frame_type_name(seed.type);
    EXPECT_EQ(wire::frame_type(seed.frame), seed.type);
  }
  for (std::uint16_t t = 1; t <= static_cast<std::uint16_t>(wire::FrameType::kLetDelta); ++t)
    EXPECT_TRUE(seen.count(t)) << "no seed frame for FrameType value " << t;
}

TEST(FuzzCorpus, EveryStatelessSeedRoundTripsByteForByte) {
  std::size_t checked = 0;
  for (const wire::FrameInfo& row : wire::frame_table()) {
    if (row.reencode == nullptr) continue;  // LetDelta: stateful codec
    const auto seed = std::find_if(seeds().begin(), seeds().end(),
                                   [&](const fuzz::SeedFrame& s) { return s.type == row.type; });
    ASSERT_NE(seed, seeds().end()) << "no seed frame for " << row.name;
    EXPECT_EQ(row.reencode(seed->frame), seed->frame) << row.name;
    ++checked;
  }
  EXPECT_EQ(checked, wire::frame_table().size() - 1);
}

TEST(FuzzCorpus, EverySeedFrameDecodes) {
  for (const fuzz::SeedFrame& seed : seeds()) {
    wire::LetCacheEntry cache = scenario().cache;
    EXPECT_NO_THROW(fuzz::decode_any(seed.frame, &cache))
        << wire::frame_type_name(seed.type);
  }
}

TEST(FuzzCorpus, EveryTruncationIsRejected) {
  for (const fuzz::SeedFrame& seed : seeds()) {
    for (std::size_t len = 0; len < seed.frame.size(); ++len) {
      const std::span<const std::uint8_t> cut(seed.frame.data(), len);
      wire::LetCacheEntry cache = scenario().cache;
      EXPECT_THROW(fuzz::decode_any(cut, &cache), wire::WireError)
          << wire::frame_type_name(seed.type) << " accepted a frame cut to " << len
          << " bytes";
    }
  }
}

TEST(FuzzCorpus, ByteFlipsNeverEscapeAsAnythingButWireError) {
  for (const fuzz::SeedFrame& seed : seeds()) {
    std::vector<std::uint8_t> bad = seed.frame;
    for (std::size_t i = 0; i < bad.size(); ++i) {
      bad[i] ^= 0xA5;
      wire::LetCacheEntry cache = scenario().cache;
      try {
        fuzz::decode_any(bad, &cache);  // a still-valid mutant is fine
      } catch (const wire::WireError&) {
        // the expected rejection
      }
      // Anything else thrown propagates and fails the test.
      bad[i] ^= 0xA5;
    }
  }
}

TEST(FuzzCorpus, DeltaScenarioAppliesAgainstItsCache) {
  wire::LetCacheEntry cache = scenario().cache;
  const std::uint64_t base = cache.version;
  const wire::LetMessage msg = wire::decode_let_cached(scenario().delta_frame, cache);
  EXPECT_EQ(cache.version, base + 1);
  EXPECT_GT(msg.let.num_cells(), 0u);
}

TEST(FuzzCorpus, RejectedDeltaLeavesCacheVersionUntouched) {
  const fuzz::LetDeltaScenario& sc = scenario();
  std::vector<std::uint8_t> bad = sc.delta_frame;
  ASSERT_GT(bad.size(), wire::kHeaderBytes + 12);
  bad[wire::kHeaderBytes + 12] ^= 0xFF;  // corrupt the base-version field
  wire::LetCacheEntry cache = sc.cache;
  const std::uint64_t base = cache.version;
  EXPECT_THROW(wire::decode_let_cached(bad, cache), wire::WireError);
  EXPECT_EQ(cache.version, base);
}

}  // namespace
}  // namespace bonsai
