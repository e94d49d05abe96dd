// Shared seed-frame and dispatch machinery for the wire fuzzing layer.
//
// One place defines (a) a minimized, deterministic encoded frame per
// FrameType, (b) decode_any() — the type-dispatched decoder the harnesses
// and the generic truncation/byte-flip test drive, and (c) the LetDelta
// scenario: an importer cache plus a delta frame that is valid against it,
// so the patch path (not just the "no cached base" rejection) is fuzzed.
//
// Users: tests/fuzz/fuzz_wire.cpp, tests/fuzz/fuzz_let_delta.cpp,
// tools/corpus_dump.cpp and tests/test_fuzz_corpus.cpp. Both the seed list
// and decode_any() walk wire::frame_table(), so a new frame type is seeded
// and dispatched as soon as it has a table row and a case in seed_frame().
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "domain/let.hpp"
#include "domain/wire.hpp"
#include "tree/octree.hpp"
#include "util/check.hpp"
#include "util/ic.hpp"

namespace bonsai::fuzz {

namespace wire = domain::wire;

struct SeedFrame {
  wire::FrameType type;
  std::string name;  // corpus file stem, e.g. "let_delta"
  std::vector<std::uint8_t> frame;
};

// An importer-side cache plus a delta frame valid against exactly that cache
// state (applying the delta advances the cache past it, so keep a copy).
struct LetDeltaScenario {
  wire::LetCacheEntry cache;
  std::vector<std::uint8_t> full_frame;   // the frame that seeded the cache
  std::vector<std::uint8_t> delta_frame;  // valid against `cache`
};

namespace detail {

// Small but structurally real LET: internal nodes, multipole leaves and
// particle leaves, from a Plummer cloud against a displaced remote box.
inline domain::LetTree make_seed_let(ParticleSet parts) {
  const sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.5);
  return domain::build_let(tree.view(parts), AABB{{4, 4, 4}, {6, 6, 6}});
}

inline ParticleSet make_seed_particles(std::size_t n, std::uint64_t seed) {
  ParticleSet parts = make_plummer(n, seed);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.ax[i] = 0.25 * static_cast<double>(i);
    parts.pot[i] = -1.0 / (1.0 + static_cast<double>(i));
    parts.key[i] = 31 * i;
  }
  return parts;
}

}  // namespace detail

// Deterministic drifting-cloud exchange: frame 0 is the full Let that seeds
// the pair's mirrored caches, frame 1 the first delta. The returned cache is
// the importer state the delta applies to.
inline LetDeltaScenario make_let_delta_scenario() {
  LetDeltaScenario sc;
  ParticleSet parts = make_plummer(192, 7);
  wire::LetCacheEntry exporter;
  constexpr double kChurn = 0.98;  // tolerate high churn: the scenario must delta
  for (int step = 0; step < 2; ++step) {
    const domain::LetTree let = detail::make_seed_let(parts);
    wire::LetEncodeResult res =
        wire::encode_let_cached({0, let, 0.0, 0}, exporter, kChurn, nullptr);
    if (step == 0) {
      BNS_CHECK(!res.is_delta, "first exchange must be a full frame");
      sc.full_frame = std::move(res.frame);
      wire::decode_let_cached(sc.full_frame, sc.cache);
    } else {
      BNS_CHECK(res.is_delta, "drifted exchange must produce a delta");
      sc.delta_frame = std::move(res.frame);
    }
    // Gentle deterministic drift so most nodes survive matching.
    for (std::size_t i = 0; i < parts.size(); ++i) {
      parts.x[i] += 1e-4 * std::sin(static_cast<double>(i));
      parts.y[i] += 1e-4 * std::cos(static_cast<double>(i) * 0.7);
    }
  }
  return sc;
}

// One minimized, deterministic frame of `type`. A frame-table row without a
// case here makes seed_frames() throw, which fails every corpus test.
inline std::vector<std::uint8_t> seed_frame(wire::FrameType type) {
  const ParticleSet parts = detail::make_seed_particles(3, 11);
  switch (type) {
    case wire::FrameType::kLet:
      return wire::encode_let({1, detail::make_seed_let(make_plummer(48, 7)), 1e-3, 0});
    case wire::FrameType::kParticles:
      return wire::encode_particles(2, parts, /*with_forces=*/true);
    case wire::FrameType::kHello: return wire::encode_hello(3, 40123);
    case wire::FrameType::kConfig: {
      domain::SimConfig cfg;
      cfg.nranks = 2;
      cfg.trace = true;
      cfg.let_cache = true;
      return wire::encode_config(cfg);
    }
    case wire::FrameType::kStepBegin: {
      wire::StepBegin sb;
      sb.step = 4;
      sb.mode = wire::StepMode::kSpmdBootstrap;
      sb.parts = parts;
      return wire::encode_step_begin(sb);
    }
    case wire::FrameType::kStepResult: {
      wire::StepResult sr;
      sr.rank = 1;
      sr.let_cells = 5;
      sr.let_particles = 9;
      sr.local_count = 3;
      sr.kinetic = 0.5;
      sr.potential = -1.25;
      sr.boundaries = {0, sfc::kKeyEnd / 2, sfc::kKeyEnd};
      sr.metrics.counters["transport.post.bytes{src=1,dst=0,type=Let}"] = 512.0;
      sr.metrics.histograms["let.size.bytes"] = {{64.0, 128.0}, {0, 1, 0}, 1, 128.0};
      return wire::encode_step_result(sr);
    }
    case wire::FrameType::kShutdown: return wire::encode_shutdown();
    case wire::FrameType::kBoundaries:
      return wire::encode_boundaries({0, 2, true, 64, AABB{{-1, -1, -1}, {1, 1, 1}}, 0.5});
    case wire::FrameType::kKeySamples: return wire::encode_key_samples({1, 3, {7, 11, 13}});
    case wire::FrameType::kMigration: return wire::encode_migration(0, 5, make_plummer(2, 3));
    case wire::FrameType::kPeerDirectory:
      return wire::encode_peer_directory(std::vector<wire::PeerEndpoint>{
          {"127.0.0.1", 4001}, {"127.0.0.1", 4002}});
    case wire::FrameType::kPeerHello: return wire::encode_peer_hello(1);
    case wire::FrameType::kTrace: {
      wire::TraceFrame tf;
      tf.src = 1;
      tf.step = 2;
      tf.recv_ns = 100;
      tf.send_ns = 250;
      tf.spans.push_back({"step.gravity", 110, 240, 1, 0, 2, -2, 64});
      return wire::encode_trace(tf);
    }
    case wire::FrameType::kJobSubmit: {
      wire::JobSpec spec;
      spec.name = "fuzz";
      spec.n = 32;
      spec.steps = 2;
      spec.ranks = 1;
      spec.priority = 1;
      return wire::encode_job_submit(spec);
    }
    case wire::FrameType::kJobStatus: {
      wire::JobStatusMsg st;
      st.job_id = 7;
      st.state = wire::JobState::kRunning;
      st.steps_done = 1;
      st.steps_total = 2;
      st.ranks = 1;
      st.n = 32;
      st.reason = "ok";
      return wire::encode_job_status(st);
    }
    case wire::FrameType::kJobResult: {
      wire::JobResultMsg res;
      res.job_id = 7;
      res.state = wire::JobState::kCompleted;
      res.steps_done = 2;
      res.kinetic = 0.25;
      res.potential = -0.5;
      res.parts = parts;
      return wire::encode_job_result(res);
    }
    case wire::FrameType::kJobCancel: return wire::encode_job_cancel(7);
    case wire::FrameType::kSnapshot: {
      wire::SnapshotMsg snap;
      snap.job_id = 7;
      snap.next_step = 3;
      snap.sets = {make_plummer(2, 5), make_plummer(3, 6)};
      return wire::encode_snapshot(snap);
    }
    case wire::FrameType::kMetricsQuery: return wire::encode_metrics_query();
    case wire::FrameType::kMetricsReport: {
      metrics::Snapshot snap;
      snap.counters["server.jobs.completed"] = 2.0;
      snap.gauges["server.pool.slots_free"] = 3.0;
      snap.histograms["step.seconds"] = {{0.1}, {1, 2}, 3, 0.9};
      return wire::encode_metrics_report(snap);
    }
    case wire::FrameType::kLetDelta: return make_let_delta_scenario().delta_frame;
    case wire::FrameType::kEnd: break;
  }
  throw std::logic_error(std::string("no seed frame for frame type ") +
                         wire::frame_type_name(type));
}

// The seed frame of every frame-table row — the checked-in fuzz corpus and
// the base set for the truncation/byte-flip sweeps. Corpus file stems are
// the snake-cased table names ("let_delta").
inline std::vector<SeedFrame> seed_frames() {
  std::vector<SeedFrame> out;
  for (const wire::FrameInfo& row : wire::frame_table()) {
    const std::string name = row.name;
    std::string snake;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      if (std::isupper(static_cast<unsigned char>(c)) && i > 0) snake.push_back('_');
      snake.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    out.push_back({row.type, std::move(snake), seed_frame(row.type)});
  }
  return out;
}

// Decode `frame` with the decoder its header type names in the frame table.
// `cache` backs the kLetDelta patch path (and the kLet cache-reset path when
// non-null); with no cache a LetDelta exercises the hard "no cached base"
// rejection. Throws WireError on any malformed input — anything else is a
// fuzz finding.
inline void decode_any(std::span<const std::uint8_t> frame,
                       wire::LetCacheEntry* cache = nullptr) {
  const wire::FrameType type = wire::frame_type(frame);
  if (type == wire::FrameType::kLetDelta ||
      (type == wire::FrameType::kLet && cache != nullptr)) {
    wire::LetCacheEntry fresh;
    wire::decode_let_cached(frame, cache != nullptr ? *cache : fresh);
    return;
  }
  for (const wire::FrameInfo& row : wire::frame_table()) {
    if (row.type == type) {
      row.reencode(frame);
      return;
    }
  }
  throw wire::WireError("wire decode: unknown frame type");
}

}  // namespace bonsai::fuzz
