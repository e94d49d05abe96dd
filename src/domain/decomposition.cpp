#include "domain/decomposition.hpp"

#include <algorithm>
#include <functional>

#include "domain/channel.hpp"
#include "domain/executor.hpp"
#include "domain/transport.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace bonsai::domain {

Decomposition Decomposition::uniform(int nranks) {
  BNS_CHECK(nranks >= 1);
  std::vector<sfc::Key> bounds;
  bounds.reserve(static_cast<std::size_t>(nranks) + 1);
  const sfc::Key span = sfc::kKeyEnd / static_cast<sfc::Key>(nranks);
  for (int r = 0; r < nranks; ++r) bounds.push_back(span * static_cast<sfc::Key>(r));
  bounds.push_back(sfc::kKeyEnd);
  return from_boundaries(std::move(bounds));
}

Decomposition Decomposition::from_boundaries(std::vector<sfc::Key> bounds) {
  BNS_CHECK(bounds.size() >= 2);
  BNS_CHECK(bounds.front() == 0 && bounds.back() == sfc::kKeyEnd);
  BNS_CHECK(std::is_sorted(bounds.begin(), bounds.end()),
                   "domain boundaries must be monotone");
  Decomposition d;
  d.bounds_ = std::move(bounds);
  return d;
}

Decomposition Decomposition::from_samples(std::vector<sfc::Key> samples, int nranks,
                                          int snap_level) {
  BNS_CHECK(nranks >= 1);
  BNS_CHECK(snap_level >= 0 && snap_level <= sfc::kMaxLevel);
  if (samples.empty() || nranks == 1) return uniform(nranks);

  std::sort(samples.begin(), samples.end());
  std::vector<sfc::Key> bounds;
  bounds.reserve(static_cast<std::size_t>(nranks) + 1);
  bounds.push_back(0);
  for (int r = 1; r < nranks; ++r) {
    const std::size_t idx = (static_cast<std::size_t>(r) * samples.size()) /
                            static_cast<std::size_t>(nranks);
    sfc::Key b = samples[idx];
    if (snap_level > 0) b = sfc::cell_first_key(b, snap_level);
    // Duplicate samples (or aggressive snapping) may produce non-monotone
    // cuts; clamping keeps the partition valid at the cost of empty ranks.
    b = std::max(b, bounds.back());
    bounds.push_back(b);
  }
  bounds.push_back(sfc::kKeyEnd);
  return from_boundaries(std::move(bounds));
}

Decomposition Decomposition::from_weighted_samples(std::vector<WeightedKey> samples,
                                                   int nranks, int snap_level) {
  BNS_CHECK(nranks >= 1);
  BNS_CHECK(snap_level >= 0 && snap_level <= sfc::kMaxLevel);
  double total = 0.0;
  for (const WeightedKey& s : samples) total += std::max(s.weight, 0.0);
  if (samples.empty() || nranks == 1 || !(total > 0.0)) {
    std::vector<sfc::Key> keys;
    keys.reserve(samples.size());
    for (const WeightedKey& s : samples) keys.push_back(s.key);
    return from_samples(std::move(keys), nranks, snap_level);
  }

  std::sort(samples.begin(), samples.end(),
            [](const WeightedKey& a, const WeightedKey& b) { return a.key < b.key; });
  std::vector<sfc::Key> bounds;
  bounds.reserve(static_cast<std::size_t>(nranks) + 1);
  bounds.push_back(0);
  double cum = 0.0;
  std::size_t i = 0;
  for (int r = 1; r < nranks; ++r) {
    // First sample whose cumulative weight reaches the r-th weight quantile
    // becomes the cut (the equal-count cut is the weight==1 special case).
    const double cut = total * static_cast<double>(r) / static_cast<double>(nranks);
    while (i + 1 < samples.size() && cum + std::max(samples[i].weight, 0.0) < cut)
      cum += std::max(samples[i++].weight, 0.0);
    sfc::Key b = samples[i].key;
    if (snap_level > 0) b = sfc::cell_first_key(b, snap_level);
    b = std::max(b, bounds.back());
    bounds.push_back(b);
  }
  bounds.push_back(sfc::kKeyEnd);
  return from_boundaries(std::move(bounds));
}

void Decomposition::check_invariants(int expected_ranks) const {
  BNS_CHECK(bounds_.size() >= 2);
  BNS_CHECK(expected_ranks < 0 || num_ranks() == expected_ranks,
            "partition has ", num_ranks(), " ranks, expected ", expected_ranks);
  BNS_CHECK(bounds_.front() == 0 && bounds_.back() == sfc::kKeyEnd,
            "partition must cover the whole key space");
  BNS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
            "domain boundaries must be monotone");
}

int Decomposition::rank_of(sfc::Key key) const {
  BNS_DCHECK(key < sfc::kKeyEnd);
  // Count interior boundaries <= key; bounds_ = {0, b_1, ..., b_{n-1}, end}.
  const auto first = bounds_.begin() + 1;
  const auto last = bounds_.end() - 1;
  return static_cast<int>(std::upper_bound(first, last, key) - first);
}

std::vector<sfc::Key> sample_keys(const ParticleSet& parts, const sfc::KeySpace& space,
                                  std::size_t stride) {
  BNS_CHECK(stride >= 1);
  std::vector<sfc::Key> samples;
  const std::size_t n = parts.size();
  if (n == 0) return samples;
  samples.reserve((n + stride - 1) / stride);
  for (std::size_t i = 0; i < n; i += stride) samples.push_back(space.key(parts.pos(i)));
  return samples;
}

std::size_t sample_stride(std::size_t total, int nranks, std::size_t samples_per_rank) {
  const std::size_t target = samples_per_rank * static_cast<std::size_t>(nranks);
  return std::max<std::size_t>(1, total / std::max<std::size_t>(1, target));
}

void apply_cost_floor(std::span<double> weights) {
  double max_w = 0.0;
  for (const double w : weights) max_w = std::max(max_w, w);
  for (double& w : weights) w = std::max(w, 1e-3 * max_w);
}

DomainUpdate update_domain(std::span<const ParticleSet* const> rank_parts, int nranks,
                           sfc::CurveType curve, std::size_t samples_per_rank,
                           int snap_level, std::span<const double> weights) {
  BNS_CHECK(static_cast<int>(rank_parts.size()) == nranks);
  BNS_CHECK(weights.empty() || weights.size() == rank_parts.size());

  DomainUpdate out;
  std::size_t total = 0;
  for (const ParticleSet* parts : rank_parts) {
    if (!parts->empty()) out.bounds.expand(parts->bounds());
    total += parts->size();
  }
  out.bounds = domain_bounds_or_default(out.bounds);
  out.space = sfc::KeySpace(out.bounds, curve);

  // One global stride for every rank: pooled samples stay uniformly weighted
  // per particle, so quantile cuts keep tracking the population even when
  // rank sizes have drifted apart.
  const std::size_t stride = sample_stride(total, nranks, samples_per_rank);

  std::vector<Decomposition::WeightedKey> samples;
  for (std::size_t r = 0; r < rank_parts.size(); ++r) {
    const auto s = sample_keys(*rank_parts[r], out.space, stride);
    const double w = weights.empty() ? 1.0 : weights[r];
    for (const sfc::Key k : s) samples.push_back({k, w});
  }
  out.decomp = Decomposition::from_weighted_samples(std::move(samples), nranks, snap_level);
  if constexpr (kDcheckEnabled) out.decomp.check_invariants(nranks);
  return out;
}

namespace {

// Pass 1 of one source rank: key every particle through `space`, find its
// owner, and gather the emigrants into one batch per destination, keys
// riding along. `gone` lists the emigrants' indices in ascending order.
struct Routing {
  std::vector<std::uint32_t> gone;
  std::vector<ParticleSet> batches;  // by destination; the own slot stays empty
};

Routing route(ParticleSet& parts, std::size_t self, const sfc::KeySpace& space,
              const Decomposition& decomp) {
  Routing out;
  out.batches.resize(static_cast<std::size_t>(decomp.num_ranks()));
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.key[i] = space.key(parts.pos(i));
    const auto d = static_cast<std::size_t>(decomp.rank_of(parts.key[i]));
    if (d == self) continue;
    out.gone.push_back(static_cast<std::uint32_t>(i));
    out.batches[d].add(parts.get(i));
    out.batches[d].key.back() = parts.key[i];
  }
  return out;
}

// Pass 2 of one destination rank: drop its emigrants and splice the
// arrivals around its stayers — arrivals from lower source ranks, then the
// stayers in order, then arrivals from higher ranks: the (source rank,
// source index) order of the alltoallv. Each array is compacted and moved in
// bulk, in place; keys ride along and forces are reset.
void splice(ParticleSet& mine, std::size_t self, std::span<const std::uint32_t> gone,
            std::span<const ParticleSet> arrived) {
  std::size_t before = 0, after = 0;
  for (std::size_t src = 0; src < arrived.size(); ++src)
    (src < self ? before : after) += arrived[src].size();
  const std::size_t stay = mine.size() - gone.size();
  const std::size_t total = before + stay + after;
  const auto column = [&](auto member) {
    auto& v = mine.*member;
    // Close the gaps the emigrants left, one run of stayers at a time.
    auto out = v.begin() + (gone.empty() ? static_cast<std::ptrdiff_t>(stay) : gone[0]);
    for (std::size_t k = 0; k < gone.size(); ++k) {
      const auto next = k + 1 < gone.size() ? v.begin() + gone[k + 1] : v.end();
      out = std::copy(v.begin() + gone[k] + 1, next, out);
    }
    if (v.capacity() < total) v.reserve(total);  // exactly: no growth slack
    v.resize(total);
    const auto stayers = v.begin() + static_cast<std::ptrdiff_t>(before);
    if (before > 0)
      std::copy_backward(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(stay),
                         stayers + static_cast<std::ptrdiff_t>(stay));
    auto at = v.begin();
    for (std::size_t src = 0; src < arrived.size(); ++src) {
      if (src == self) at = stayers + static_cast<std::ptrdiff_t>(stay);
      const auto& from = arrived[src].*member;
      at = std::copy(from.begin(), from.end(), at);
    }
    // A rank that gave most of its particles away (the bootstrap scatter, a
    // rebalance) releases the storage it no longer needs.
    if (v.capacity() > 2 * total) v.shrink_to_fit();
  };
  column(&ParticleSet::x);
  column(&ParticleSet::y);
  column(&ParticleSet::z);
  column(&ParticleSet::vx);
  column(&ParticleSet::vy);
  column(&ParticleSet::vz);
  column(&ParticleSet::mass);
  column(&ParticleSet::id);
  column(&ParticleSet::key);
  for (auto* forces : {&mine.ax, &mine.ay, &mine.az, &mine.pot}) {
    forces->assign(total, 0.0);
    if (forces->capacity() > 2 * total) forces->shrink_to_fit();
  }
}

}  // namespace

ExchangeStats exchange(std::vector<ParticleSet>& rank_parts, const sfc::KeySpace& space,
                       const Decomposition& decomp, Transport& transport,
                       metrics::Snapshot* into, Executor* lanes,
                       std::span<TimeBreakdown> rank_times) {
  const auto nranks = static_cast<std::size_t>(decomp.num_ranks());
  BNS_CHECK(rank_parts.size() == nranks);
  BNS_CHECK(lanes == nullptr || lanes->num_lanes() == nranks,
            "the exchange runs one lane per rank");
  BNS_CHECK(rank_times.empty() || rank_times.size() == nranks);

  // Both passes run per rank, on the rank lanes when given: every post of
  // pass 1 is done before pass 2 starts, so no receive can block.
  std::vector<Routing> routes(nranks);
  std::vector<metrics::Snapshot> booked(nranks);
  std::vector<double> seconds(nranks, 0.0);
  const auto for_each_rank = [&](const std::function<void(std::size_t)>& pass) {
    const auto timed = [&](std::size_t r) {
      WallTimer timer;
      pass(r);
      seconds[r] += timer.elapsed();
    };
    if (lanes != nullptr) {
      lanes->run_all(timed);
    } else {
      for (std::size_t r = 0; r < nranks; ++r) timed(r);
    }
  };

  // Send side: every source posts one encoded emigrant batch per remote rank
  // (possibly empty — destinations count on exactly nranks-1 arrivals).
  // Stayers never touch the wire.
  for_each_rank([&](std::size_t r) {
    routes[r] = route(rank_parts[r], r, space, decomp);
    for (std::size_t d = 0; d < nranks; ++d) {
      if (d == r) continue;
      WallTimer timer;
      std::vector<std::uint8_t> frame =
          wire::encode_particles(static_cast<int>(r), routes[r].batches[d], /*with_forces=*/false);
      wire::count_wire(booked[r], "part", 1, frame.size(), timer.elapsed(), 0.0);
      transport.post(static_cast<int>(r), static_cast<int>(d), std::move(frame));
    }
    routes[r].batches = {};
  });

  // Receive side: decode the nranks-1 expected batches (any arrival order —
  // they are spliced by source rank afterwards) around the stayers.
  for_each_rank([&](std::size_t d) {
    std::vector<ParticleSet> arrived(nranks);
    for (std::size_t k = 0; k + 1 < nranks; ++k) {
      std::optional<std::vector<std::uint8_t>> frame = transport.recv(static_cast<int>(d));
      BNS_CHECK(frame.has_value(), "particle endpoint closed before all expected batches");
      WallTimer timer;
      wire::ParticleBatch batch = wire::decode_particles(*frame);
      wire::count_wire(booked[d], "part", 0, 0, 0.0, timer.elapsed());
      BNS_CHECK(batch.src >= 0 && batch.src < static_cast<int>(nranks) &&
                    batch.src != static_cast<int>(d),
                "particle batch from an impossible source rank");
      BNS_CHECK(!batch.with_forces, "migration batches must travel force-free");
      arrived[static_cast<std::size_t>(batch.src)] = std::move(batch.parts);
    }
    splice(rank_parts[d], d, routes[d].gone, arrived);
  });

  ExchangeStats stats;
  for (std::size_t r = 0; r < nranks; ++r) {
    stats.total += rank_parts[r].size();
    stats.migrated += routes[r].gone.size();
    if (into != nullptr) metrics::merge(*into, booked[r]);
    if (rank_times.empty()) continue;
    const double encode_s = booked[r].counter("wire.part.encode_s");
    const double decode_s = booked[r].counter("wire.part.decode_s");
    rank_times[r].add("Exchange particles", std::max(0.0, seconds[r] - encode_s - decode_s));
    rank_times[r].add("Wire encode", encode_s);
    rank_times[r].add("Wire decode", decode_s);
  }
  return stats;
}

ExchangeStats exchange(std::vector<ParticleSet>& rank_parts, const sfc::KeySpace& space,
                       const Decomposition& decomp) {
  InProcTransport scratch(decomp.num_ranks());
  return exchange(rank_parts, space, decomp, scratch, nullptr);
}

ExchangeStats exchange_resident(ParticleSet& mine, int self, const sfc::KeySpace& space,
                                const Decomposition& decomp, MigrationExchange& mex,
                                int step) {
  const auto nranks = static_cast<std::size_t>(decomp.num_ranks());
  const auto r = static_cast<std::size_t>(self);
  BNS_CHECK(r < nranks);

  // Key, owner and emigrant batches, exactly as the centralized pass 1; one
  // batch per peer, empty batches included (peers count on exactly nranks-1
  // arrivals).
  Routing routing = route(mine, r, space, decomp);
  for (std::size_t d = 0; d < nranks; ++d) {
    if (d == r) continue;
    mex.post(self, static_cast<int>(d), routing.batches[d], step);
  }
  routing.batches = {};

  // Receive side: collect the nranks-1 inbound batches (any arrival order),
  // then splice them around the local stayers in source-rank order — the
  // ordering exchange() produces for this rank.
  std::vector<ParticleSet> arrived(nranks);
  std::vector<std::uint8_t> seen(nranks, 0);
  while (std::optional<wire::MigrationMsg> msg = mex.recv(self, step)) {
    BNS_CHECK(msg->src >= 0 && msg->src < static_cast<int>(nranks) &&
                         msg->src != self && !seen[static_cast<std::size_t>(msg->src)],
                     "migration batch from an impossible or duplicate source rank");
    seen[static_cast<std::size_t>(msg->src)] = 1;
    arrived[static_cast<std::size_t>(msg->src)] = std::move(msg->parts);
  }
  splice(mine, r, routing.gone, arrived);
  return {mine.size(), routing.gone.size()};
}

}  // namespace bonsai::domain
