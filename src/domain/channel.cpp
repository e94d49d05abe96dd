#include "domain/channel.hpp"

#include <algorithm>

#include "domain/transport.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

namespace {

// Pow-2 LET frame-size buckets, 16 B .. 4 GiB: fixed bounds, so every rank's
// histogram merges with every other's.
const std::vector<double>& let_size_bounds() {
  static const std::vector<double> bounds = metrics::pow2_bounds(4, 32);
  return bounds;
}

}  // namespace

LetExchange::LetExchange(Transport& transport, const std::vector<std::uint8_t>& active,
                         LetChannelState* state)
    : transport_(transport), state_(state) {
  const std::size_t nranks = active.size();
  BNS_CHECK(state == nullptr ||
               state->nranks == static_cast<int>(nranks));
  const auto num_active = static_cast<std::size_t>(
      std::count_if(active.begin(), active.end(), [](std::uint8_t a) { return a != 0; }));
  remaining_.reserve(nranks);
  for (std::size_t r = 0; r < nranks; ++r)
    remaining_.push_back(active[r] && num_active > 0 ? num_active - 1 : 0);
  metrics_.resize(nranks);
}

std::size_t LetExchange::remaining(int dst) const {
  return remaining_[static_cast<std::size_t>(dst)];
}

std::size_t LetExchange::post(int src, int dst, const LetTree& let, double export_seconds) {
  BNS_CHECK(src != dst);
  trace::ScopedSpan span("wire.encode.let", src, src);
  span.set_peer(dst);
  WallTimer timer;
  std::vector<std::uint8_t> frame;
  metrics::Snapshot& m = metrics_[static_cast<std::size_t>(src)];
  if (state_ != nullptr && state_->enabled) {
    wire::LetEncodeResult res = wire::encode_let_cached(
        {src, let, export_seconds, /*wire_bytes=*/0}, state_->send_entry(src, dst),
        state_->churn_ratio, &state_->scratch[static_cast<std::size_t>(src)]);
    frame = std::move(res.frame);
    // Every let.delta row exists once a cached frame flows, zeros included.
    m.counters["let.delta.frames{kind=full}"] += res.is_delta ? 0.0 : 1.0;
    m.counters["let.delta.frames{kind=delta}"] += res.is_delta ? 1.0 : 0.0;
    m.counters["let.delta.bytes_saved"] +=
        res.is_delta ? static_cast<double>(res.full_bytes - frame.size()) : 0.0;
    m.counters["let.delta.cache_hits"] += 0.0;
    m.counters["let.delta.invalidations"] += 0.0;
  } else if (state_ != nullptr) {
    frame = wire::encode_let_scratch({src, let, export_seconds, /*wire_bytes=*/0},
                                     state_->scratch[static_cast<std::size_t>(src)]);
  } else {
    frame = wire::encode_let({src, let, export_seconds, /*wire_bytes=*/0});
  }
  const std::size_t bytes = frame.size();
  span.set_bytes(static_cast<std::int64_t>(bytes));
  wire::count_wire(m, "let", 1, bytes, timer.elapsed(), 0.0);
  transport_.post(src, dst, std::move(frame));
  return bytes;
}

std::optional<wire::LetMessage> LetExchange::recv(int dst) {
  std::size_t& remaining = remaining_[static_cast<std::size_t>(dst)];
  if (remaining == 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> frame;
  {
    trace::ScopedSpan wait("let.recv.wait", dst, dst);
    frame = transport_.recv(dst);
  }
  BNS_CHECK(frame.has_value(), "LET endpoint closed before all expected arrivals");
  trace::ScopedSpan span("wire.decode.let", dst, dst);
  span.set_bytes(static_cast<std::int64_t>(frame->size()));
  WallTimer timer;
  wire::LetMessage msg;
  metrics::Snapshot& m = metrics_[static_cast<std::size_t>(dst)];
  if (state_ != nullptr && state_->enabled) {
    const int src = wire::peek_let_src(*frame);
    BNS_CHECK(src >= 0 && src < num_ranks() && src != dst,
                     "LET frame from an invalid source rank");
    wire::LetCacheEntry& entry = state_->recv_entry(dst, src);
    const bool had_cache = entry.version != 0;
    const bool is_delta = wire::frame_type(*frame) == wire::FrameType::kLetDelta;
    msg = wire::decode_let_cached(*frame, entry);
    if (is_delta)
      m.counters["let.delta.cache_hits"] += 1;
    else if (had_cache)
      m.counters["let.delta.invalidations"] += 1;
  } else {
    msg = wire::decode_let(*frame);
  }
  span.set_peer(msg.src);
  wire::count_wire(m, "let", 0, 0, 0.0, timer.elapsed());
  metrics::observe(m, "let.size.bytes", let_size_bounds(),
                   static_cast<double>(msg.wire_bytes));
  --remaining;
  return msg;
}

void LetExchange::close(int dst) { transport_.close(dst); }

const metrics::Snapshot& LetExchange::metrics(int r) const {
  return metrics_[static_cast<std::size_t>(r)];
}

MigrationExchange::MigrationExchange(Transport& transport, int nranks)
    : transport_(transport) {
  BNS_CHECK(nranks >= 1);
  remaining_.assign(static_cast<std::size_t>(nranks),
                    static_cast<std::size_t>(nranks - 1));
  metrics_.resize(static_cast<std::size_t>(nranks));
}

std::size_t MigrationExchange::remaining(int dst) const {
  return remaining_[static_cast<std::size_t>(dst)];
}

std::size_t MigrationExchange::post(int src, int dst, const ParticleSet& parts, int step) {
  BNS_CHECK(src != dst);
  trace::ScopedSpan span("wire.encode.migration", src, src, step);
  span.set_peer(dst);
  WallTimer timer;
  std::vector<std::uint8_t> frame = wire::encode_migration(src, step, parts);
  const std::size_t bytes = frame.size();
  span.set_bytes(static_cast<std::int64_t>(bytes));
  wire::count_wire(metrics_[static_cast<std::size_t>(src)], "part", 1, bytes,
                   timer.elapsed(), 0.0);
  transport_.post(src, dst, std::move(frame));
  return bytes;
}

std::optional<wire::MigrationMsg> MigrationExchange::recv(int dst, int step) {
  std::size_t& remaining = remaining_[static_cast<std::size_t>(dst)];
  if (remaining == 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> frame;
  {
    trace::ScopedSpan wait("migration.recv.wait", dst, dst, step);
    frame = transport_.recv(dst);
  }
  BNS_CHECK(frame.has_value(),
                   "migration endpoint closed before all expected batches");
  trace::ScopedSpan span("wire.decode.migration", dst, dst, step);
  span.set_bytes(static_cast<std::int64_t>(frame->size()));
  WallTimer timer;
  wire::MigrationMsg msg = wire::decode_migration(*frame);
  span.set_peer(msg.src);
  wire::count_wire(metrics_[static_cast<std::size_t>(dst)], "part", 0, 0, 0.0,
                   timer.elapsed());
  BNS_CHECK(msg.step == step, "migration batch from a different step");
  --remaining;
  return msg;
}

const metrics::Snapshot& MigrationExchange::metrics(int r) const {
  return metrics_[static_cast<std::size_t>(r)];
}

}  // namespace bonsai::domain
