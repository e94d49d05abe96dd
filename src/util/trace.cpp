#include "util/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <random>
#include <string>

namespace bonsai::trace {

// Fixed-capacity ring owned by one recording thread but kept alive by the
// registry (shared_ptr) so spans survive the thread's exit until drained.
struct Tracer::ThreadBuffer {
  std::mutex mutex;
  std::vector<RawSpan> ring;
  std::size_t head = 0;        // next overwrite position once full
  std::uint64_t dropped = 0;   // overwrites since last drain

  void push(const RawSpan& s) {
    std::lock_guard lock(mutex);
    if (ring.size() < Tracer::kRingCapacity) {
      ring.push_back(s);
    } else {
      ring[head] = s;
      head = (head + 1) % ring.size();
      ++dropped;
    }
  }

  // Moves out the recorded spans in recording order and resets the ring.
  void drain_into(std::vector<Span>& out) {
    std::lock_guard lock(mutex);
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const RawSpan& r = ring[(head + i) % n];
      Span s;
      s.name = r.name;
      s.begin_ns = r.begin_ns;
      s.end_ns = r.end_ns;
      s.rank = r.rank;
      s.lane = r.lane;
      s.step = r.step;
      s.peer = r.peer;
      s.bytes = r.bytes;
      out.push_back(std::move(s));
    }
    ring.clear();
    head = 0;
  }
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::shared_ptr<Tracer::ThreadBuffer> Tracer::this_thread_buffer() {
  // One slot per (thread, Tracer) pair; the registry keeps the buffer alive
  // after the thread exits so late drains still see its spans.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    buffer->ring.reserve(256);
    std::lock_guard lock(registry_mutex_);
    buffers_.push_back(buffer);
  }
  return buffer;
}

void Tracer::emit(const RawSpan& s) { this_thread_buffer()->push(s); }

std::vector<Span> Tracer::drain_all() {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard lock(registry_mutex_);
    bufs = buffers_;
  }
  std::vector<Span> out;
  for (auto& b : bufs) b->drain_into(out);
  return out;
}

std::vector<Span> Tracer::drain_thread() {
  std::vector<Span> out;
  this_thread_buffer()->drain_into(out);
  return out;
}

std::uint64_t Tracer::dropped() {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard lock(registry_mutex_);
    bufs = buffers_;
  }
  std::uint64_t total = 0;
  for (auto& b : bufs) {
    std::lock_guard lock(b->mutex);
    total += b->dropped;
    b->dropped = 0;
  }
  return total;
}

std::int64_t estimate_clock_offset(const ClockSync& s) {
  // Classic NTP midpoint: the worker's (recv+send)/2 should coincide with the
  // coordinator's (post+arrive)/2 under symmetric delay; the difference is
  // the clock offset. Sum first to avoid losing the half-nanosecond.
  return ((s.coord_post_ns + s.coord_arrive_ns) -
          (s.worker_recv_ns + s.worker_send_ns)) /
         2;
}

std::uint64_t clock_domain() {
  static const std::uint64_t id = [] {
    std::string boot;
    std::ifstream in("/proc/sys/kernel/random/boot_id");
    if (!std::getline(in, boot) || boot.empty()) {
      std::random_device rd;
      boot = std::to_string(rd()) + ":" + std::to_string(rd()) + ":" +
             std::to_string(now_ns());
    }
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char c : boot) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h | 1;
  }();
  return id;
}

void shift_spans(std::vector<Span>& spans, std::int64_t offset_ns) {
  for (Span& s : spans) {
    s.begin_ns += offset_ns;
    s.end_ns += offset_ns;
  }
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Chrome timestamps are microseconds; keep nanosecond precision as fractions.
void write_us(std::ostream& os, std::int64_t ns) {
  std::int64_t us = ns / 1000;
  std::int64_t rem = ns % 1000;
  if (rem < 0) {
    us -= 1;
    rem += 1000;
  }
  os << us << '.';
  os << static_cast<char>('0' + rem / 100)
     << static_cast<char>('0' + (rem / 10) % 10)
     << static_cast<char>('0' + rem % 10);
}

int pid_of(std::int32_t rank) { return rank + 1; }
int tid_of(std::int32_t lane) { return lane < 0 ? 0 : lane; }

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::map<int, std::string>& process_names) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [rank, name] : process_names) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid_of(rank)
       << ",\"tid\":0,\"args\":{\"name\":";
    write_escaped(os, name);
    os << "}}";
  }
  for (const Span& s : spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    write_escaped(os, s.name);
    os << ",\"ph\":\"X\",\"ts\":";
    write_us(os, s.begin_ns);
    os << ",\"dur\":";
    write_us(os, std::max<std::int64_t>(0, s.end_ns - s.begin_ns));
    os << ",\"pid\":" << pid_of(s.rank) << ",\"tid\":" << tid_of(s.lane)
       << ",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const char* key, std::int64_t v) {
      if (!first_arg) os << ',';
      first_arg = false;
      os << '"' << key << "\":" << v;
    };
    if (s.step >= 0) arg("step", s.step);
    if (s.peer >= -1) arg("peer", s.peer);
    if (s.bytes >= 0) arg("bytes", s.bytes);
    os << "}}";
  }
  os << "]}\n";
}

}  // namespace bonsai::trace
