// Low-overhead span tracer producing Chrome trace-event / Perfetto output.
//
// Each instrumented thread appends fixed-size RawSpan records into its own
// ring buffer; a global registry keeps every thread's buffer reachable so a
// driver can drain them after the step. When tracing is disabled (the
// default) ScopedSpan reduces to one relaxed atomic load per scope, so the
// instrumentation can stay compiled in everywhere.
//
// Spans carry the ids the async pipeline is organised around: rank, lane
// (thread of execution inside a process), step, peer and byte count. The
// cluster layer serializes drained spans into a Trace wire frame and the
// coordinator merges all ranks into one trace file, shifting worker
// timestamps by an NTP-style clock-offset estimate (estimate_clock_offset).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace bonsai::trace {

// Owned form of a span: what drains, crosses the wire and gets merged.
// Unset argument fields are -1 (they are omitted from the trace JSON).
struct Span {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t rank = -1;  // -1 = coordinator / no rank
  std::int32_t lane = -1;
  std::int64_t step = -1;
  std::int64_t peer = -2;  // -2 = unset (-1 is a real id: the coordinator)
  std::int64_t bytes = -1;
};

// In-buffer form: the name must be a string literal (or otherwise outlive the
// drain), so recording a span never allocates.
struct RawSpan {
  const char* name = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t rank = -1;
  std::int32_t lane = -1;
  std::int64_t step = -1;
  std::int64_t peer = -2;
  std::int64_t bytes = -1;
};

// Process-wide tracer: an enabled flag, plus the registry of per-thread ring
// buffers. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Appends into the calling thread's ring buffer; when the ring is full the
  // oldest span is overwritten and the drop is counted.
  void emit(const RawSpan& s);

  // Removes and returns the recorded spans of every thread (including
  // threads that have since exited), in per-thread recording order.
  std::vector<Span> drain_all();

  // Removes and returns only the calling thread's recorded spans. Used by
  // cluster workers and the coordinator, whose spans are all emitted from
  // the driver thread, so concurrent in-process peers cannot steal them.
  std::vector<Span> drain_thread();

  // Spans overwritten since the last drain (all threads).
  std::uint64_t dropped();

  // Ring capacity per thread.
  static constexpr std::size_t kRingCapacity = 1 << 15;

 private:
  Tracer() = default;
  struct ThreadBuffer;
  std::shared_ptr<ThreadBuffer> this_thread_buffer();

  std::atomic<bool> enabled_{false};
  std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

// RAII span: samples now_ns() at construction and emits on destruction when
// tracing is enabled. `name` must be a string literal. Argument fields can be
// filled in any time before destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int32_t rank = -1,
                      std::int32_t lane = -1, std::int64_t step = -1)
      : armed_(Tracer::instance().enabled()) {
    if (!armed_) return;
    raw_.name = name;
    raw_.rank = rank;
    raw_.lane = lane;
    raw_.step = step;
    raw_.begin_ns = now_ns();
  }

  ~ScopedSpan() {
    if (!armed_) return;
    raw_.end_ns = now_ns();
    Tracer::instance().emit(raw_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_peer(std::int64_t peer) { raw_.peer = peer; }
  void set_bytes(std::int64_t bytes) { raw_.bytes = bytes; }
  void set_step(std::int64_t step) { raw_.step = step; }

 private:
  bool armed_;
  RawSpan raw_;
};

// One worker's clock handshake for a step: the coordinator's send/receive
// times and the worker's corresponding local receive/send times, all on each
// machine's own steady clock.
struct ClockSync {
  std::int64_t coord_post_ns = 0;    // coordinator: StepBegin posted
  std::int64_t coord_arrive_ns = 0;  // coordinator: Trace frame arrived
  std::int64_t worker_recv_ns = 0;   // worker: StepBegin decoded
  std::int64_t worker_send_ns = 0;   // worker: Trace frame encoded
};

// NTP-style offset estimate: add the result to a worker-local timestamp to
// express it on the coordinator's clock. Assumes symmetric network delay.
std::int64_t estimate_clock_offset(const ClockSync& s);

// Identifies the clock now_ns() reads in this process. Processes of one Linux
// boot share it (steady_clock is CLOCK_MONOTONIC), so equal ids mean an exact
// offset of 0 and no estimate is needed; the id then hashes the boot id.
// Where the boot cannot be identified the id is unique to the process, so
// the merge falls back to the estimate. Never 0.
std::uint64_t clock_domain();

// Shifts every span's begin/end by offset_ns (in place).
void shift_spans(std::vector<Span>& spans, std::int64_t offset_ns);

// Writes merged spans as Chrome trace-event JSON ({"traceEvents": [...]}),
// loadable in Perfetto or chrome://tracing. pid = rank + 1 (the coordinator's
// rank -1 becomes pid 0), tid = lane (-1 maps to the driver thread 0).
// process_names optionally labels pids via metadata events, keyed by rank.
void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::map<int, std::string>& process_names = {});

}  // namespace bonsai::trace
