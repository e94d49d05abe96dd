// In-memory span log for the traced run. The benchmark records one span per
// call it makes into a layer (name "layer.op", the rank it ran for, the
// replay iteration, start/end on the steady clock and the span that caused
// it), plus the work counts observed at that boundary. Spans stay in memory
// and are written out once, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(clock_ns()) * 1e-9; }

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0: root
  std::string name;
  int rank = -1;  // -1: driver-level call
  int iter = -1;  // replay iteration (-1: outside the replay)
  std::int64_t start_ns = 0, end_ns = 0;
  std::map<std::string, double> counts;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  std::int64_t next_id() { return ++last_id_; }

  void add(Span s) {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  void write_json(std::ostream& os) const;

 private:
  std::atomic<std::int64_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records a span from construction to destruction. A null log records
// nothing, so untraced runs pass nullptr and pay one branch per call.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, int rank = -1, int iter = -1, std::int64_t parent = 0)
      : log_(log) {
    if (!log_) return;
    span_.id = log_->next_id();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.rank = rank;
    span_.iter = iter;
    span_.start_ns = clock_ns();
  }
  ~Scope() {
    if (!log_) return;
    span_.end_ns = clock_ns();
    log_->add(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return span_.id; }
  void count(const std::string& key, double value) {
    if (log_) span_.counts[key] += value;
  }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace bench
