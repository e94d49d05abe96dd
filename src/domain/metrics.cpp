#include "domain/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace bonsai::metrics {

void merge(Snapshot& into, const Snapshot& from) {
  for (const auto& [name, v] : from.counters) into.counters[name] += v;
  for (const auto& [name, v] : from.gauges) into.gauges[name] = v;
  for (const auto& [name, h] : from.histograms) {
    auto it = into.histograms.find(name);
    if (it == into.histograms.end()) {
      into.histograms.emplace(name, h);
      continue;
    }
    HistogramData& dst = it->second;
    if (dst.bounds != h.bounds)
      throw std::runtime_error("metrics: histogram bounds mismatch for " +
                               name);
    for (std::size_t i = 0; i < dst.counts.size(); ++i)
      dst.counts[i] += h.counts[i];
    dst.count += h.count;
    dst.sum += h.sum;
  }
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
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

// Shortest round-trip form via to_chars, so the output neither depends on nor
// disturbs the stream's precision and flags.
template <typename T>
void write_number(std::ostream& os, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) {
      os << "null";
      return;
    }
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, end - buf);
}

template <typename Map, typename WriteValue>
void write_map(std::ostream& os, const Map& map, WriteValue write_value) {
  os << '{';
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) os << ',';
    first = false;
    write_escaped(os, name);
    os << ':';
    write_value(v);
  }
  os << '}';
}

}  // namespace

void to_json(std::ostream& os, const Snapshot& snapshot) {
  auto number = [&os](auto v) { write_number(os, v); };
  os << "{\"counters\":";
  write_map(os, snapshot.counters, number);
  os << ",\"gauges\":";
  write_map(os, snapshot.gauges, number);
  os << ",\"histograms\":";
  write_map(os, snapshot.histograms, [&](const HistogramData& h) {
    os << "{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) os << ',';
      number(h.bounds[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) os << ',';
      number(h.counts[i]);
    }
    os << "],\"count\":";
    number(h.count);
    os << ",\"sum\":";
    number(h.sum);
    os << '}';
  });
  os << '}';
}

std::string label_value(const std::string& name, const std::string& key) {
  const std::size_t open = name.find('{');
  if (open == std::string::npos) return {};
  for (std::size_t at = open + 1; at < name.size();) {
    const std::size_t end = std::min(name.find_first_of(",}", at), name.size());
    const std::size_t eq = name.find('=', at);
    if (eq < end && name.compare(at, eq - at, key) == 0)
      return name.substr(eq + 1, end - eq - 1);
    at = end + 1;
  }
  return {};
}

std::vector<double> pow2_bounds(int lo_exp, int hi_exp) {
  std::vector<double> bounds;
  for (int e = lo_exp; e <= hi_exp; ++e)
    bounds.push_back(std::ldexp(1.0, e));
  return bounds;
}

void Registry::add_counter(const std::string& name, double delta) {
  std::lock_guard lock(mutex_);
  data_.counters[name] += delta;
}

void Registry::set_gauge(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  data_.gauges[name] = value;
}

void observe(Snapshot& into, const std::string& name, const std::vector<double>& bounds,
             double value) {
  auto it = into.histograms.find(name);
  if (it == into.histograms.end()) {
    HistogramData h;
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
    it = into.histograms.emplace(name, std::move(h)).first;
  }
  HistogramData& h = it->second;
  std::size_t b = 0;
  while (b < h.bounds.size() && value > h.bounds[b]) ++b;
  ++h.counts[b];
  ++h.count;
  h.sum += value;
}

void Registry::observe(const std::string& name,
                       const std::vector<double>& bounds, double value) {
  std::lock_guard lock(mutex_);
  metrics::observe(data_, name, bounds, value);
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  return data_;
}

Snapshot Registry::take() {
  std::lock_guard lock(mutex_);
  Snapshot out = std::move(data_);
  data_ = Snapshot{};
  return out;
}

void Registry::clear() {
  std::lock_guard lock(mutex_);
  data_ = Snapshot{};
}

}  // namespace bonsai::metrics
