// Central metrics registry: counters, gauges and fixed-bound histograms with
// a stable dotted naming scheme (e.g. "wire.let.bytes{rank=2}",
// "transport.post.bytes{src=0,dst=3,type=Let}", "let.size.bytes").
//
// A Snapshot is the only step accounting: each layer books its wire volume,
// traffic matrix and LET sizes into a per-step Snapshot where it measures
// them, cluster workers ship theirs inside the StepResult frame, and the
// coordinator merges them. The step printer, the --bench JSON and the job
// server's MetricsQuery all read from it. Kept deliberately free of
// wire/simulation includes so every layer can depend on it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bonsai::metrics {

// Histogram with explicit upper bucket bounds: counts[i] counts samples with
// value <= bounds[i]; counts.back() (one longer than bounds) is overflow.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};

// Plain-data form of a registry: what gets serialized, merged and reported.
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // The counter's value, 0 when it was never booked.
  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

// Adds `from` into `into`: counters and histogram buckets sum, gauges take
// the latest (from wins). Histograms with mismatching bounds throw.
void merge(Snapshot& into, const Snapshot& from);

// Observes `value` into the histogram `name` of `into`, created with
// `bounds` on first use (ignored on later calls for the same name).
void observe(Snapshot& into, const std::string& name, const std::vector<double>& bounds,
             double value);

// Renders a Snapshot as a JSON object {"counters":{...},"gauges":{...},
// "histograms":{name:{"bounds":[...],"counts":[...],"count":n,"sum":s}}}.
// Every number is written in its shortest form that parses back exactly,
// independent of the stream's flags and precision (which are left as found).
void to_json(std::ostream& os, const Snapshot& snapshot);

// The value of label `key` in a labeled metric name "base{k1=v1,k2=v2}";
// empty when the name carries no such label.
std::string label_value(const std::string& name, const std::string& key);

// Power-of-two bucket bounds [2^lo_exp, 2^hi_exp], the scheme used for LET
// frame sizes.
std::vector<double> pow2_bounds(int lo_exp, int hi_exp);

// Thread-safe registry. Metric kinds live in separate namespaces keyed by
// full name; names should follow "<subsystem>.<what>.<unit>{label=value,...}".
class Registry {
 public:
  void add_counter(const std::string& name, double delta);
  void set_gauge(const std::string& name, double value);
  // Observes into a histogram created on first use with `bounds` (ignored on
  // later calls for the same name).
  void observe(const std::string& name, const std::vector<double>& bounds,
               double value);

  Snapshot snapshot() const;
  // snapshot() + clear, for per-step delta reporting.
  Snapshot take();
  void clear();

 private:
  mutable std::mutex mutex_;
  Snapshot data_;
};

}  // namespace bonsai::metrics
