// bonsai_benchmark: runs one benchmark workload and writes its result.
//
//   bonsai_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                    --out RESULT.json [--spans SPANS.json] [--workdir DIR]
//                    [--tiny]
//
// Workloads: plummer-inproc, galaxy-mesh, serve-jobs. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 the per-layer
// metrics of the traced replay, and --spans receives every recorded span.
// --tiny shrinks every workload for smoke tests.
//
// Spawned as a socket worker by the galaxy-mesh coordinator, the binary
// instead serves one rank: --transport socket --rank-id K
// --coordinator HOST:PORT --threads T [--topology mesh --listen-port P].
#include <malloc.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "domain/cluster.hpp"

namespace {

using bench::RunResult;

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + key);
    key.erase(0, 2);
    if (key == "tiny") {
      args.insert_or_assign(key, std::string(1, '1'));
    } else if (i + 1 < argc) {
      args.insert_or_assign(key, std::string(argv[++i]));
    } else {
      throw std::runtime_error("--" + key + " needs a value");
    }
  }
  return args;
}

std::string get(const std::map<std::string, std::string>& args, const std::string& key,
                const std::string& fallback = "") {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int run_worker(const std::map<std::string, std::string>& args) {
  const std::string coord = get(args, "coordinator");
  const auto colon = coord.rfind(':');
  if (colon == std::string::npos) throw std::runtime_error("--coordinator expects HOST:PORT");
  const auto topology = get(args, "topology", "star") == "mesh"
                            ? bonsai::domain::SocketTopology::kMesh
                            : bonsai::domain::SocketTopology::kStar;
  return bonsai::domain::run_worker(
      coord.substr(0, colon), static_cast<std::uint16_t>(std::stoi(coord.substr(colon + 1))),
      std::stoi(get(args, "rank-id")), std::stoul(get(args, "threads", "0")), topology,
      static_cast<std::uint16_t>(std::stoi(get(args, "listen-port", "0"))));
}

void write_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

void write_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << '"' << k << "\": ";
    write_number(os, v);
    first = false;
  }
  os << "}";
}

void write_result(std::ostream& os, const bench::Options& opt, const RunResult& res) {
  os << std::setprecision(17) << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
     << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"correct\": " << (res.correct ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ",\n \"metrics\": ";
  write_map(os, res.metrics);
  os << ",\n \"info\": ";
  write_map(os, res.info);
  os << ",\n \"errors\": [";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    os << (i ? ", " : "") << '"';
    for (const char c : res.errors[i]) os << (c == '"' || c == '\\' ? '\'' : c);
    os << '"';
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after each large free,
  // so whether later buffers are returned to the system depends on history
  // and peak_rss_mb wanders by ~25% between identical runs. Fixed, every
  // buffer of 128 KiB or more is unmapped when freed and the peak tracks
  // live memory. Socket workers run this same main().
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    const auto args = parse(argc, argv);
    if (args.count("rank-id")) return run_worker(args);

    bench::Options opt;
    opt.workload = get(args, "workload");
    opt.seed = std::stoull(get(args, "seed", "1"));
    opt.seconds = std::stod(get(args, "seconds", "10"));
    opt.trace = get(args, "trace", "0") == "1";
    opt.tiny = args.count("tiny") > 0;
    opt.workdir = get(args, "workdir", ".");
    opt.program = argv[0];
    const std::string out_path = get(args, "out");
    if (out_path.empty()) throw std::runtime_error("--out is required");

    RunResult res;
    if (opt.workload == "plummer-inproc") {
      bench::run_plummer_inproc(opt, res);
    } else if (opt.workload == "galaxy-mesh") {
      bench::run_galaxy_mesh(opt, res);
    } else if (opt.workload == "serve-jobs") {
      bench::run_serve_jobs(opt, res);
    } else {
      throw std::runtime_error("unknown workload '" + opt.workload + "'");
    }

    std::ofstream out(out_path);
    write_result(out, opt, res);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    const std::string spans_path = get(args, "spans");
    if (opt.trace && !spans_path.empty()) {
      std::ofstream spans(spans_path);
      res.spans.write_json(spans);
      if (!spans) throw std::runtime_error("cannot write " + spans_path);
    }
    for (const std::string& e : res.errors) std::cerr << "bench: error: " << e << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bonsai_benchmark: fatal: " << e.what() << "\n";
    return 2;
  }
}
