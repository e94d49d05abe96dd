#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "device/device.hpp"
#include "domain/decomposition.hpp"
#include "domain/let.hpp"
#include "domain/transport.hpp"
#include "domain/wire.hpp"
#include "ic.hpp"
#include "tree/octree.hpp"
#include "tree/traverse.hpp"

namespace bench {

namespace {

using namespace bonsai;
namespace dom = bonsai::domain;
namespace wire = bonsai::domain::wire;

struct Lane {
  explicit Lane(std::size_t threads) : device(threads) {}
  Device device;
  Octree tree;
  std::vector<TargetGroup> groups;
  AABB box;
  std::vector<dom::LetTree> imports;
};

// A frame one lane posted to another in the last measured iteration, kept
// for the transport probes.
struct Posted {
  int src = 0, dst = 0;
  std::vector<std::uint8_t> frame;
};

// Run fn(r) for every rank, concurrently (one thread per rank, as the async
// lanes and SPMD workers run) or one rank at a time (lockstep). The first
// exception is rethrown after every thread has joined.
void for_each_rank(int nranks, bool concurrent, const std::function<void(int)>& fn) {
  if (!concurrent) {
    for (int r = 0; r < nranks; ++r) fn(r);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

// --- Isolated kernel drain (synthetic trees, one thread) ---------------------

// Pure p-p source: one particle leaf over every particle with an infinite
// opening radius, so each group stages all sources as one leaf batch.
std::vector<TreeNode> pp_tree(const ParticleSet& parts) {
  TreeNode root;
  root.kind = NodeKind::kParticleLeaf;
  root.part_begin = 0;
  root.part_end = static_cast<std::uint32_t>(parts.size());
  root.rcrit = 1e30;
  return {root};
}

// Pure p-c source: an unacceptable internal root over `ncells` multipole
// leaves, each holding the moments of one slice of the particles.
std::vector<TreeNode> pc_tree(const ParticleSet& parts, std::uint32_t ncells) {
  std::vector<TreeNode> nodes(1);
  TreeNode& root = nodes[0];
  root.kind = NodeKind::kInternal;
  root.part_end = static_cast<std::uint32_t>(parts.size());
  root.first_child = 1;
  root.num_children = static_cast<std::uint8_t>(ncells);
  root.rcrit = 1e30;
  const auto n = static_cast<std::uint32_t>(parts.size());
  const std::uint32_t slice = (n + ncells - 1) / ncells;
  for (std::uint32_t c = 0; c < ncells; ++c) {
    const std::uint32_t b = std::min(n, c * slice), e = std::min(n, b + slice);
    TreeNode cell;
    cell.kind = NodeKind::kMultipoleLeaf;
    cell.level = 1;
    for (std::uint32_t i = b; i < e; ++i) {
      cell.mp.com = cell.mp.com + parts.pos(i) * parts.mass[i];
      cell.mp.mass += parts.mass[i];
    }
    if (cell.mp.mass > 0.0) cell.mp.com = cell.mp.com * (1.0 / cell.mp.mass);
    for (std::uint32_t i = b; i < e; ++i)
      cell.mp.quad.add_outer(parts.pos(i) - cell.mp.com, parts.mass[i]);
    nodes.push_back(cell);
  }
  return nodes;
}

// Median Gflop/s of `iters` timed drains (after one untimed warm-up).
double drain_rate(const std::vector<TreeNode>& nodes, ParticleSet& targets,
                  const std::vector<TargetGroup>& groups, const TraversalConfig& config,
                  bool self, int iters, const char* name, SpanLog& log) {
  const TreeView src{nodes, targets.x, targets.y, targets.z, targets.mass};
  InteractionQueue queue;
  targets.zero_forces();
  traverse_groups_batched(src, targets, groups, config, self, queue);
  std::vector<double> rates;
  for (int it = 0; it < iters; ++it) {
    targets.zero_forces();
    Scope span(&log, name);
    const std::int64_t t0 = clock_ns();
    const InteractionStats s = traverse_groups_batched(src, targets, groups, config, self, queue);
    const double secs = static_cast<double>(clock_ns() - t0) * 1e-9;
    span.count("flops", static_cast<double>(s.flops()));
    rates.push_back(static_cast<double>(s.flops()) / secs * 1e-9);
  }
  return median(rates);
}

struct KernelRates {
  double pp = 0.0, pc = 0.0;  // Gflop/s, one thread
};

KernelRates kernel_rates(const dom::SimConfig& cfg, SpanLog& log) {
  ParticleSet parts = make_plummer(4096, 42);
  const std::vector<TargetGroup> groups = make_groups(parts, 64);
  TraversalConfig config = cfg.traversal();
  KernelRates k;
  k.pp = drain_rate(pp_tree(parts), parts, groups, config, true, 11, "tree.kernel.pp", log);
  k.pc = drain_rate(pc_tree(parts, 192), parts, groups, config, false, 31, "tree.kernel.pc", log);
  return k;
}

// --- Transport probes ----------------------------------------------------------

double mbps(double bytes, double seconds) { return seconds > 0.0 ? bytes / seconds * 1e-6 : 0.0; }

double inproc_mbps(const std::vector<Posted>& frames, int nranks, SpanLog& log) {
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<Posted> copy = frames;
    double bytes = 0.0;
    dom::InProcTransport net(nranks);
    Scope span(&log, "domain.transport.inproc");
    const std::int64_t t0 = clock_ns();
    for (auto& p : copy) {
      bytes += static_cast<double>(p.frame.size());
      net.post(p.src, p.dst, std::move(p.frame));
    }
    for (const auto& p : frames)
      if (!net.recv(p.dst)) throw std::runtime_error("in-process transport lost a frame");
    const double secs = static_cast<double>(clock_ns() - t0) * 1e-9;
    span.count("bytes", bytes);
    rates.push_back(mbps(bytes, secs));
  }
  return median(rates);
}

double socket_mbps(const std::vector<Posted>& frames, SpanLog& log) {
  auto coordinator = dom::SocketTransport::listen(0, 1, dom::SocketTopology::kStar);
  std::unique_ptr<dom::SocketTransport> worker;
  std::exception_ptr connect_error;
  std::thread dial([&] {
    try {
      worker = dom::SocketTransport::connect("127.0.0.1", coordinator->port(), 0);
    } catch (...) {
      connect_error = std::current_exception();
    }
  });
  try {
    coordinator->accept_workers(30000);
  } catch (...) {
    dial.join();
    throw;
  }
  dial.join();
  if (connect_error) std::rethrow_exception(connect_error);

  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<Posted> copy = frames;
    double bytes = 0.0;
    for (const auto& p : frames) bytes += static_cast<double>(p.frame.size());
    bool lost = false;
    Scope span(&log, "domain.transport.socket");
    const std::int64_t t0 = clock_ns();
    std::thread rx([&] {
      for (std::size_t i = 0; i < frames.size(); ++i)
        if (!worker->recv(0)) {
          lost = true;
          return;
        }
    });
    try {
      for (auto& p : copy) coordinator->post(dom::kCoordinatorRank, 0, std::move(p.frame));
    } catch (...) {
      worker->close(0);  // unblocks the receiver before it is joined
      rx.join();
      throw;
    }
    rx.join();
    if (lost) throw std::runtime_error("socket transport lost a frame");
    const double secs = static_cast<double>(clock_ns() - t0) * 1e-9;
    span.count("bytes", bytes);
    rates.push_back(mbps(bytes, secs));
  }
  worker.reset();
  coordinator.reset();
  return median(rates);
}

// --- Span aggregation ---------------------------------------------------------

// Seconds of spans named `name`, summed per rank, for one iteration.
std::map<int, double> rank_seconds(const std::vector<Span>& spans, const std::string& name,
                                   int iter) {
  std::map<int, double> out;
  for (const Span& s : spans)
    if (s.iter == iter && s.name == name) out[s.rank] += s.seconds();
  return out;
}

double max_value(const std::map<int, double>& m) {
  double v = 0.0;
  for (const auto& [k, x] : m) v = std::max(v, x);
  return v;
}

double count_total(const std::vector<Span>& spans, const std::string& name,
                   const std::string& key, int iter) {
  double v = 0.0;
  for (const Span& s : spans)
    if (s.iter == iter && s.name == name) {
      const auto it = s.counts.find(key);
      if (it != s.counts.end()) v += it->second;
    }
  return v;
}

}  // namespace

LayerMetrics replay_layers(const ParticleSet& state, const ReplayOptions& opt, SpanLog& log) {
  const dom::SimConfig& cfg = opt.cfg;
  const int nranks = cfg.nranks;
  const auto nr = static_cast<std::size_t>(nranks);
  const TraversalConfig traversal = cfg.traversal();
  const int last_iter = opt.iterations;

  std::vector<ParticleSet> sets(nr);
  sets[0] = state;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int r = 0; r < nranks; ++r) lanes.push_back(std::make_unique<Lane>(opt.threads_per_rank));
  // Pair caches of the incremental exchange: send[src][dst] mirrors what dst
  // holds of src's LET, recv[dst][src] is dst's copy.
  using CacheRow = std::vector<wire::LetCacheEntry>;
  std::vector<CacheRow> send_cache(nr, CacheRow(nr)), recv_cache(nr, CacheRow(nr));
  std::vector<std::vector<std::uint8_t>> scratch(nr);
  // full[dst][src], delta[dst][src]: frames in flight this iteration.
  using FrameRow = std::vector<std::vector<std::uint8_t>>;
  std::vector<FrameRow> full(nr, FrameRow(nr)), delta(nr, FrameRow(nr));
  std::vector<Posted> posted;
  double pool_speedup = 0.0;
  std::size_t pool_threads = 1;

  for (int it = 0; it <= last_iter; ++it) {
    Scope step(&log, "replay.step", -1, it);

    dom::DomainUpdate du;
    {
      Scope span(&log, "domain.decomp", -1, it, step.id());
      std::vector<const ParticleSet*> ptrs;
      for (const auto& s : sets) ptrs.push_back(&s);
      du = dom::update_domain(ptrs, nranks, cfg.curve, cfg.samples_per_rank, cfg.snap_level, {});
    }
    {
      Scope span(&log, "domain.exchange", -1, it, step.id());
      dom::InProcTransport net(nranks);
      const dom::ExchangeStats es = dom::exchange(sets, du.space, du.decomp, net);
      span.count("migrated", static_cast<double>(es.migrated));
      if (es.total != state.size()) throw std::runtime_error("exchange lost particles");
    }

    for_each_rank(nranks, opt.concurrent_lanes, [&](int r) {
      Lane& lane = *lanes[static_cast<std::size_t>(r)];
      ParticleSet& parts = sets[static_cast<std::size_t>(r)];
      {
        Scope span(&log, "sfc.keys", r, it, step.id());
        std::vector<sfc::Key> keys(parts.size());
        lane.device.parallel_for(parts.size(),
                                 [&](std::size_t i) { keys[i] = du.space.key(parts.pos(i)); });
        span.count("keys", static_cast<double>(keys.size()));
      }
      {
        Scope span(&log, "device.sort", r, it, step.id());
        lane.device.sort_particles(parts, du.space);
      }
      {
        Scope span(&log, "device.build", r, it, step.id());
        lane.device.build_tree(parts, lane.tree, cfg.nleaf);
      }
      {
        Scope span(&log, "device.props", r, it, step.id());
        lane.device.compute_properties(parts, lane.tree, cfg.theta);
        lane.groups = make_groups(parts, cfg.ncrit);
      }
      lane.box = parts.empty() ? AABB{} : lane.tree.root().box;
    });

    // Export: every active rank builds and encodes one LET per active peer,
    // as a full frame and as a delta against the pair's cache.
    for_each_rank(nranks, opt.concurrent_lanes, [&](int r) {
      const auto ur = static_cast<std::size_t>(r);
      for (std::size_t d = 0; d < nr; ++d) {
        full[d][ur].clear();
        delta[d][ur].clear();
      }
      if (sets[ur].empty()) return;
      const Lane& lane = *lanes[ur];
      for (int k = 1; k < nranks; ++k) {
        const int d = (r + k) % nranks;
        const auto ud = static_cast<std::size_t>(d);
        if (sets[ud].empty()) continue;
        wire::LetMessage msg;
        msg.src = r;
        {
          Scope span(&log, "domain.let_build", r, it, step.id());
          msg.let = dom::build_let(lane.tree.view(sets[ur]), lanes[ud]->box);
          span.count("cells", static_cast<double>(msg.let.num_cells()));
          span.count("particles", static_cast<double>(msg.let.num_particles()));
        }
        {
          Scope span(&log, "domain.wire.encode", r, it, step.id());
          full[ud][ur] = wire::encode_let(msg);
          span.count("bytes", static_cast<double>(full[ud][ur].size()));
        }
        {
          Scope span(&log, "domain.wire.delta_encode", r, it, step.id());
          wire::LetEncodeResult enc =
              wire::encode_let_cached(msg, send_cache[ur][ud], cfg.let_churn, &scratch[ur]);
          span.count("bytes", static_cast<double>(enc.frame.size()));
          span.count("full_bytes", static_cast<double>(enc.full_bytes));
          span.count("delta_frames", enc.is_delta ? 1.0 : 0.0);
          delta[ud][ur] = std::move(enc.frame);
        }
      }
    });

    // Import: decode the full frames (the LETs remote gravity walks) and
    // patch the delta frames; a patched LET must re-encode to the full frame.
    for_each_rank(nranks, opt.concurrent_lanes, [&](int d) {
      const auto ud = static_cast<std::size_t>(d);
      Lane& lane = *lanes[ud];
      lane.imports.clear();
      if (sets[ud].empty()) return;
      for (int k = 1; k < nranks; ++k) {
        const int r = (d + nranks - k) % nranks;
        const auto ur = static_cast<std::size_t>(r);
        if (sets[ur].empty()) continue;
        wire::LetMessage msg;
        {
          Scope span(&log, "domain.wire.decode", d, it, step.id());
          msg = wire::decode_let(full[ud][ur]);
        }
        wire::LetMessage patched;
        {
          Scope span(&log, "domain.wire.delta_patch", d, it, step.id());
          patched = wire::decode_let_cached(delta[ud][ur], recv_cache[ud][ur]);
        }
        wire::LetMessage reencode;
        reencode.src = r;
        reencode.let = std::move(patched.let);
        if (wire::encode_let(reencode) != full[ud][ur])
          throw std::runtime_error("patched LET differs from the full export");
        lane.imports.push_back(std::move(msg.let));
      }
    });

    if (it == last_iter) {
      posted.clear();
      for (std::size_t d = 0; d < nr; ++d)
        for (std::size_t r = 0; r < nr; ++r)
          if (!full[d][r].empty())
            posted.push_back({static_cast<int>(r), static_cast<int>(d), full[d][r]});
    }

    for_each_rank(nranks, opt.concurrent_lanes, [&](int r) {
      Lane& lane = *lanes[static_cast<std::size_t>(r)];
      ParticleSet& parts = sets[static_cast<std::size_t>(r)];
      if (parts.empty()) return;
      parts.zero_forces();
      {
        Scope span(&log, "device.gravity_local", r, it, step.id());
        const InteractionStats s = lane.device.compute_forces(lane.tree.view(parts), parts,
                                                              lane.groups, traversal, true);
        span.count("p2p", static_cast<double>(s.p2p));
        span.count("p2c", static_cast<double>(s.p2c));
        span.count("padded", static_cast<double>(s.p2p_padded + s.p2c_padded));
      }
      for (const dom::LetTree& let : lane.imports) {
        if (let.empty()) continue;
        Scope span(&log, "device.gravity_remote", r, it, step.id());
        const InteractionStats s =
            lane.device.compute_forces(let.view(), parts, lane.groups, traversal, false);
        span.count("p2p", static_cast<double>(s.p2p));
        span.count("p2c", static_cast<double>(s.p2c));
        span.count("padded", static_cast<double>(s.p2p_padded + s.p2c_padded));
      }
    });

    if (it == last_iter) {
      // Thread-pool scaling of the local force pass on rank 0's tree: one
      // thread against all of the host's, alternated three times.
      pool_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
      Device one(1), all(pool_threads);
      std::vector<double> speedups;
      for (int rep = 0; rep < 3; ++rep) {
        double secs[2] = {0.0, 0.0};
        for (Device* device : {&one, &all}) {
          ParticleSet copy = sets[0];
          copy.zero_forces();
          const bool single = device == &one;
          Scope span(&log, single ? "device.pool_1t" : "device.pool_nt", 0, it, step.id());
          span.count("threads", static_cast<double>(device->num_threads()));
          const std::int64_t t0 = clock_ns();
          device->compute_forces(lanes[0]->tree.view(copy), copy, lanes[0]->groups, traversal,
                                 true);
          secs[single ? 0 : 1] = static_cast<double>(clock_ns() - t0) * 1e-9;
        }
        if (secs[1] > 0.0) speedups.push_back(secs[0] / secs[1]);
      }
      pool_speedup = median(speedups);
    }

    for_each_rank(nranks, opt.concurrent_lanes, [&](int r) {
      Lane& lane = *lanes[static_cast<std::size_t>(r)];
      ParticleSet& p = sets[static_cast<std::size_t>(r)];
      Scope span(&log, "device.integrate", r, it, step.id());
      const double dt = cfg.dt;
      lane.device.parallel_for(p.size(), [&](std::size_t i) {
        p.vx[i] += p.ax[i] * dt;
        p.vy[i] += p.ay[i] * dt;
        p.vz[i] += p.az[i] * dt;
        p.x[i] += p.vx[i] * dt;
        p.y[i] += p.vy[i] * dt;
        p.z[i] += p.vz[i] * dt;
      });
    });
  }

  const KernelRates kr = kernel_rates(cfg, log);
  const double inproc = inproc_mbps(posted, nranks, log);
  const double socket = socket_mbps(posted, log);

  // --- Per-layer metrics from the measured iterations' spans ------------------
  const std::vector<Span> spans = log.spans();
  const auto per_iter = [&](const std::function<double(int)>& f) {
    std::vector<double> v;
    for (int it = 1; it <= last_iter; ++it) v.push_back(f(it));
    return median(v);
  };
  const auto max_rank = [&](const std::string& name) {
    return per_iter([&](int it) { return max_value(rank_seconds(spans, name, it)); });
  };
  const auto total = [&](const std::string& name, const std::string& key) {
    return per_iter([&](int it) { return count_total(spans, name, key, it); });
  };
  const auto driver = [&](const std::string& name) {
    return per_iter([&](int it) { return rank_seconds(spans, name, it)[-1]; });
  };

  LayerMetrics m;
  m["tree.kernel.pp_gflops"] = kr.pp;
  m["tree.kernel.pc_gflops"] = kr.pc;
  m["sfc.keys_s"] = max_rank("sfc.keys");
  m["device.sort_s"] = max_rank("device.sort");
  m["device.build_s"] = max_rank("device.build");
  m["device.props_s"] = max_rank("device.props");
  m["device.gravity_local_s"] = max_rank("device.gravity_local");
  m["device.gravity_remote_s"] = max_rank("device.gravity_remote");
  m["domain.decomp_s"] = driver("domain.decomp");
  m["domain.exchange_s"] = driver("domain.exchange");
  m["domain.migrated"] = total("domain.exchange", "migrated");
  m["domain.let_build_s"] = max_rank("domain.let_build");
  m["domain.let_cells"] = total("domain.let_build", "cells");
  m["domain.let_particles"] = total("domain.let_build", "particles");
  m["domain.wire.encode_s"] = max_rank("domain.wire.encode");
  m["domain.wire.decode_s"] = max_rank("domain.wire.decode");
  m["domain.wire.let_bytes"] = total("domain.wire.encode", "bytes");
  m["domain.wire.delta_encode_s"] = max_rank("domain.wire.delta_encode");
  m["domain.wire.delta_patch_s"] = max_rank("domain.wire.delta_patch");
  m["domain.transport.inproc_mbps"] = inproc;
  m["domain.transport.socket_mbps"] = socket;
  m["device.pool_efficiency"] = pool_speedup / static_cast<double>(pool_threads);

  double delta_bytes = 0.0, full_bytes = 0.0;
  double p2p = 0.0, p2c = 0.0, padded = 0.0, grav_thread_s = 0.0, drain_model_s = 0.0;
  std::vector<double> walk, imbalance;
  const double threads = static_cast<double>(opt.threads_per_rank);
  for (int it = 1; it <= last_iter; ++it) {
    delta_bytes += count_total(spans, "domain.wire.delta_encode", "bytes", it);
    full_bytes += count_total(spans, "domain.wire.delta_encode", "full_bytes", it);
    std::map<int, double> grav = rank_seconds(spans, "device.gravity_local", it);
    for (const auto& [r, s] : rank_seconds(spans, "device.gravity_remote", it)) grav[r] += s;
    double worst_walk = -1e300, sum = 0.0, worst = 0.0;
    for (const auto& [r, secs] : grav) {
      double rp2p = 0.0, rp2c = 0.0;
      for (const Span& s : spans) {
        if (s.iter != it || s.rank != r) continue;
        if (s.name != "device.gravity_local" && s.name != "device.gravity_remote") continue;
        rp2p += s.counts.at("p2p");
        rp2c += s.counts.at("p2c");
        padded += s.counts.at("padded");
      }
      // Drain time the isolated kernels would need for this rank's work.
      const double drain = (rp2p * bonsai::kFlopsPerPP / kr.pp +
                            rp2c * bonsai::kFlopsPerPC / kr.pc) * 1e-9;
      worst_walk = std::max(worst_walk, secs - drain / threads);
      p2p += rp2p;
      p2c += rp2c;
      grav_thread_s += secs * threads;
      drain_model_s += drain;
      sum += secs;
      worst = std::max(worst, secs);
    }
    walk.push_back(grav.empty() ? 0.0 : worst_walk);
    imbalance.push_back(sum > 0.0 ? worst / (sum / static_cast<double>(grav.size())) : 1.0);
  }
  const double iters = static_cast<double>(last_iter);
  const double n = static_cast<double>(state.size());
  const double flops = p2p * bonsai::kFlopsPerPP + p2c * bonsai::kFlopsPerPC;
  m["domain.wire.delta_ratio"] = full_bytes > 0.0 ? delta_bytes / full_bytes : 1.0;
  m["tree.p2p_per_particle"] = n > 0.0 ? p2p / (n * iters) : 0.0;
  m["tree.p2c_per_particle"] = n > 0.0 ? p2c / (n * iters) : 0.0;
  m["tree.fill_ratio"] = padded > 0.0 ? (p2p + p2c) / padded : 1.0;
  m["tree.gravity_gflops"] = grav_thread_s > 0.0 ? flops / grav_thread_s * 1e-9 : 0.0;
  m["tree.kernel_peak_frac"] = grav_thread_s > 0.0 ? drain_model_s / grav_thread_s : 0.0;
  m["tree.walk_s"] = median(walk);
  m["domain.imbalance"] = median(imbalance);
  return m;
}

}  // namespace bench
