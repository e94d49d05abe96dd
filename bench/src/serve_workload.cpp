// The serve-jobs workload: an in-process serve::JobServer on an ephemeral
// loopback port and one closed-loop client speaking only the
// serve/client.hpp calls. The client runs rounds of three equal jobs (same
// size, two ranks each) from a seeded stream. Two low-priority jobs fill the
// rank pool; once the first has finished a step, a high-priority job arrives
// and preempts it (the victim checkpoints to the spool at its next step
// boundary and resumes from it when slots free up). The client fetches the
// preempted job's snapshot, waits for all three and starts the next round,
// so at most three jobs are in flight and every round runs the same
// schedule.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ic.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace bench {

namespace {

using bonsai::ParticleSet;
namespace wire = bonsai::domain::wire;
namespace serve = bonsai::serve;

constexpr int kPoolSlots = 4;
constexpr int kJobRanks = 2;  // two jobs fill the pool
constexpr int kRssRounds = 4;       // timed rounds before peak_rss_mb is read
constexpr int kAccuracyRounds = 2;  // rounds whose final states are checked
constexpr const char* kHost = "127.0.0.1";
constexpr double kTheta = 0.4;

wire::JobSpec job(const std::string& name, ParticleSet parts, int priority, int ranks,
                  int steps) {
  wire::JobSpec spec;
  spec.name = name;
  spec.n = parts.size();
  spec.parts = std::move(parts);
  spec.priority = priority;
  spec.ranks = ranks;
  spec.steps = steps;
  spec.theta = kTheta;
  spec.eps = 1e-2;
  spec.dt = 1e-3;
  return spec;
}

// Round `round` of the seeded job stream: two low-priority jobs, then the
// high-priority one. Sizes are fixed so every seed carries the same load;
// seed and round pick the positions.
std::vector<wire::JobSpec> round_jobs(std::uint64_t seed, int round, bool tiny) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(round));
  const std::size_t n = tiny ? 512 : 4096;
  std::vector<wire::JobSpec> jobs;
  jobs.push_back(job("low", make_plummer(n, rng.next()), 0, kJobRanks, 3));
  jobs.push_back(job("low", make_plummer(n, rng.next()), 0, kJobRanks, 3));
  jobs.push_back(job("high", make_plummer(n, rng.next()), 1, kJobRanks, 2));
  return jobs;
}

struct JobRecord {
  std::int32_t id = -1;
  double submit_t = 0.0, running_t = -1.0, end_t = 0.0;
  wire::JobState state = wire::JobState::kRejected;
  ParticleSet result;
};

constexpr auto kPollInterval = std::chrono::milliseconds(10);

// One round of the closed loop; the last job is the preempting one. With a
// span log, the client calls are recorded and queued jobs are polled until
// first seen running, which gives the queue wait.
std::vector<JobRecord> run_round(std::uint16_t port, std::vector<wire::JobSpec> jobs,
                                 SpanLog* log, int iter) {
  std::vector<JobRecord> recs(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (j + 1 == jobs.size() && recs[0].state != wire::JobState::kRejected) {
      // Preempt only after the first job has made progress, so the victim
      // always suspends at the same step boundary.
      for (;;) {
        const wire::JobStatusMsg st = serve::job_status(kHost, port, recs[0].id);
        if (st.steps_done >= 1 || st.state != wire::JobState::kRunning) break;
        std::this_thread::sleep_for(kPollInterval);
      }
    }
    JobRecord& rec = recs[j];
    rec.submit_t = now_s();
    Scope span(log, "serve.submit", -1, iter);
    const wire::JobStatusMsg st = serve::submit_job(kHost, port, jobs[j]);
    rec.id = st.job_id;
    rec.state = st.state;
    if (st.state == wire::JobState::kRejected) rec.end_t = now_s();
    if (st.state == wire::JobState::kRunning) rec.running_t = now_s();
  }
  {
    // The first job was asked to suspend by the high-priority submit; its
    // snapshot comes from the spool checkpoint (or the next boundary).
    Scope span(log, "serve.snapshot", -1, iter);
    const wire::SnapshotMsg snap = serve::fetch_snapshot(kHost, port, recs[0].id);
    std::size_t total = 0;
    for (const auto& s : snap.sets) total += s.size();
    span.count("particles", static_cast<double>(total));
  }

  // Waiter threads own state/result/end_t from here on; the polling below
  // touches only running_t.
  std::vector<bool> poll(recs.size());
  for (std::size_t j = 0; j < recs.size(); ++j)
    poll[j] = recs[j].state == wire::JobState::kQueued;
  std::vector<std::thread> waiters;
  for (JobRecord& rec : recs) {
    if (rec.state == wire::JobState::kRejected) continue;
    waiters.emplace_back([&rec, port] {
      try {
        wire::JobResultMsg res = serve::wait_job(kHost, port, rec.id);
        rec.state = res.state;
        rec.result = std::move(res.parts);
      } catch (const std::exception&) {
        rec.state = wire::JobState::kFailed;
      }
      rec.end_t = now_s();
    });
  }
  if (log) {
    bool pending = true;
    while (pending) {
      pending = false;
      for (std::size_t j = 0; j < recs.size(); ++j) {
        JobRecord& rec = recs[j];
        if (!poll[j] || rec.running_t >= 0.0) continue;
        const wire::JobStatusMsg st = serve::job_status(kHost, port, rec.id);
        if (st.state == wire::JobState::kQueued) {
          pending = true;
        } else {
          rec.running_t = now_s();  // running, or already past it
        }
      }
      if (pending) std::this_thread::sleep_for(kPollInterval);
    }
    // Queue wait of the jobs that were queued at submit: the preempting
    // job's wait for its victim to checkpoint.
    for (std::size_t j = 0; j < recs.size(); ++j) {
      const JobRecord& rec = recs[j];
      if (!poll[j] || rec.running_t < 0.0) continue;
      Span s;
      s.id = log->next_id();
      s.name = "serve.queue_wait";
      s.iter = iter;
      s.start_ns = static_cast<std::int64_t>(rec.submit_t * 1e9);
      s.end_ns = static_cast<std::int64_t>(rec.running_t * 1e9);
      log->add(std::move(s));
    }
  }
  for (auto& w : waiters) w.join();
  return recs;
}

// Per-step wall seconds of a finished job, from the server's per-job step
// report (ServerConfig::bench_dir, the --bench JSON schema).
std::vector<double> job_step_seconds(const std::string& bench_dir, std::int32_t id) {
  std::ifstream in(bench_dir + "/job-" + std::to_string(id) + ".json");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::vector<double> out;
  const std::string key = "\"elapsed_s\": ";
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + 1))
    out.push_back(std::strtod(text.c_str() + pos + key.size(), nullptr));
  return out;
}

struct Server {
  std::string dir;
  serve::ServerConfig cfg;
  std::unique_ptr<serve::JobServer> server;

  explicit Server(const std::string& workdir) {
    dir = workdir + "/serve-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    cfg.port = 0;
    cfg.limits.pool_slots = kPoolSlots;
    cfg.limits.max_concurrent_jobs = 8;
    cfg.spool_dir = dir + "/spool";
    cfg.bench_dir = dir + "/jobs";
  }
  ~Server() {
    server.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start() {
    server.reset();
    server = std::make_unique<serve::JobServer>(cfg);
  }
  std::uint16_t port() const { return server->port(); }
  double preempted() const {
    const auto snap = serve::fetch_metrics(kHost, port());
    const auto it = snap.counters.find("server.jobs.preempted");
    return it == snap.counters.end() ? 0.0 : it->second;
  }
};

// Book a round's jobs: attempted/failed counts, turnaround and step times.
void book(RunResult& res, const Server& srv, const std::vector<JobRecord>& recs,
          std::vector<double>& turnaround, std::vector<double>& step_s, int& completed) {
  for (const JobRecord& rec : recs) {
    ++res.attempted;
    if (rec.state != wire::JobState::kCompleted) {
      ++res.failed;
      res.fail("job " + std::to_string(rec.id) + " ended " + wire::job_state_name(rec.state));
      continue;
    }
    ++completed;
    turnaround.push_back(rec.end_t - rec.submit_t);
    for (const double s : job_step_seconds(srv.cfg.bench_dir, rec.id)) step_s.push_back(s);
  }
}

// serve.* metrics from the traced rounds' spans.
void serve_metrics(RunResult& res, double preemptions, int rounds) {
  std::vector<double> submit, queue_wait, snapshot;
  for (const Span& s : res.spans.spans()) {
    if (s.name == "serve.submit") submit.push_back(s.seconds());
    if (s.name == "serve.queue_wait") queue_wait.push_back(s.seconds());
    if (s.name == "serve.snapshot") snapshot.push_back(s.seconds());
  }
  res.metrics["serve.submit_s"] = median(submit);
  res.metrics["serve.queue_wait_s"] = median(queue_wait);
  res.metrics["serve.snapshot_s"] = median(snapshot);
  res.metrics["serve.preemptions"] = rounds > 0 ? preemptions / rounds : 0.0;
}

// Forces-only jobs over `states` at the jobs' rank count, checked against
// direct summation; the errors of all states are pooled.
void accuracy_jobs(RunResult& res, std::uint16_t port, std::vector<ParticleSet> states,
                   std::uint64_t seed, std::size_t targets) {
  std::vector<double> errors;
  for (std::size_t k = 0; k < states.size(); ++k) {
    ParticleSet& state = states[k];
    state.zero_forces();
    const std::size_t n = state.size();
    wire::JobSpec spec = job("forces", std::move(state), 0, kJobRanks, 1);
    spec.dt = 0.0;
    const wire::JobStatusMsg st = serve::submit_job(kHost, port, spec);
    const wire::JobResultMsg out = serve::wait_job(kHost, port, st.job_id);
    if (out.state != wire::JobState::kCompleted || out.parts.size() != n) {
      ++res.attempted;
      ++res.failed;
      res.fail("forces-only job did not complete");
      return;
    }
    const std::vector<double> e = force_error_samples(out.parts, spec.eps, seed + k, targets);
    errors.insert(errors.end(), e.begin(), e.end());
  }
  apply_accuracy(res, summarize_errors(errors), kTheta);
}

}  // namespace

void run_serve_jobs(const Options& opt, RunResult& res) {
  Server srv(opt.workdir);
  const int setups = opt.trace ? 1 : kSetups;
  const std::size_t targets = opt.tiny ? 256 : 2048;

  // Set-up: server construction and one warm-up round (round 0).
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    const double t0 = now_s();
    srv.start();
    const std::vector<JobRecord> warm_up =
        run_round(srv.port(), round_jobs(opt.seed, 0, opt.tiny), nullptr, -1);
    for (const JobRecord& rec : warm_up)
      if (rec.state != wire::JobState::kCompleted) res.fail("warm-up job failed");
    setup_s.push_back(now_s() - t0);
  }

  std::vector<double> turnaround, step_s;
  int completed = 0;
  // The final states of the first kAccuracyRounds rounds: the accuracy check.
  std::vector<ParticleSet> reference;
  double loop_s = 0.0;
  int round = 1;
  const auto keep_reference = [&](std::vector<JobRecord>& recs) {
    if (round > kAccuracyRounds) return;
    for (JobRecord& rec : recs)
      if (rec.state == wire::JobState::kCompleted) reference.push_back(std::move(rec.result));
  };

  double rss_mb = 0.0;
  if (!opt.trace) {
    const double t0 = now_s();
    while (round <= kAccuracyRounds || now_s() - t0 < opt.seconds) {
      std::vector<JobRecord> recs =
          run_round(srv.port(), round_jobs(opt.seed, round, opt.tiny), nullptr, round);
      book(res, srv, recs, turnaround, step_s, completed);
      keep_reference(recs);
      // The server keeps a thread per connection until shutdown, so its
      // memory grows with every round; the peak is taken after a fixed
      // number of rounds, not after however many fit in the window.
      if (round == kRssRounds) rss_mb = peak_rss_mb();
      ++round;
    }
    loop_s = now_s() - t0;
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  } else {
    // Untraced and traced rounds (spans + status polling) alternate, so
    // slow drift of the host lands on both sides alike.
    std::vector<double> untraced_turn, untraced_steps, traced_turn, traced_steps;
    double preemptions = 0.0;
    for (; round <= 4; ++round) {
      const bool traced = round % 2 == 0;
      const double preempted0 = srv.preempted();
      std::vector<JobRecord> recs = run_round(srv.port(), round_jobs(opt.seed, round, opt.tiny),
                                              traced ? &res.spans : nullptr, round);
      if (traced) preemptions += srv.preempted() - preempted0;
      book(res, srv, recs, traced ? traced_turn : untraced_turn,
           traced ? traced_steps : untraced_steps, completed);
      keep_reference(recs);
    }
    serve_metrics(res, preemptions, 2);
    res.info["step_s_untraced"] = median(untraced_steps);
    res.info["step_s_traced"] = median(traced_steps);
    res.info["job_turnaround_s_untraced"] = median(untraced_turn);
    res.info["job_turnaround_s_traced"] = median(traced_turn);
  }

  if (reference.size() == 3 * kAccuracyRounds) {
    const bonsai::ParticleSet state = reference[0];
    accuracy_jobs(res, srv.port(), std::move(reference), opt.seed, targets);
    if (opt.trace) {
      // Replay the job's own configuration: lockstep ranks, one thread each.
      ReplayOptions ro;
      ro.cfg.nranks = kJobRanks;
      ro.cfg.dt = 1e-3;
      ro.cfg.async = false;
      ro.threads_per_rank = 1;
      ro.concurrent_lanes = false;
      ro.iterations = 3;
      for (const auto& [k, v] : replay_layers(state, ro, res.spans)) res.metrics[k] = v;
    }
  } else {
    ++res.attempted;
    ++res.failed;
    res.fail("the first rounds left no final states for the accuracy check");
  }
  srv.server.reset();

  res.info["rounds"] = round - 1;
  res.info["jobs_completed"] = completed;
  if (opt.trace) return;
  res.metrics["step_s"] = median(step_s);
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["peak_rss_mb"] = rss_mb;
  res.metrics["job_turnaround_s"] = median(turnaround);
  res.metrics["jobs_per_s"] = completed / loop_s;
  res.metrics["success_ratio"] = res.success_ratio();
}

void serve_layer_probe(const ParticleSet& state, const Options& opt, RunResult& res) {
  // A strided slice keeps the job small whatever the workload's size.
  const std::size_t want = opt.tiny ? 1024 : 4096;
  const std::size_t stride = std::max<std::size_t>(1, state.size() / want);
  ParticleSet slice;
  for (std::size_t i = 0; i < state.size(); i += stride) slice.add(state.get(i));
  const double scale = static_cast<double>(state.size()) / static_cast<double>(slice.size());
  for (double& m : slice.mass) m *= scale;

  Server srv(opt.workdir);
  srv.start();
  const double preempted0 = srv.preempted();
  for (int r = 1; r <= 2; ++r) {
    std::vector<wire::JobSpec> jobs;
    jobs.push_back(job("low", slice, 0, kJobRanks, 3));
    jobs.push_back(job("low", slice, 0, kJobRanks, 3));
    jobs.push_back(job("high", slice, 1, kJobRanks, 2));
    for (const JobRecord& rec : run_round(srv.port(), std::move(jobs), &res.spans, 100 + r))
      if (rec.state != wire::JobState::kCompleted) res.fail("serve probe job failed");
  }
  serve_metrics(res, srv.preempted() - preempted0, 2);
}

}  // namespace bench
