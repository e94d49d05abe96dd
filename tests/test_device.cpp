// Execution substrate: thread-pool completion signaling, deadlock safety of
// nested parallel_for (the 1-core-host case), the per-rank executor lanes,
// the LET channel layer, and the thread-budget policy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "device/thread_pool.hpp"
#include "domain/channel.hpp"
#include "domain/executor.hpp"
#include "domain/simulation.hpp"
#include "domain/transport.hpp"

namespace bonsai {
namespace {

TEST(ThreadPool, SubmitTaskFutureSignalsCompletion) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> done = pool.submit_task([&] { ++ran; });
  done.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A one-worker pool models a 1-core host (hardware_concurrency / nranks
  // clamps to 1): a nested parallel_for would block in wait_idle while
  // occupying the only worker able to drain the queue.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTask) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::future<void> done = pool.submit_task([&] {
    pool.parallel_for(16, [&](std::size_t) { ++count; });
  });
  done.get();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ParallelForFromAnotherPoolsWorkerStillDispatches) {
  ThreadPool outer(1), inner(2);
  std::atomic<int> count{0};
  outer.submit_task([&] { inner.parallel_for(10, [&](std::size_t) { ++count; }); }).get();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, CallerRunsChunksBesideTheWorkers) {
  // Two items, one worker that holds its item until the caller has run one:
  // the loop finishes only because the calling thread runs a chunk too.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<int> count{0};
  pool.parallel_for(
      2,
      [&](std::size_t) {
        if (std::this_thread::get_id() == caller)
          caller_ran = true;
        else
          while (!caller_ran) std::this_thread::yield();
        ++count;
      },
      /*chunk=*/1);
  EXPECT_TRUE(caller_ran.load());
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ExceptionOnTheCallerIsRethrownAfterTheWorkersFinish) {
  // Two items, one worker that holds its item until the caller has thrown:
  // the caller always runs the other item, and parallel_for must not return
  // (leaving the loop body dangling) before the worker is done with it.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  std::atomic<int> worker_done{0};
  EXPECT_THROW(pool.parallel_for(
                   2,
                   [&](std::size_t) {
                     if (std::this_thread::get_id() == caller) {
                       thrown = true;
                       throw std::runtime_error("boom");
                     }
                     while (!thrown) std::this_thread::yield();
                     ++worker_done;
                   },
                   /*chunk=*/1),
               std::runtime_error);
  const int done = worker_done.load();
  EXPECT_LE(done, 1);
  // The pool is idle and usable again.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(worker_done.load(), done);
}

TEST(Device, OneThreadDeviceRunsLoopsOnTheCallingThread) {
  // A Device of T threads starts T - 1 workers: a one-thread Device has
  // none, and runs every loop on its caller instead of handing it to a
  // worker and sleeping.
  Device device(1);
  EXPECT_EQ(device.num_threads(), 1u);
  EXPECT_EQ(device.pool().num_threads(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  int off_caller = 0;
  device.parallel_for(256, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) ++off_caller;
  });
  EXPECT_EQ(off_caller, 0);

  Device wide(3);
  EXPECT_EQ(wide.num_threads(), 3u);
  EXPECT_EQ(wide.pool().num_threads(), 2u);
}

TEST(Executor, RunAllRunsEveryLaneAndRethrows) {
  domain::Executor exec(3);
  std::vector<int> ran(3, 0);
  exec.run_all([&](std::size_t lane) { ran[lane] = static_cast<int>(lane) + 1; });
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_THROW(exec.run_all([](std::size_t lane) {
                 if (lane == 1) throw std::runtime_error("lane 1");
               }),
               std::runtime_error);
  // Lanes survive a job's exception.
  exec.run_all([&](std::size_t lane) { ran[lane] = 0; });
  EXPECT_EQ(ran, (std::vector<int>{0, 0, 0}));
}

TEST(Executor, LanesRunJobsInSubmissionOrder) {
  domain::Executor exec(3);
  ASSERT_EQ(exec.num_lanes(), 3u);
  std::vector<int> order;
  std::future<void> first = exec.run(1, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    order.push_back(1);
  });
  std::future<void> second = exec.run(1, [&] { order.push_back(2); });
  second.get();
  first.get();
  // Same lane means same thread: no data race on `order`, strict FIFO.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Executor, LanesRunConcurrently) {
  domain::Executor exec(2);
  domain::Channel<int> a_to_b, b_to_a;
  // Cross-lane rendezvous: deadlocks (and times out in ctest) unless the two
  // lanes genuinely run at the same time.
  std::future<void> a = exec.run(0, [&] {
    a_to_b.send(1);
    EXPECT_TRUE(b_to_a.recv().has_value());
  });
  std::future<void> b = exec.run(1, [&] {
    EXPECT_TRUE(a_to_b.recv().has_value());
    b_to_a.send(2);
  });
  a.get();
  b.get();
}

TEST(Channel, SendRecvTryRecvClose) {
  domain::Channel<int> ch;
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(7);
  ch.send(8);
  EXPECT_EQ(ch.recv().value(), 7);  // FIFO
  EXPECT_EQ(ch.try_recv().value(), 8);
  ch.close();
  EXPECT_TRUE(ch.closed());
  EXPECT_FALSE(ch.recv().has_value());  // closed + drained -> nullopt, no block
}

TEST(Channel, RecvBlocksUntilSend) {
  domain::Channel<int> ch;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ch.send(42);
  });
  EXPECT_EQ(ch.recv().value(), 42);
  producer.join();
}

TEST(LetExchange, RemainingCountsFollowActiveMask) {
  domain::InProcTransport transport(4);
  domain::LetExchange net(transport, {1, 0, 1, 1});  // rank 1 is empty
  EXPECT_EQ(net.remaining(0), 2u);
  EXPECT_EQ(net.remaining(1), 0u);
  EXPECT_EQ(net.remaining(2), 2u);
  EXPECT_FALSE(net.recv(1).has_value());  // inactive rank: returns immediately

  net.post(0, 2, {}, 0.0);
  net.post(3, 2, {}, 0.0);
  EXPECT_EQ(net.recv(2).value().src, 0);
  EXPECT_EQ(net.remaining(2), 1u);  // counts down as arrivals are consumed
  EXPECT_EQ(net.recv(2).value().src, 3);
  EXPECT_FALSE(net.recv(2).has_value());  // all expected LETs consumed
}

TEST(LetExchange, NoActiveRanksExpectsNothing) {
  domain::InProcTransport transport(2);
  domain::LetExchange net(transport, {0, 0});
  EXPECT_EQ(net.remaining(0), 0u);
  EXPECT_FALSE(net.recv(0).has_value());
}

TEST(LetExchange, CloseBeforeAllArrivalsFailsFast) {
  domain::InProcTransport transport(3);
  domain::LetExchange net(transport, {1, 1, 1});
  net.post(1, 0, {}, 0.0);
  net.close(0);  // one of rank 0's two expected LETs will never come
  EXPECT_EQ(net.recv(0).value().src, 1);  // pending messages still drain
  EXPECT_THROW(net.recv(0), std::logic_error);  // then throw, never block
}

TEST(LetExchange, AccountsWireBytesAndFrames) {
  domain::InProcTransport transport(2);
  domain::LetExchange net(transport, {1, 1});
  const std::size_t bytes = net.post(0, 1, {}, 0.0);
  EXPECT_GT(bytes, 0u);  // even an empty LET carries a frame header
  EXPECT_EQ(net.metrics(0).counter("wire.let.frames"), 1.0);
  EXPECT_EQ(net.metrics(0).counter("wire.let.bytes"), static_cast<double>(bytes));
  const auto msg = net.recv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->wire_bytes, bytes);
  EXPECT_GE(net.metrics(1).counter("wire.let.decode_s"), 0.0);
  // The importer books the frame's size into its LET size histogram.
  const auto& sizes = net.metrics(1).histograms.at("let.size.bytes");
  EXPECT_EQ(sizes.count, 1u);
  EXPECT_EQ(sizes.sum, static_cast<double>(bytes));
}

TEST(ThreadsFor, DefaultPartitionsHostAcrossRanks) {
  domain::SimConfig cfg;
  cfg.nranks = 4;
  EXPECT_EQ(domain::threads_for(cfg, 8), 2u);
  EXPECT_EQ(domain::threads_for(cfg, 16), 4u);
  EXPECT_EQ(domain::threads_for(cfg, 3), 1u);  // fewer cores than ranks: 1 each
  EXPECT_EQ(domain::threads_for(cfg, 1), 1u);  // 1-core host
  EXPECT_EQ(domain::threads_for(cfg, 0), 1u);  // unknown hardware_concurrency
  cfg.nranks = 1;
  EXPECT_EQ(domain::threads_for(cfg, 8), 8u);  // single rank owns the host
}

TEST(ThreadsFor, ExplicitRequestClampedToConcurrencyBudget) {
  domain::SimConfig cfg;
  cfg.nranks = 4;
  cfg.threads_per_rank = 16;
  EXPECT_EQ(domain::threads_for(cfg, 8), 2u);  // concurrent ranks: per-rank share
  cfg.threads_per_rank = 1;
  EXPECT_EQ(domain::threads_for(cfg, 8), 1u);  // under-asking is honored
}

}  // namespace
}  // namespace bonsai
