// Fixed-size worker thread pool.
//
// The pool is the execution substrate for the Device abstraction (see
// device.hpp). It intentionally supports exactly the two patterns the tree
// pipeline needs: fire-and-wait task batches and counter-based parallel_for.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bonsai {

class ThreadPool {
 public:
  // Starts exactly `num_threads` workers. A pool without workers runs
  // parallel_for inline and accepts no submitted tasks.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  // Enqueue one task. Tasks must not throw (they run on worker threads); the
  // pool terminates on escaped exceptions by design.
  void submit(std::function<void()> task);

  // Enqueue one task and obtain a completion future — the completion signal
  // the async rank executor builds on. The future becomes ready when the
  // task returns; like submit(), the task must not throw.
  std::future<void> submit_task(std::function<void()> task);

  // Block until every submitted task has finished.
  void wait_idle();

  // Run fn(i) for i in [0, n), dynamically chunked over the workers and the
  // calling thread, which runs chunks too instead of sleeping, and block
  // until complete. fn must be safe to invoke concurrently. An exception fn
  // throws on the calling thread stops the loop and is rethrown once the
  // workers are done; on a worker it terminates, like any task.
  //
  // Deadlock safety: when called from one of this pool's own worker threads
  // or from inside another parallel_for of this pool (a nested parallel_for
  // would block in wait_idle while occupying a thread the queue needs —
  // guaranteed fatal on a one-worker pool, i.e. any 1-core host), or when
  // the pool has no workers, the loop runs inline on the caller instead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t chunk = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace bonsai
