#include "domain/executor.hpp"

#include <exception>

#include "util/check.hpp"

namespace bonsai::domain {

Executor::Executor(std::size_t num_lanes) {
  BNS_CHECK(num_lanes >= 1);
  lanes_.reserve(num_lanes);
  for (std::size_t i = 0; i < num_lanes; ++i)
    lanes_.push_back(std::make_unique<ThreadPool>(1));
}

std::future<void> Executor::run(std::size_t lane, std::function<void()> job) {
  BNS_CHECK(lane < lanes_.size());
  return lanes_[lane]->submit_task(std::move(job));
}

void Executor::run_all(const std::function<void(std::size_t)>& job) {
  std::vector<std::exception_ptr> errors(lanes_.size());
  std::vector<std::future<void>> done;
  done.reserve(lanes_.size());
  // Jobs trap their own exceptions (a lane must not throw), so every wait
  // completes; a failed submission still waits for the jobs already running.
  std::exception_ptr submit_error;
  try {
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
      done.push_back(run(lane, [&job, &errors, lane] {
        try {
          job(lane);
        } catch (...) {
          errors[lane] = std::current_exception();
        }
      }));
  } catch (...) {
    submit_error = std::current_exception();
  }
  for (std::future<void>& f : done) f.wait();
  if (submit_error) std::rethrow_exception(submit_error);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace bonsai::domain
