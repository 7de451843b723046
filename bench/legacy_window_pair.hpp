// Skeleton of the fixed-size job pool the pre-barrier DomainScheduler ran
// its windows on, kept ONLY as the baseline for bench_fatree_pdes's A/B
// comparison (BM_WindowBarrier vs BM_LegacyWindowPair). It keeps the
// pool's synchronization exactly: one mutex, a FIFO deque of type-erased
// jobs, a work-available condvar for the workers and an all-idle condvar
// for Wait(). It drops what the measurement never exercises: exception
// capture and the FNCC_THREADS lookup.
// Do not use outside bench/.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace fncc::bench {

class LegacyJobPool {
 public:
  using Job = std::function<void()>;

  explicit LegacyJobPool(int num_threads) {
    for (int i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }
  LegacyJobPool(const LegacyJobPool&) = delete;
  LegacyJobPool& operator=(const LegacyJobPool&) = delete;

  /// Runs every queued job, then joins.
  ~LegacyJobPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_available_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void Submit(Job job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(job));
    }
    work_available_.notify_one();
  }

  /// Blocks until every job submitted so far has finished.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }

 private:
  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      Job job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      lock.unlock();
      job();
      lock.lock();
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_idle_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<Job> queue_;
  std::size_t in_flight_ = 0;  // popped but not yet finished
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace fncc::bench
