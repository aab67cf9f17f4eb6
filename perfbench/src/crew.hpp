// A fixed crew of worker threads, each pinned to its own CPU, that the
// main thread hands one job at a time.  Workers live for the whole run, so
// each keeps one ds::thread_slot() (and one announcement descriptor per
// structure) from the first operation to the last, and the main thread can
// switch pmem modes between slices knowing no worker is running.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "repro/ds/detectable.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

inline bool pin_current_thread(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

class Crew {
 public:
  // Worker w runs on cpus[w] (unpinned where cpus[w] < 0).
  explicit Crew(const std::vector<int>& cpus)
      : n_(static_cast<int>(cpus.size())), slots_(cpus.size(), -1),
        pinned_(cpus.size(), 0) {
    threads_.reserve(cpus.size());
    for (int w = 0; w < n_; ++w) {
      threads_.emplace_back([this, w, cpu = cpus[w]] { loop(w, cpu); });
    }
    int r = 0;
    while ((r = ready_.load(std::memory_order_acquire)) < n_) {
      ready_.wait(r, std::memory_order_acquire);
    }
  }

  ~Crew() {
    quit_.store(true, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  int size() const { return n_; }
  // The announcement slot of worker w (what recover(slot) takes).
  int slot(int w) const { return slots_[static_cast<std::size_t>(w)]; }
  bool pinned(int w) const { return pinned_[static_cast<std::size_t>(w)] != 0; }
  // First exception a job threw, empty if none.
  const std::string& error() const { return error_; }

  // Runs job(w) on every worker; returns once all have returned.
  void run(const std::function<void(int)>& job) {
    start(job);
    wait_done();
  }

  // As run(), but raises `stop` after `seconds`.  Returns the wall time
  // from releasing the workers until the last one returned.
  double run_for(const std::function<void(int)>& job, double seconds,
                 std::atomic<bool>& stop) {
    const Clock::time_point t0 = Clock::now();
    start(job);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds)));
    stop.store(true, std::memory_order_relaxed);
    wait_done();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  void start(const std::function<void(int)>& job) {
    job_ = &job;
    done_.store(0, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
  }

  void wait_done() {
    int d = 0;
    while ((d = done_.load(std::memory_order_acquire)) < n_) {
      done_.wait(d, std::memory_order_acquire);
    }
  }

  void loop(int w, int cpu) {
    pinned_[static_cast<std::size_t>(w)] = pin_current_thread(cpu) ? 1 : 0;
    slots_[static_cast<std::size_t>(w)] = repro::ds::thread_slot();
    ready_.fetch_add(1, std::memory_order_release);
    ready_.notify_all();
    std::uint32_t seen = 0;
    for (;;) {
      gen_.wait(seen, std::memory_order_acquire);
      seen = gen_.load(std::memory_order_acquire);
      if (quit_.load(std::memory_order_relaxed)) return;
      try {
        (*job_)(w);
      } catch (const std::exception& e) {
        record_error(e.what());
      } catch (...) {
        record_error("unknown exception");
      }
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        done_.notify_all();
      }
    }
  }

  void record_error(const char* what) {
    bool expected = false;
    if (errored_.compare_exchange_strong(expected, true)) error_ = what;
  }

  const int n_;
  std::vector<int> slots_;
  std::vector<std::uint8_t> pinned_;  // bytes: written by their own worker
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<std::uint32_t> gen_{0};
  std::atomic<int> done_{0};
  std::atomic<int> ready_{0};
  std::atomic<bool> quit_{false};
  std::atomic<bool> errored_{false};
  std::string error_;
  std::vector<std::thread> threads_;  // last: joined before the rest die
};

}  // namespace perfbench
