// Thread runtime for the Level-3 BLAS — see include/lapack90/core/parallel.hpp.
//
// detail::parallel_run hands chunks to a persistent std::thread pool, spun up
// lazily on first use. The calling thread participates as tid 0; top-level
// parallel_run calls are serialized against each other (one team at a time).

#include "lapack90/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace la {

idx hardware_threads() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<idx>(hc);
}

const char* thread_backend_name() noexcept {
  return hardware_threads() > 1 ? "std::thread" : "serial";
}

namespace detail {

namespace {

thread_local bool t_in_parallel = false;

// How long an idle worker, and a caller waiting for workers that claimed a
// chunk, poll before sleeping on a condition variable. The serving path
// issues back-to-back regions of a few microseconds each (one flush of
// small batch entries); paying a futex wake and sleep per region made a
// coalesced flush slower than running its jobs one by one. 50 us covers
// the gap between such regions and bounds what an idle pool burns.
constexpr auto kSpin = std::chrono::microseconds(50);

template <class Pred>
void spin_until(Pred ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void run(idx nchunks, idx nthreads,
           const std::function<void(idx, int)>& body) noexcept {
    // One team at a time; concurrent top-level callers queue up here.
    std::lock_guard<std::mutex> team(team_mutex_);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      body_ = &body;
      nchunks_ = nchunks;
      next_.store(0, std::memory_order_relaxed);
      participants_ = std::min<idx>(nthreads - 1,
                                    static_cast<idx>(workers_.size()));
      generation_.fetch_add(1, std::memory_order_release);
    }
    work_cv_.notify_all();
    // The caller is tid 0 and works alongside the pool. Once its drain
    // returns every chunk is claimed, so only the workers that joined
    // (active_) can still be running one. A worker joins under mutex_, so
    // one that takes it after the check below sees the chunks gone; the
    // spin only saves the condvar sleep.
    drain(0);
    spin_until([&] { return active_.load(std::memory_order_acquire) == 0; });
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] {
      return active_.load(std::memory_order_relaxed) == 0;
    });
    body_ = nullptr;
  }

 private:
  ThreadPool() {
    const idx n = hardware_threads() - 1;
    workers_.reserve(static_cast<std::size_t>(n > 0 ? n : 0));
    for (idx w = 0; w < n; ++w) {
      workers_.emplace_back([this, w] { worker_loop(static_cast<int>(w)); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_.store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    for (auto& t : workers_) {
      t.join();
    }
  }

  // noexcept: a body that throws terminates the process. Unwinding here
  // would leave t_in_parallel set and the other team members running a
  // body whose caller has gone.
  void drain(int tid) noexcept {
    t_in_parallel = true;
    for (idx i = next_.fetch_add(1, std::memory_order_relaxed); i < nchunks_;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      (*body_)(i, tid);
    }
    t_in_parallel = false;
  }

  void worker_loop(int windex) {
    std::uint64_t seen = 0;
    for (;;) {
      spin_until([&] {
        return generation_.load(std::memory_order_acquire) != seen ||
               stop_.load(std::memory_order_relaxed);
      });
      std::unique_lock<std::mutex> lk(mutex_);
      work_cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) != seen;
      });
      if (stop_.load(std::memory_order_relaxed)) {
        return;
      }
      seen = generation_.load(std::memory_order_relaxed);
      // Not picked for this team, or woke after the chunks were all
      // claimed (the caller may already have returned): wait for the next.
      if (windex >= participants_ ||
          next_.load(std::memory_order_relaxed) >= nchunks_) {
        continue;
      }
      active_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      drain(windex + 1);
      lk.lock();
      if (active_.fetch_sub(1, std::memory_order_release) == 1) {
        done_cv_.notify_one();
      }
    }
  }

  std::mutex team_mutex_;
  // mutex_ guards the region fields below and every change of active_,
  // generation_ and stop_; the atomics let the spin loops read them
  // without it.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(idx, int)>* body_ = nullptr;
  std::atomic<idx> next_{0};
  idx nchunks_ = 0;
  idx participants_ = 0;
  std::atomic<idx> active_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace

idx default_thread_count() noexcept {
  // Shared hardened reader (see detail::env_knob): a malformed or absurd
  // LAPACK90_NUM_THREADS falls back to 0 = "unset" rather than, e.g.,
  // LONG_MAX truncated to a negative team size.
  static const idx cached = [] {
    const idx n = env_knob("LAPACK90_NUM_THREADS", idx{1} << 15, 0);
    return n > 0 ? n : hardware_threads();
  }();
  return cached;
}

bool in_parallel_region() noexcept { return t_in_parallel; }

void parallel_run(idx nchunks, idx nthreads,
                  const std::function<void(idx, int)>& body) noexcept {
  if (hardware_threads() <= 1 || nthreads <= 1) {
    for (idx i = 0; i < nchunks; ++i) {
      body(i, 0);
    }
    return;
  }
  ThreadPool::instance().run(nchunks, nthreads, body);
}

}  // namespace detail
}  // namespace la
