// stackbench/src/open_loop.hpp — the open-loop generator of the ladder's
// serve probe: Poisson arrivals at a fixed rate into a serve::Server
// through the public submit_units completion hook. Each job is timed from
// the moment it was *due*, so a stall charges its wait to every job
// scheduled behind it, and the generator's own lateness is recorded
// beside it.
#pragma once

#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cmath>
#include <memory>
#include <thread>

#include "common.hpp"
#include "mix.hpp"

namespace stackbench {

struct StepResult {
  std::int64_t jobs = 0, failed = 0;
  /// Latency percentiles over every job of the step, from its due time.
  double p50_us = 0.0, p99_us = 0.0;
  double lag_p99_us = 0.0;  ///< the generator's lateness over every arrival
};

class OpenLoop {
 public:
  OpenLoop(const Mix& mix, la::serve::Server& srv)
      : mix_(mix), srv_(srv), ring_(new Slot[kRing]) {
    // Wake from sleeps on time: the default 50 us timer slack would show
    // up as generator lateness.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    struct {
      std::uint32_t size, sched_policy;
      std::uint64_t sched_flags;
      std::int32_t sched_nice;
      std::uint32_t sched_priority;
      std::uint64_t sched_runtime, sched_deadline, sched_period;
      std::uint32_t util_min, util_max;
    } attr{};
    attr.size = sizeof attr;
    attr.sched_policy = 0;  // SCHED_OTHER
    attr.sched_runtime = 100'000;
    (void)syscall(SYS_sched_setattr, 0, &attr, 0);
  }

  StepResult run_step(double rate, double seconds, std::uint64_t seed,
                      Tracer& tr) {
    StepResult r;
    Rng rng(seed);
    Hist lat, lag;
    const std::int64_t start = now_ns() + 1'000'000;
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    double t = 0.0;
    std::uint64_t k = 0;
    for (;; ++k) {
      t += -std::log(rng.unit()) / rate;
      const std::int64_t due = start + static_cast<std::int64_t>(t * 1e9);
      if (due >= end) {
        break;
      }
      wait_until(due);
      Slot& s = ring_[k % kRing];
      if (s.busy) {
        while (s.done_ns.load(std::memory_order_acquire) == 0) {
          std::this_thread::yield();
        }
        collect(s, r, lat);
      }
      s.prob = rng.below(mix_.size());
      mix_.load(s.prob, s.a, s.b);
      s.due_ns = due;
      s.done_ns.store(0, std::memory_order_relaxed);
      s.busy = true;
      lag.add(static_cast<double>(now_ns() - due) * 1e-3);
      la::serve::detail::Unit u = Mix::unit(mix_.kind(s.prob), s.a, s.b);
      Scope sp(tr, "serve.submit_units", -1, static_cast<std::int64_t>(k));
      (void)srv_.submit_units(&u, 1, &OpenLoop::on_done, &s);
    }
    const std::int64_t give_up = now_ns() + 10'000'000'000;
    for (std::size_t i = 0; i < kRing; ++i) {
      Slot& s = ring_[i];
      if (!s.busy) {
        continue;
      }
      while (s.done_ns.load(std::memory_order_acquire) == 0 &&
             now_ns() < give_up) {
        std::this_thread::yield();
      }
      if (s.done_ns.load(std::memory_order_acquire) == 0) {
        // Never completed: count it failed and leave its buffers alone.
        ++r.jobs;
        ++r.failed;
        continue;
      }
      collect(s, r, lat);
    }
    r.p50_us = lat.percentile(50.0);
    r.p99_us = lat.percentile(99.0);
    r.lag_p99_us = lag.percentile(99.0);
    return r;
  }

 private:
  static constexpr std::size_t kRing = 8192;

  struct Slot {
    std::atomic<std::int64_t> done_ns{0};
    idx info = 0;
    std::int64_t due_ns = 0;
    std::size_t prob = 0;
    bool busy = false;
    double a[Mix::a_len];
    double b[Mix::b_len];
  };

  static void on_done(void* ctx, const la::serve::JobResult& res) {
    auto* s = static_cast<Slot*>(ctx);
    s->info = res.info;
    s->done_ns.store(now_ns(), std::memory_order_release);
  }

  static void wait_until(std::int64_t due) {
    for (;;) {
      const std::int64_t left = due - now_ns();
      if (left <= 0) {
        return;
      }
      if (left > 60'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 40'000));
      }
    }
  }

  void collect(Slot& s, StepResult& r, Hist& lat) {
    s.busy = false;
    ++r.jobs;
    const double us =
        static_cast<double>(s.done_ns.load(std::memory_order_relaxed) -
                            s.due_ns) *
        1e-3;
    lat.add(us);
    if (s.info != 0 || !mix_.matches(s.prob, s.a, s.b)) {
      ++r.failed;
    }
  }

  const Mix& mix_;
  la::serve::Server& srv_;
  std::unique_ptr<Slot[]> ring_;
};

}  // namespace stackbench
