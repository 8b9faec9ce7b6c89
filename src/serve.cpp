// la::serve engine — see include/lapack90/serve/server.hpp for the
// pipeline contract (admission -> coalesce -> execute).
//
// Threading model. Each Server owns one dispatcher thread with its own
// submission queue and coalescing groups. Clients only touch the
// admission mutex and the queue mutex (each taken once per submit_many
// call, however many jobs it carries) and, when they took a future, the
// per-job promise. The dispatcher is the sole executor: it pops
// everything available, routes units into dtype/routine-keyed coalesce
// groups, and flushes every group before it waits again, one la::batch
// driver call per flush. The batch call fans its entries out across the
// library's worker pool internally (small-entry regime) or runs
// serial-outer with the threaded Level-3 inside (large entries). There is
// exactly one team at a time, so serving never oversubscribes the kernel
// threads. Because a job's completion block is only ever updated from
// the dispatcher, its counters are relaxed atomics for the cross-thread
// handoff only; the promise/future pair (or, for a completion hook, the
// hook's own synchronization) provides the synchronizes-with edge that
// makes the solved operand buffers and the per-entry INFO slots visible
// to the client.

#include "lapack90/serve/serve.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "lapack90/batch/batch.hpp"
#include "lapack90/batch/mixed.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"

namespace la::serve {

namespace {

using detail::clock;
using detail::JobShared;
using detail::Unit;
using u64 = std::uint64_t;

/// Lock-free mirror of the Stats snapshot; updated from the dispatcher
/// (and the submission path for the admission counters).
struct StatsBlock {
  std::atomic<u64> submitted_jobs{0};
  std::atomic<u64> submitted_entries{0};
  std::atomic<u64> rejected_jobs{0};
  std::atomic<u64> completed_jobs{0};
  std::atomic<u64> completed_entries{0};
  std::atomic<u64> failed_entries{0};
  std::atomic<u64> batches{0};
  std::atomic<u64> coalesced_entries{0};
  std::atomic<u64> flush_full{0};
  std::atomic<u64> flush_deadline{0};
  std::atomic<u64> max_latency_ns{0};
  std::array<std::atomic<u64>, kLatencyBuckets> latency_hist{};
  std::array<std::atomic<u64>, kLatencyBuckets> queue_hist{};

  static void record(std::array<std::atomic<u64>, kLatencyBuckets>& h,
                     std::int64_t ns) noexcept {
    const u64 v = ns > 0 ? static_cast<u64>(ns) : 0;
    int b = std::bit_width(v);  // [2^(b-1), 2^b) lands in bucket b
    if (b >= kLatencyBuckets) {
      b = kLatencyBuckets - 1;
    }
    h[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  }

  void note_max(std::int64_t ns) noexcept {
    const u64 v = ns > 0 ? static_cast<u64>(ns) : 0;
    u64 cur = max_latency_ns.load(std::memory_order_relaxed);
    while (v > cur && !max_latency_ns.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] Stats snapshot() const {
    Stats s;
    s.submitted_jobs = submitted_jobs.load(std::memory_order_relaxed);
    s.submitted_entries = submitted_entries.load(std::memory_order_relaxed);
    s.rejected_jobs = rejected_jobs.load(std::memory_order_relaxed);
    s.completed_jobs = completed_jobs.load(std::memory_order_relaxed);
    s.completed_entries = completed_entries.load(std::memory_order_relaxed);
    s.failed_entries = failed_entries.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.coalesced_entries = coalesced_entries.load(std::memory_order_relaxed);
    s.flush_full = flush_full.load(std::memory_order_relaxed);
    s.flush_deadline = flush_deadline.load(std::memory_order_relaxed);
    s.max_latency_ns = max_latency_ns.load(std::memory_order_relaxed);
    for (int b = 0; b < kLatencyBuckets; ++b) {
      s.latency_hist[static_cast<std::size_t>(b)] =
          latency_hist[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
      s.queue_hist[static_cast<std::size_t>(b)] =
          queue_hist[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
    return s;
  }

  void reset() noexcept {
    submitted_jobs.store(0, std::memory_order_relaxed);
    submitted_entries.store(0, std::memory_order_relaxed);
    rejected_jobs.store(0, std::memory_order_relaxed);
    completed_jobs.store(0, std::memory_order_relaxed);
    completed_entries.store(0, std::memory_order_relaxed);
    failed_entries.store(0, std::memory_order_relaxed);
    batches.store(0, std::memory_order_relaxed);
    coalesced_entries.store(0, std::memory_order_relaxed);
    flush_full.store(0, std::memory_order_relaxed);
    flush_deadline.store(0, std::memory_order_relaxed);
    max_latency_ns.store(0, std::memory_order_relaxed);
    for (auto& c : latency_hist) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& c : queue_hist) {
      c.store(0, std::memory_order_relaxed);
    }
  }
};

/// One coalesce bucket: units compatible for a single ragged batch call.
struct Group {
  Routine rt = Routine::gesv;
  Dtype dt = Dtype::d;
  Uplo uplo = Uplo::Lower;
  Trans trans = Trans::NoTrans;
  std::vector<Unit> units;
};

/// Executor-local descriptor arrays, reused across flushes so the steady
/// state performs no allocation (the batch-layer workspace discipline).
/// thread_local: each server's dispatcher gets its own set.
template <class T>
struct FlushScratch {
  std::vector<T*> aptrs, bptrs;
  std::vector<idx> arows, acols, alds, brows, bcols, blds, infos, iters;
};

template <class T>
FlushScratch<T>& flush_scratch() {
  thread_local FlushScratch<T> s;
  return s;
}

}  // namespace

struct Server::Engine {
  Config cfg;

  // Admission state: the in-flight bound on admitted entries.
  mutable std::mutex adm_mu;
  std::condition_variable cv_idle;
  idx in_flight = 0;  // admitted entries not yet completed (guarded by adm_mu)
  bool stopping = false;
  bool joined = false;

  // Dispatcher state: the submission queue (guarded by mu) and the
  // dispatcher-private coalescing groups.
  mutable std::mutex mu;
  std::condition_variable cv_work;
  std::deque<Unit> queue;
  bool draining = false;  // shutdown reached the queue (guarded by mu)
  StatsBlock stats;
  std::vector<Group> groups;
  std::thread dispatcher;

  // -- dispatcher --------------------------------------------------------

  void loop() {
    std::vector<Unit> local;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv_work.wait(lk, [&] { return draining || !queue.empty(); });
      if (queue.empty()) {
        break;  // draining, and everything admitted has been served
      }
      local.clear();
      while (!queue.empty()) {
        local.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      lk.unlock();
      route_and_flush(local);
      lk.lock();
    }
  }

  [[nodiscard]] Group& group_for(const Unit& u) {
    for (Group& g : groups) {
      if (g.rt == u.routine && g.dt == u.dtype && g.uplo == u.uplo &&
          g.trans == u.trans) {
        return g;
      }
    }
    Group g;
    g.rt = u.routine;
    g.dt = u.dtype;
    g.uplo = u.uplo;
    g.trans = u.trans;
    groups.push_back(std::move(g));
    return groups.back();
  }

  /// Route freshly popped units into groups and flush them all: a group
  /// flushes as soon as it holds batch_max units, and whatever partial
  /// groups remain flush once every popped unit is routed. Nothing waits
  /// for later arrivals, so coalescing comes only from the units that
  /// queued up while the previous flush ran.
  void route_and_flush(std::vector<Unit>& local) {
    const idx grain = batch::batch_grain();
    for (Unit& u : local) {
      const idx maxdim = std::max({u.am, u.an, u.bm, u.bn});
      if (maxdim >= grain) {
        // Large problem: the batch layer would run it serial-outer with
        // the threaded Level-3 inside; coalescing adds latency, not
        // throughput. Flush solo, immediately.
        Group solo;
        solo.rt = u.routine;
        solo.dt = u.dtype;
        solo.uplo = u.uplo;
        solo.trans = u.trans;
        solo.units.push_back(std::move(u));
        flush(solo, /*full=*/true);
        continue;
      }
      Group& g = group_for(u);
      g.units.push_back(std::move(u));
      if (static_cast<idx>(g.units.size()) >= cfg.batch_max) {
        flush(g, /*full=*/true);
      }
    }
    for (Group& g : groups) {
      if (!g.units.empty()) {
        flush(g, /*full=*/false);
      }
    }
  }

  /// One batched driver call over the group's units; `full` says whether
  /// it reached batch_max (or is a solo large unit) or the queue ran dry.
  void flush(Group& g, bool full) {
    const idx cnt = static_cast<idx>(g.units.size());
    // Record the flush before executing it: flush_typed fulfils the last
    // job's promise, and a client returning from future.get() must
    // already see this flush in Server::stats() (the promise/future edge
    // orders these relaxed stores for it).
    stats.batches.fetch_add(1, std::memory_order_relaxed);
    if (cnt > 1) {
      stats.coalesced_entries.fetch_add(static_cast<u64>(cnt),
                                        std::memory_order_relaxed);
    }
    (full ? stats.flush_full : stats.flush_deadline)
        .fetch_add(1, std::memory_order_relaxed);
    switch (g.dt) {
      case Dtype::s:
        flush_typed<float>(g);
        break;
      case Dtype::d:
        flush_typed<double>(g);
        break;
      case Dtype::c:
        flush_typed<std::complex<float>>(g);
        break;
      case Dtype::z:
        flush_typed<std::complex<double>>(g);
        break;
      case Dtype::count_:
        break;
    }
    g.units.clear();
    // Release the admission slots flush-by-flush rather than once per
    // dispatcher wake-up: every promise this flush fulfilled was set
    // above, so a client that resubmits the moment its future resolves
    // lags the admission counter by at most one flush width, not a whole
    // backlog.
    release_in_flight(cnt);
  }

  template <class T>
  void flush_typed(Group& g) {
    const idx cnt = static_cast<idx>(g.units.size());
    FlushScratch<T>& s = flush_scratch<T>();
    const auto size = static_cast<std::size_t>(cnt);
    s.aptrs.resize(size);
    s.bptrs.resize(size);
    s.arows.resize(size);
    s.acols.resize(size);
    s.alds.resize(size);
    s.brows.resize(size);
    s.bcols.resize(size);
    s.blds.resize(size);
    s.infos.assign(size, 0);
    s.iters.assign(size, 0);
    for (idx i = 0; i < cnt; ++i) {
      const Unit& u = g.units[static_cast<std::size_t>(i)];
      const auto ui = static_cast<std::size_t>(i);
      s.aptrs[ui] = static_cast<T*>(u.a);
      s.arows[ui] = u.am;
      s.acols[ui] = u.an;
      s.alds[ui] = u.lda;
      s.bptrs[ui] = static_cast<T*>(u.b);
      s.brows[ui] = u.bm;
      s.bcols[ui] = u.bn;
      s.blds[ui] = u.ldb;
    }
    const auto a = batch::MatrixBatch<T>::ragged(
        s.aptrs.data(), s.arows.data(), s.acols.data(), s.alds.data(), cnt);
    const auto b = batch::MatrixBatch<T>::ragged(
        s.bptrs.data(), s.brows.data(), s.bcols.data(), s.blds.data(), cnt);
    const std::int64_t start_ns = detail::to_ns(clock::now());
    switch (g.rt) {
      case Routine::gesv:
        batch::gesv_batch(a, b, s.infos.data());
        break;
      case Routine::posv:
        batch::posv_batch(g.uplo, a, b, s.infos.data());
        break;
      case Routine::gels:
        batch::gels_batch(g.trans, a, b, s.infos.data());
        break;
      case Routine::geqrf:
        batch::geqrf_batch(a, b, s.infos.data());
        break;
      case Routine::mixed_gesv:
        if constexpr (has_lower_precision_v<T>) {
          batch::mixed_gesv_batch(a, b, s.iters.data(), s.infos.data());
        } else {
          // No lower working precision for this dtype (s, c): the typed
          // Server methods cannot build such a unit, but a transport
          // front end could — fail the entries instead of the process.
          std::fill(s.infos.begin(), s.infos.end(), kInfoUnsupported);
        }
        break;
      case Routine::count_:
        break;
    }
    const std::int64_t done_ns = detail::to_ns(clock::now());
    const detail::JobShared* prev_job = nullptr;
    for (idx i = 0; i < cnt; ++i) {
      Unit& u = g.units[static_cast<std::size_t>(i)];
      const idx linfo = s.infos[static_cast<std::size_t>(i)];
      const idx liter = s.iters[static_cast<std::size_t>(i)];
      if (u.info_out != nullptr) {
        *u.info_out = linfo;
      }
      if (u.iter_out != nullptr) {
        *u.iter_out = liter;
      }
      JobShared& sh = *u.shared;
      if (u.entry_index == 0) {
        sh.iter0.store(liter, std::memory_order_relaxed);
      }
      if (linfo != 0) {
        detail::note_unit_failure(sh, u.entry_index);
        stats.failed_entries.fetch_add(1, std::memory_order_relaxed);
      }
      if (start_ns < sh.exec_start_ns.load(std::memory_order_relaxed)) {
        sh.exec_start_ns.store(start_ns, std::memory_order_relaxed);
      }
      if (done_ns > sh.done_ns.load(std::memory_order_relaxed)) {
        sh.done_ns.store(done_ns, std::memory_order_relaxed);
      }
      // Units of one job are contiguous within a flush (routing preserves
      // submission order), so a run
      // boundary marks one batch call. Tracked as a raw pointer because
      // the previous unit's shared handle has already been released by
      // the time we look back at it.
      if (&sh != prev_job) {
        sh.batches.fetch_add(1, std::memory_order_relaxed);
        prev_job = &sh;
      }
      if (sh.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        complete_job(sh);
      }
      u.shared.reset();
    }
  }

  void complete_job(JobShared& sh) {
    JobResult r;
    r.entries = sh.entries;
    r.batches = sh.batches.load(std::memory_order_relaxed);
    r.info = sh.first_fail.load(std::memory_order_relaxed);
    r.iter = sh.iter0.load(std::memory_order_relaxed);
    const std::int64_t submit_ns = detail::to_ns(sh.t_submit);
    const std::int64_t start_ns =
        sh.exec_start_ns.load(std::memory_order_relaxed);
    const std::int64_t done_ns = sh.done_ns.load(std::memory_order_relaxed);
    const std::int64_t total_ns = detail::to_ns(clock::now()) - submit_ns;
    r.queue_us = static_cast<double>(start_ns - submit_ns) * 1e-3;
    r.exec_us = static_cast<double>(done_ns - start_ns) * 1e-3;
    r.total_us = static_cast<double>(total_ns) * 1e-3;
    stats.completed_jobs.fetch_add(1, std::memory_order_relaxed);
    stats.completed_entries.fetch_add(static_cast<u64>(sh.entries),
                                      std::memory_order_relaxed);
    StatsBlock::record(stats.latency_hist, total_ns);
    StatsBlock::record(stats.queue_hist, start_ns - submit_ns);
    stats.note_max(total_ns);
    if (sh.promise) {
      sh.promise->set_value(r);
    }
    if (sh.on_done != nullptr) {
      sh.on_done(sh.on_done_ctx, r);
    }
  }

  explicit Engine(const Config& c) : cfg(resolve(c)) {
    dispatcher = std::thread([this] { loop(); });
  }

  [[nodiscard]] static Config resolve(const Config& c) noexcept {
    const auto knob = [](idx v, EnvSpec spec) {
      if (v <= 0) {
        v = ilaenv(spec, EnvRoutine::gemm, 0);
      }
      return std::clamp<idx>(v, 1, la::detail::env_spec_max(spec));
    };
    Config r;
    r.queue_depth = knob(c.queue_depth, EnvSpec::ServeQueueDepth);
    r.batch_max = knob(c.batch_max, EnvSpec::ServeBatchMax);
    return r;
  }

  void release_in_flight(idx cnt) {
    const std::lock_guard<std::mutex> lg(adm_mu);
    in_flight -= cnt;
    if (in_flight == 0) {
      cv_idle.notify_all();
    }
  }
};

Server::Server() : Server(Config{}) {}

Server::Server(const Config& cfg) : eng_(std::make_unique<Engine>(cfg)) {
  register_server(this);
}

Server::~Server() {
  shutdown();
  unregister_server(this);
}

Config Server::config() const noexcept { return eng_->cfg; }

void Server::wait_idle() {
  Engine& e = *eng_;
  std::unique_lock<std::mutex> lk(e.adm_mu);
  e.cv_idle.wait(lk, [&] { return e.in_flight == 0; });
}

void Server::shutdown() {
  Engine& e = *eng_;
  {
    std::lock_guard<std::mutex> lk(e.adm_mu);
    if (e.joined) {
      return;
    }
    e.stopping = true;  // no new admissions from here on
  }
  {
    std::lock_guard<std::mutex> lk(e.mu);
    e.draining = true;
  }
  e.cv_work.notify_all();
  e.dispatcher.join();
  std::lock_guard<std::mutex> lk(e.adm_mu);
  e.joined = true;
}

Stats Server::stats() const { return eng_->stats.snapshot(); }

void Server::reset_stats() { eng_->stats.reset(); }

std::future<JobResult> Server::submit_units(detail::Unit* units, idx count,
                                            CompletionFn on_done,
                                            void* on_done_ctx) {
  std::future<JobResult> fut;
  Submission job{units, count, on_done, on_done_ctx, &fut};
  submit_many({&job, 1});
  return fut;
}

void Server::submit_many(std::span<Submission> jobs) {
  Engine& e = *eng_;
  const clock::time_point now = clock::now();
  u64 entries = 0;
  for (Submission& j : jobs) {
    entries += static_cast<u64>(j.count);
    if (j.count == 0) {
      continue;  // completes below without a completion block
    }
    auto shared = std::make_shared<JobShared>();
    shared->entries = j.count;
    shared->remaining.store(j.count, std::memory_order_relaxed);
    shared->t_submit = now;
    shared->on_done = j.on_done;
    shared->on_done_ctx = j.on_done_ctx;
    if (j.future != nullptr) {
      // get_future() before the units can reach a dispatcher: the standard
      // does not allow get_future to race with set_value.
      *j.future = shared->promise.emplace().get_future();
    }
    for (idx i = 1; i < j.count; ++i) {
      j.units[i].entry_index = i;
      j.units[i].shared = shared;
    }
    j.units[0].entry_index = 0;
    j.units[0].shared = std::move(shared);
  }
  e.stats.submitted_jobs.fetch_add(static_cast<u64>(jobs.size()),
                                   std::memory_order_relaxed);
  e.stats.submitted_entries.fetch_add(entries, std::memory_order_relaxed);
  // One verdict per job, taken under the locks: an admitted job may
  // complete, and its hook free its units, before this call returns, so
  // its units cannot be asked afterwards. Short spans (every submit_units
  // call) keep the verdicts on the stack.
  std::array<std::uint8_t, 64> small{};
  std::vector<std::uint8_t> big;
  std::uint8_t* admitted = small.data();
  if (jobs.size() > small.size()) {
    big.assign(jobs.size(), 0);
    admitted = big.data();
  }
  bool queued = false;
  {
    // adm_mu before mu, the one order in which they are ever nested.
    // shutdown() sets `stopping` under adm_mu before it sets `draining`
    // under mu, so while both are held here and `stopping` is false the
    // dispatcher cannot be draining: an admitted unit always lands on a
    // live queue.
    const std::lock_guard<std::mutex> adm(e.adm_mu);
    const std::lock_guard<std::mutex> lk(e.mu);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      Submission& j = jobs[k];
      if (j.count == 0 || e.stopping ||
          e.in_flight > e.cfg.queue_depth - j.count) {
        continue;
      }
      e.in_flight += j.count;
      for (idx i = 0; i < j.count; ++i) {
        e.queue.push_back(std::move(j.units[i]));
      }
      admitted[k] = 1;
      queued = true;
    }
  }
  if (queued) {
    e.cv_work.notify_one();
  }
  // The rest complete here, on the submitting thread: zero-entry jobs,
  // and rejected jobs, whose units still hold their completion block.
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Submission& j = jobs[k];
    if (admitted[k] != 0) {
      continue;  // the dispatcher completes it
    }
    JobResult r;
    if (j.count == 0) {
      e.stats.completed_jobs.fetch_add(1, std::memory_order_relaxed);
      if (j.future != nullptr) {
        std::promise<JobResult> p;
        *j.future = p.get_future();
        p.set_value(r);
      }
    } else {
      const std::shared_ptr<JobShared> shared = std::move(j.units[0].shared);
      for (idx i = 1; i < j.count; ++i) {
        j.units[i].shared.reset();
      }
      e.stats.rejected_jobs.fetch_add(1, std::memory_order_relaxed);
      r.info = kInfoRejected;
      r.entries = j.count;
      if (shared->promise) {
        shared->promise->set_value(r);
      }
    }
    // The hook may free this job's units (a transport's job storage).
    if (j.on_done != nullptr) {
      j.on_done(j.on_done_ctx, r);
    }
  }
}

// ---------------------------------------------------------------------------
// Process-wide statistics registry: live servers are merged on demand; a
// destroyed server's totals move into the retired accumulator so
// serve::stats() is monotone across server lifetimes.

namespace {

struct Registry {
  std::mutex mu;
  std::vector<Server*> live;
  Stats retired;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void Server::register_server(Server* s) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.live.push_back(s);
}

void Server::unregister_server(Server* s) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.retired.merge(s->stats());
  r.live.erase(std::remove(r.live.begin(), r.live.end(), s), r.live.end());
}

Stats stats() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  Stats out = r.retired;
  for (const Server* s : r.live) {
    out.merge(s->stats());
  }
  return out;
}

void reset_stats() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.retired = Stats{};
  for (Server* s : r.live) {
    s->reset_stats();
  }
}

}  // namespace la::serve
