// Serving throughput and latency: the one load generator for the la::serve
// pipeline and its la::net TCP front end, on mixed small-job traffic (LU
// solves, SPD solves, QR factorizations). Three families:
//
//   saturated — jobs submitted back-to-back, throughput-bound. The
//     coalesced arm (ServeBatchMax from ilaenv) amortizes the per-flush
//     dispatch overhead over many units; the per-job arm (batch_max = 1)
//     pays it per unit. This pair is the coalescing win the roadmap tracks.
//   Poisson — open-loop exponential inter-arrivals at a fixed offered
//     rate, the regime where the dispatcher idles between arrivals and
//     each job is flushed with whatever arrived alongside it.
//   windowed — closed loop: C client threads each keep W jobs in flight,
//     straight into a serve::Server (transport 0) or through a loopback
//     net::Listener (transport 1), with client-observed latency. The
//     net-vs-in-process ratio is a tcp row's jobs/s over the inproc row's.
//     The server runs on defaults, so the LAPACK90_SERVE_* variables apply:
//       LAPACK90_SERVE_BATCH=16 bench_serve --benchmark_filter=Windowed
//
// p50/p95/p99 and jobs/s land in the JSON counters (BENCH_serve.json). A
// rejected or failed job fails its arm, and a failed arm fails the run.
//
// `bench_serve --smoke` is the ctest self-check: served results on a tiny
// mixed trace bit-identical to the direct driver loop, net results
// bit-identical to in-process ones, a lonely job completed by a partial
// flush within a bounded wait, and coalescing not materially slower than
// per-job execution. `bench_serve --net-smoke` runs only the net check.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_json_main.hpp"
#include "lapack90/lapack90.hpp"
#include "lapack90/net/net.hpp"

namespace {

using la::idx;
using la::serve::JobResult;
using clk = std::chrono::steady_clock;

/// One mixed trace: per-job kind (3/5 gesv, 1/5 posv, 1/5 geqrf), all at
/// the same small order, with pristine copies for per-run restore. Each
/// job owns an n x n A slot and an n-vector B slot (tau for geqrf).
struct Trace {
  idx n = 0, count = 0;
  std::vector<double> a0, b0, a, b;

  enum class Kind { gesv, posv, geqrf };
  [[nodiscard]] static Kind kind_of(idx i) {
    return i % 5 == 3 ? Kind::posv : i % 5 == 4 ? Kind::geqrf : Kind::gesv;
  }

  void init(idx count_, idx n_) {
    n = n_;
    count = count_;
    const auto an = static_cast<std::size_t>(n) * n;
    a0.resize(an * count);
    b0.resize(static_cast<std::size_t>(n) * count);
    la::Iseed seed = la::default_iseed();
    la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(a0.size()),
              a0.data());
    la::larnv(la::Dist::Uniform11, seed, static_cast<idx>(b0.size()),
              b0.data());
    for (idx e = 0; e < count; ++e) {
      double* entry = a0.data() + static_cast<std::size_t>(e) * an;
      if (kind_of(e) == Kind::posv) {
        // Symmetrize: diagonally dominant symmetric = positive definite.
        for (idx j = 0; j < n; ++j) {
          for (idx i2 = j + 1; i2 < n; ++i2) {
            entry[static_cast<std::size_t>(j) * n + i2] =
                entry[static_cast<std::size_t>(i2) * n + j];
          }
        }
      }
      for (idx d = 0; d < n; ++d) {
        entry[static_cast<std::size_t>(d) * n + d] += static_cast<double>(n);
      }
    }
    a = a0;
    b = b0;
  }

  void restore() {
    std::copy(a0.begin(), a0.end(), a.begin());
    std::copy(b0.begin(), b0.end(), b.begin());
  }

  [[nodiscard]] double* a_ptr(idx i) {
    return a.data() + static_cast<std::size_t>(i) * n * n;
  }
  [[nodiscard]] double* b_ptr(idx i) {
    return b.data() + static_cast<std::size_t>(i) * n;
  }

  [[nodiscard]] std::future<JobResult> submit(la::serve::Server& srv, idx i) {
    switch (kind_of(i)) {
      case Kind::posv:
        return srv.posv(la::Uplo::Lower, n, idx{1}, a_ptr(i), n, b_ptr(i), n);
      case Kind::geqrf:
        return srv.geqrf(n, n, a_ptr(i), n, b_ptr(i));
      default:
        return srv.gesv(n, idx{1}, a_ptr(i), n, b_ptr(i), n);
    }
  }

  [[nodiscard]] la::net::Client::Ticket submit(la::net::Client& cl, idx i) {
    switch (kind_of(i)) {
      case Kind::posv:
        return cl.posv_async(la::Uplo::Lower, n, idx{1}, a_ptr(i), n,
                             b_ptr(i), n);
      case Kind::geqrf:
        return cl.geqrf_async(n, n, a_ptr(i), n, b_ptr(i));
      default:
        return cl.gesv_async(n, idx{1}, a_ptr(i), n, b_ptr(i), n);
    }
  }

  /// Direct driver loop over the same (restored) data — the reference the
  /// served results must match bit-for-bit.
  void run_direct() {
    std::vector<idx> piv(static_cast<std::size_t>(n));
    for (idx i = 0; i < count; ++i) {
      switch (kind_of(i)) {
        case Kind::posv:
          la::lapack::posv(la::Uplo::Lower, n, idx{1}, a_ptr(i), n, b_ptr(i),
                           n);
          break;
        case Kind::geqrf:
          la::lapack::geqrf(n, n, a_ptr(i), n, b_ptr(i));
          break;
        default:
          la::lapack::gesv(n, idx{1}, a_ptr(i), n, piv.data(), b_ptr(i), n);
          break;
      }
    }
  }
};

/// Drive one full trace through a server. rate_jobs_s <= 0 means
/// saturated (back-to-back submission); otherwise open-loop Poisson
/// arrivals at the offered rate. Returns the number of failed jobs.
idx run_trace(la::serve::Server& srv, Trace& tr, double rate_jobs_s) {
  tr.restore();
  std::vector<std::future<JobResult>> futs;
  futs.reserve(static_cast<std::size_t>(tr.count));
  std::mt19937 rng(0x5e12f00d);
  std::exponential_distribution<double> gap(
      rate_jobs_s > 0 ? rate_jobs_s : 1.0);
  const auto start = std::chrono::steady_clock::now();
  double t_next = 0.0;
  for (idx i = 0; i < tr.count; ++i) {
    if (rate_jobs_s > 0) {
      t_next += gap(rng);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(t_next)));
    }
    futs.push_back(tr.submit(srv, i));
  }
  idx failed = 0;
  for (auto& f : futs) {
    if (f.get().info != 0) {
      ++failed;
    }
  }
  return failed;
}

/// Open-loop traffic through a server configured by `cfg` (its queue
/// deep enough for the whole trace); Arg0 = jobs per trace. Latency and
/// coalescing come from the server's own stats.
void bench_open_loop(benchmark::State& state, la::serve::Config cfg,
                     double rate_jobs_s) {
  Trace tr;
  tr.init(static_cast<idx>(state.range(0)), 8);
  cfg.queue_depth = 2 * tr.count;
  la::serve::Server srv(cfg);
  idx failed = 0;
  for (auto _ : state) {
    failed += run_trace(srv, tr, rate_jobs_s);
  }
  if (failed != 0) {
    state.SkipWithError("served jobs reported nonzero INFO");
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(tr.count) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  const la::serve::Stats s = srv.stats();
  state.counters["p50_us"] = s.p50_us();
  state.counters["p95_us"] = s.p95_us();
  state.counters["p99_us"] = s.p99_us();
  state.counters["max_us"] = s.max_us();
  state.counters["mean_batch"] = s.mean_batch_entries();
  state.counters["rejected"] = static_cast<double>(s.rejected_jobs);
}

/// Saturated mixed traffic; Arg0 = jobs per trace, Arg1 = batch_max
/// (1 = per-job execution, 0 = the ilaenv default width).
void BM_DServeSaturated(benchmark::State& state) {
  bench_open_loop(state, {.batch_max = static_cast<idx>(state.range(1))},
                  0.0);
}
BENCHMARK(BM_DServeSaturated)
    ->Args({2048, 0})   // coalesced at the default width
    ->Args({2048, 8})   // narrow coalescing
    ->Args({2048, 1})   // per-job execution
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Open-loop Poisson arrivals; Arg0 = jobs per trace, Arg1 = offered rate
/// (jobs/s). Latency percentiles are the quantity of interest.
void BM_DServePoisson(benchmark::State& state) {
  state.counters["offered/s"] = static_cast<double>(state.range(1));
  bench_open_loop(state, {}, static_cast<double>(state.range(1)));
}
BENCHMARK(BM_DServePoisson)
    ->Args({512, 2000})->Args({512, 8000})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// What a closed loop saw: per-job client-observed latency, with rejects
/// (serve::kInfoRejected) and other failures (any other nonzero INFO,
/// transport errors included) counted apart.
struct Tally {
  std::vector<double> lat_us;
  idx rejected = 0;
  idx failed = 0;

  void merge(const Tally& o) {
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    rejected += o.rejected;
    failed += o.failed;
  }
};

/// The windowed closed loop: submit jobs [first, first + count) through
/// `submit(i)`, keep at most `window` in flight, and resolve the oldest
/// through `wait(handle)`, which returns its JobResult. Serve futures and
/// net tickets both fit.
template <class Submit, class Wait>
void run_windowed(idx first, idx count, idx window, Submit submit, Wait wait,
                  Tally& tally) {
  using Handle = std::invoke_result_t<Submit&, idx>;
  std::deque<std::pair<Handle, clk::time_point>> inflight;
  for (idx i = first; i < first + count || !inflight.empty();) {
    if (i < first + count && static_cast<idx>(inflight.size()) < window) {
      const auto t0 = clk::now();
      inflight.emplace_back(submit(i++), t0);
      continue;
    }
    const idx info = wait(inflight.front().first).info;
    tally.lat_us.push_back(std::chrono::duration<double, std::micro>(
                               clk::now() - inflight.front().second)
                               .count());
    if (info == la::serve::kInfoRejected) {
      ++tally.rejected;
    } else if (info != 0) {
      ++tally.failed;
    }
    inflight.pop_front();
  }
}

/// Where a windowed pass sends its jobs: an in-process serve::Server, or
/// a loopback net::Listener with one net::Client per client thread. Both
/// run on defaults, so the LAPACK90_SERVE_* and LAPACK90_NET_* variables
/// apply.
struct Endpoint {
  Endpoint(bool tcp, idx clients_) : clients(clients_) {
    if (!tcp) {
      server = std::make_unique<la::serve::Server>();
      return;
    }
    listener = std::make_unique<la::net::Listener>();
    ok = listener->ok();
    for (idx c = 0; ok && c < clients; ++c) {
      conns.push_back(std::make_unique<la::net::Client>());
      ok = conns.back()->connect("127.0.0.1", listener->port());
    }
  }

  /// One pass over the restored trace, tallied into `into`: the jobs split
  /// into `clients` contiguous ranges, each driven by its own thread.
  void pass(Trace& tr, idx window, Tally& into) {
    tr.restore();
    std::vector<Tally> parts(static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    const idx per = tr.count / clients;
    for (idx c = 0; c < clients; ++c) {
      const idx first = c * per;
      const idx count = c + 1 == clients ? tr.count - first : per;
      Tally& t = parts[static_cast<std::size_t>(c)];
      threads.emplace_back([this, &tr, &t, c, first, count, window] {
        if (server) {
          run_windowed(
              first, count, window,
              [&](idx i) { return tr.submit(*server, i); },
              [](std::future<JobResult>& f) { return f.get(); }, t);
        } else {
          la::net::Client& cl = *conns[static_cast<std::size_t>(c)];
          run_windowed(
              first, count, window, [&](idx i) { return tr.submit(cl, i); },
              [&](la::net::Client::Ticket k) { return cl.wait(k); }, t);
        }
      });
    }
    for (std::size_t c = 0; c < threads.size(); ++c) {
      threads[c].join();
      into.merge(parts[c]);
    }
  }

  std::unique_ptr<la::serve::Server> server;
  std::unique_ptr<la::net::Listener> listener;
  std::vector<std::unique_ptr<la::net::Client>> conns;
  idx clients;
  bool ok = true;  ///< false when the listener or a connection failed
};

/// Closed-loop mixed traffic; Arg0 = transport (0 in-process, 1 loopback
/// TCP), Arg1 = client threads, Arg2 = jobs each client keeps in flight.
/// Any rejected or failed job fails the arm.
void BM_DServeWindowed(benchmark::State& state) {
  Trace tr;
  tr.init(8192, 8);
  Endpoint ep(state.range(0) == 1, static_cast<idx>(state.range(1)));
  if (!ep.ok) {
    state.SkipWithError("loopback listener/client setup failed");
    return;
  }
  Tally all;
  for (auto _ : state) {
    ep.pass(tr, static_cast<idx>(state.range(2)), all);
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(tr.count) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  std::sort(all.lat_us.begin(), all.lat_us.end());
  for (const std::size_t p : {50, 95, 99}) {
    if (!all.lat_us.empty()) {
      state.counters["p" + std::to_string(p) + "_us"] =
          all.lat_us[(all.lat_us.size() - 1) * p / 100];
    }
  }
  state.counters["rejected"] = static_cast<double>(all.rejected);
  state.counters["failed"] = static_cast<double>(all.failed);
  if (all.rejected + all.failed != 0) {
    state.SkipWithError("jobs were rejected or failed");
  }
}
BENCHMARK(BM_DServeWindowed)
    ->Args({0, 1, 256})  // in-process reference
    ->Args({1, 2, 256})  // loopback, window == the per-connection cap
    ->Args({1, 2, 128})  // loopback, the stackbench serve_closed shape
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Net half of the smoke. `tr` holds in-process served results; the same
/// trace goes over loopback TCP with both operands shipped back. The wire
/// moves bytes, never arithmetic, so every routine of the mix must match
/// in-process serving bit-for-bit, with no job rejected or failed.
struct NetCheck {
  bool identical = false;
  Tally tally;
  bool ok() const {
    return identical && tally.rejected == 0 && tally.failed == 0;
  }
};

NetCheck check_net(Trace& tr) {
  const std::vector<double> served_a = tr.a;
  const std::vector<double> served_b = tr.b;
  NetCheck c;
  if (Endpoint ep(/*tcp=*/true, /*clients=*/2); ep.ok) {
    ep.pass(tr, 16, c.tally);
    c.identical = tr.a == served_a && tr.b == served_b;
  }
  return c;
}

/// --net-smoke: only the net half, without the timing bound, so the wire
/// check has a ctest of its own (netbench_smoke).
int run_net_smoke() {
  Trace tr;
  tr.init(160, 8);
  la::serve::Server srv;
  const idx failed = run_trace(srv, tr, 0.0);
  const NetCheck net = check_net(tr);
  const bool ok = failed == 0 && net.ok();
  std::printf(
      "bench_serve --net-smoke (%lld mixed jobs of n=%lld): in-process "
      "failed=%lld, net bit-identical=%s (rejected %lld, failed %lld) -> "
      "%s\n",
      static_cast<long long>(tr.count), static_cast<long long>(tr.n),
      static_cast<long long>(failed), net.identical ? "yes" : "no",
      static_cast<long long>(net.tally.rejected),
      static_cast<long long>(net.tally.failed), ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

/// --smoke: served results bit-identical to the direct driver loop on a
/// mixed trace, net results bit-identical to the in-process ones, a lonely
/// job completes via a partial flush within a bounded wait, and
/// coalescing does not lose materially to per-job.
int run_smoke() {
  Trace tr;
  tr.init(160, 8);

  // Direct reference.
  tr.restore();
  tr.run_direct();
  const std::vector<double> ref_a = tr.a;
  const std::vector<double> ref_b = tr.b;

  // Served, coalesced: must match bit-for-bit.
  bool identical = false;
  idx failed = 0;
  {
    la::serve::Server srv;
    failed = run_trace(srv, tr, 0.0);
    identical = tr.a == ref_a && tr.b == ref_b;
  }
  const NetCheck net = check_net(tr);

  // A lonely job on a quiet server, far below the batch width: it must
  // complete as a partial flush the moment the queue runs dry. Bounded
  // wait, generous for a loaded host.
  bool lonely_ok = false;
  double lonely_ms = 0.0;
  {
    la::serve::Server srv(
        la::serve::Config{.queue_depth = 0, .batch_max = 1 << 19});
    tr.restore();
    const auto t0 = clk::now();
    auto fut = tr.submit(srv, 0);
    lonely_ok =
        fut.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
    const std::chrono::duration<double, std::milli> dt = clk::now() - t0;
    lonely_ms = dt.count();
    if (lonely_ok) {
      lonely_ok = fut.get().info == 0 && srv.stats().flush_deadline >= 1;
    }
  }

  // Coalesced vs per-job wall time on the same saturated trace: the median
  // of kRounds rounds per arm, the arms alternating (and taking turns to
  // go first) so a burst of load from other processes lands on both.
  // Generous bound — the throughput claim proper lives in the timed
  // benchmarks and EXPERIMENTS.md.
  constexpr int kRounds = 15;
  std::vector<double> coal_s, perjob_s;
  double width = 0.0;
  {
    la::serve::Server coal(
        la::serve::Config{.queue_depth = 2 * tr.count, .batch_max = 0});
    la::serve::Server perjob(
        la::serve::Config{.queue_depth = 2 * tr.count, .batch_max = 1});
    const auto timed = [&](la::serve::Server& srv, std::vector<double>& out) {
      const auto t0 = clk::now();
      run_trace(srv, tr, 0.0);
      out.push_back(std::chrono::duration<double>(clk::now() - t0).count());
    };
    for (int r = 0; r < kRounds; ++r) {
      if (r % 2 == 0) {
        timed(coal, coal_s);
        timed(perjob, perjob_s);
      } else {
        timed(perjob, perjob_s);
        timed(coal, coal_s);
      }
    }
    width = coal.stats().mean_batch_entries();
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double t_coal = median(coal_s);
  const double t_perjob = median(perjob_s);
  // With a real worker pool the coalesced arm must hold its own (the wide
  // flush is what feeds the pool). On a single-hardware-thread host both
  // arms do the same serial arithmetic and the wide flush only adds
  // working-set, so the bound is a loose pathology guard (e.g. it still
  // catches a dispatcher that stalls partial groups, a >10x miss).
  const double bound = la::hardware_threads() > 1 ? 1.2 : 4.0;
  const bool fast_enough = t_coal <= t_perjob * bound;

  const bool ok =
      identical && failed == 0 && net.ok() && lonely_ok && fast_enough;
  std::printf(
      "bench_serve --smoke (backend=%s, %lld mixed jobs of n=%lld): "
      "bit-identical=%s, failed=%lld, net bit-identical=%s (rejected "
      "%lld, failed %lld), lonely-job %.2f ms (partial flush %s), "
      "coalesced %.3f ms (width %.1f) vs per-job %.3f ms, medians of %d, "
      "ratio %.2fx (bound %.1fx) -> %s\n",
      la::thread_backend_name(), static_cast<long long>(tr.count),
      static_cast<long long>(tr.n), identical ? "yes" : "no",
      static_cast<long long>(failed), net.identical ? "yes" : "no",
      static_cast<long long>(net.tally.rejected),
      static_cast<long long>(net.tally.failed), lonely_ms,
      lonely_ok ? "ok" : "HUNG",
      t_coal * 1e3, width, t_perjob * 1e3, kRounds, t_perjob / t_coal, bound,
      ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }
  if (argc > 1 && std::strcmp(argv[1], "--net-smoke") == 0) {
    return run_net_smoke();
  }
  return la::bench::run_with_json_default(
      argc, argv, "BENCH_serve.json",
      "^BM_DServeSaturated/2048/(0|1)/real_time$");
}
