// The per-layer ladder of the traced run. Every figure comes from spans
// recorded around the benchmark's own calls into one layer's public
// functions, bottom up:
//
//   blas   — la::blas::gemm at the trailing-update shape, one worker,
//            against the same-process FMA peak probe
//   lapack — la::lapack::getf2 on one panel; getrf / potrf / geqrf on the
//            dense_solve inputs at the default worker count and at one
//   core   — the pool's parallel efficiency on getrf
//   f90    — F90 la::gesv minus F77 la::f77::la_gesv on identical inputs
//   batch  — one 64-wide la::batch call per routine at n=8
//   serve  — serve_closed's mix and window straight into a serve::Server
//   net    — the same through net::Client -> net::Listener, plus an idle
//            round trip
//   serve  — again, open loop: Poisson arrivals at 4k jobs/s, with the
//            generator's lateness
//
// Outputs are verified here as well (INFO = 0; served and batched results
// bit-identical to the direct drivers) and count toward the run's failures.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "dense_inputs.hpp"
#include "mix.hpp"
#include "open_loop.hpp"

namespace stackbench {

namespace {

/// The ladder's own view of correctness.
struct Checks {
  Outcome& out;
  void check(bool ok, const char* what) {
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "ladder: %s failed verification\n", what);
    }
  }
};

/// Restores the environment's worker count when it goes out of scope.
class Workers {
 public:
  explicit Workers(idx n) : prev_(la::set_num_threads(n)) {}
  ~Workers() { la::set_num_threads(prev_); }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

 private:
  idx prev_;
};

void blas_layer(const Options& opt, const DenseInputs& in, Tracer& tr,
                Outcome& out) {
  const DenseSizes sz = DenseSizes::for_options(opt);
  // The trailing update of one 128-wide panel step at the workload's order.
  const idx m = sz.n, n = sz.n, k = opt.tiny ? 32 : 128;
  const DenseProblem& p = in.pick(DenseKind::gesv, 0);
  std::vector<double> c(p.a.begin(), p.a.end());
  const double* a = p.a.data();  // the first k columns: m x k
  const double* b = p.a.data();  // the first k rows: k x n
  const double peak = [&] {
    Scope s(tr, "blas.fma_probe");
    return fma_peak_gflops(opt.tiny ? 0.05 : 0.5);
  }();
  {
    Workers one(1);
    const int reps = opt.tiny ? 2 : 15;
    for (int r = 0; r < reps; ++r) {
      Scope s(tr, "blas.gemm");
      la::blas::gemm(la::Trans::NoTrans, la::Trans::NoTrans, m, n, k, -1.0, a,
                     m, b, m, 1.0, c.data(), m);
    }
  }
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const double bytes =
      8.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
             2.0 * static_cast<double>(m) * n);
  out.computed.push_back({"blas.gemm_flops_computed", flops, "flop"});
  out.computed.push_back({"blas.gemm_bytes_computed", bytes, "B"});
  const double gflops = flops / (tr.median_us("blas.gemm") * 1e3);
  out.add("blas.gemm_gflops", gflops, "GFLOP/s");
  out.add("blas.fma_peak_gflops", peak, "GFLOP/s");
  out.add("blas.gemm_peak_frac", gflops / peak, "ratio");
}

void lapack_layer(const Options& opt, const DenseInputs& in, Tracer& tr,
                  Outcome& out, Checks& chk) {
  const DenseSizes sz = DenseSizes::for_options(opt);
  const idx n = sz.n, ls_m = sz.ls_m;
  const DenseProblem& ge = in.pick(DenseKind::gesv, 0);
  const DenseProblem& po = in.pick(DenseKind::posv, 0);
  const DenseProblem& ls = in.pick(DenseKind::gels, 0);
  std::vector<double> work(ls.a.size());
  std::vector<double> tau(static_cast<std::size_t>(n));
  std::vector<idx> piv(static_cast<std::size_t>(n));

  // The serial panel factorization on the critical path of getrf.
  const idx nb = opt.tiny ? 32 : 128;
  for (int r = 0; r < (opt.tiny ? 2 : 7); ++r) {
    std::copy(ge.a.begin(), ge.a.end(), work.begin());
    Scope s(tr, "lapack.getf2");
    chk.check(la::lapack::getf2(n, nb, work.data(), n, piv.data()) == 0,
              "getf2");
  }
  out.add("lapack.getf2_panel_ms", tr.median_us("lapack.getf2") * 1e-3, "ms");

  const auto factor_all = [&](const char* getrf, const char* potrf,
                              const char* geqrf, int reps) {
    for (int r = 0; r < reps; ++r) {
      std::copy(ge.a.begin(), ge.a.end(), work.begin());
      {
        Scope s(tr, getrf);
        chk.check(la::lapack::getrf(n, n, work.data(), n, piv.data()) == 0,
                  "getrf");
      }
      std::copy(po.a.begin(), po.a.end(), work.begin());
      {
        Scope s(tr, potrf);
        chk.check(la::lapack::potrf(la::Uplo::Upper, n, work.data(), n) == 0,
                  "potrf");
      }
      std::copy(ls.a.begin(), ls.a.end(), work.begin());
      {
        Scope s(tr, geqrf);
        chk.check(la::lapack::geqrf(ls_m, n, work.data(), ls_m, tau.data()) ==
                      0,
                  "geqrf");
      }
    }
  };
  factor_all("lapack.getrf", "lapack.potrf", "lapack.geqrf",
             opt.tiny ? 2 : 7);
  {
    Workers one(1);
    factor_all("lapack.getrf_1w", "lapack.potrf_1w", "lapack.geqrf_1w",
               opt.tiny ? 2 : 5);
  }
  const double getrf = tr.median_us("lapack.getrf");
  const double getrf_1w = tr.median_us("lapack.getrf_1w");
  for (const char* name :
       {"lapack.getrf", "lapack.potrf", "lapack.geqrf", "lapack.getrf_1w",
        "lapack.potrf_1w", "lapack.geqrf_1w"}) {
    out.add(std::string(name) + "_ms", tr.median_us(name) * 1e-3, "ms");
  }
  out.add("core.getrf_parallel_eff",
          getrf_1w / (static_cast<double>(la::num_threads()) * getrf),
          "ratio");
}

/// F90 la::gesv minus F77 la_gesv on identical inputs, interleaved.
double f90_overhead_us(const DenseProblem& p, idx n, int reps, Tracer& tr,
                       const char* f90_name, const char* f77_name,
                       Checks& chk) {
  la::Matrix<double> a(n, n);
  la::Vector<double> b(n);
  std::vector<idx> piv(static_cast<std::size_t>(n));
  const auto nn = static_cast<std::size_t>(n);
  const auto load = [&] {
    for (std::size_t j = 0; j < nn; ++j) {
      std::copy_n(p.a.data() + j * static_cast<std::size_t>(p.m), nn,
                  a.data() + j * nn);
    }
    std::copy_n(p.b.data(), nn, b.data());
    for (std::size_t j = 0; j < nn; ++j) {
      a.data()[j * nn + j] += static_cast<double>(n);  // well conditioned
    }
  };
  for (int r = 0; r < reps; ++r) {
    idx info = 0;
    load();
    {
      Scope s(tr, f90_name);
      la::gesv(a, b, {}, &info);
    }
    chk.check(info == 0, "f90 gesv");
    load();
    {
      Scope s(tr, f77_name);
      la::f77::la_gesv(n, idx{1}, a.data(), n, piv.data(), b.data(), n, info);
    }
    chk.check(info == 0, "f77 gesv");
  }
  // Median of the paired differences: each pair ran back to back on the
  // same operands.
  const std::vector<double> f90 = tr.durations_us(f90_name);
  const std::vector<double> f77 = tr.durations_us(f77_name);
  std::vector<double> diff;
  for (std::size_t i = 0; i < std::min(f90.size(), f77.size()); ++i) {
    diff.push_back(f90[i] - f77[i]);
  }
  return median(diff);
}

void batch_layer(const Options& opt, const Mix& mix, Tracer& tr, Outcome& out,
                 Checks& chk) {
  constexpr idx kWidth = 64;
  const auto w = static_cast<std::size_t>(kWidth);
  const int reps = opt.tiny ? 5 : 400;
  struct Lane {
    Mix::Kind kind;
    const char* span;
    const char* metric;
  };
  for (const Lane lane :
       {Lane{Mix::Kind::gesv, "batch.gesv", "batch.gesv_us_per_entry"},
        Lane{Mix::Kind::posv, "batch.posv", "batch.posv_us_per_entry"},
        Lane{Mix::Kind::geqrf, "batch.geqrf", "batch.geqrf_us_per_entry"}}) {
    std::vector<std::size_t> probs;
    for (std::size_t i = 0; i < mix.size() && probs.size() < w; ++i) {
      if (mix.kind(i) == lane.kind) {
        probs.push_back(i);
      }
    }
    for (std::size_t i = 0; probs.size() < w; ++i) {
      probs.push_back(probs[i]);
    }
    std::vector<double> a(w * Mix::a_len), b(w * Mix::b_len);
    std::vector<idx> infos(w);
    const auto A = la::batch::MatrixBatch<double>::strided(
        a.data(), Mix::n, Mix::n, Mix::n, Mix::a_len, kWidth);
    const auto B = la::batch::MatrixBatch<double>::strided(
        b.data(), Mix::n, 1, Mix::n, Mix::b_len, kWidth);
    for (int r = 0; r < reps; ++r) {
      for (std::size_t e = 0; e < w; ++e) {
        mix.load(probs[e], &a[e * Mix::a_len], &b[e * Mix::b_len]);
      }
      idx info = 0;
      {
        Scope s(tr, lane.span);
        switch (lane.kind) {
          case Mix::Kind::gesv:
            info = la::batch::gesv_batch(A, B, infos.data());
            break;
          case Mix::Kind::posv:
            info = la::batch::posv_batch(la::Uplo::Lower, A, B, infos.data());
            break;
          case Mix::Kind::geqrf:
            info = la::batch::geqrf_batch(A, B, infos.data());
            break;
        }
      }
      if (r == 0) {
        bool same = info == 0;
        for (std::size_t e = 0; e < w; ++e) {
          same = same &&
                 mix.matches(probs[e], &a[e * Mix::a_len], &b[e * Mix::b_len]);
        }
        chk.check(same, lane.span);
      }
    }
    out.add(lane.metric, tr.median_us(lane.span) / static_cast<double>(w),
            "us");
  }
}

void serving_layers(const Options& opt, const Mix& mix, Tracer& tr,
                    Outcome& out, Checks& chk) {
  constexpr int kClients = 2, kWindow = 128;
  const double secs = opt.tiny ? 0.2 : 2.0;
  // Per-job spans stay off here (the loops run ~10^6 jobs); each loop is
  // one span, and throughput is its jobs over that span.
  Tracer per_job;
  double inproc_rate = 0.0;
  {
    la::serve::Server srv;
    LoopResult r;
    {
      Scope s(tr, "serve.closed_loop");
      r = closed_loop(mix, kClients, kWindow, secs, opt.seed, per_job,
                      "serve.submit", "serve.wait",
                      [&](int) { return InprocPort{srv}; });
    }
    chk.check(r.failed == 0, "serve in-process loop");
    const la::serve::Stats st = srv.stats();
    inproc_rate = static_cast<double>(r.jobs) /
                  (tr.median_us("serve.closed_loop") * 1e-6);
    out.add("serve.inproc_jobs_per_s", inproc_rate, "1/s");
    out.add("serve.mean_batch", st.mean_batch_entries(), "count");
    out.add("serve.deadline_flush_frac",
            st.batches == 0 ? 0.0
                            : static_cast<double>(st.flush_deadline) /
                                  static_cast<double>(st.batches),
            "ratio");
    out.add("serve.queue_p99_us", st.queue_us(0.99), "us");
    out.add("serve.rejected", static_cast<double>(st.rejected_jobs), "count");
  }
  {
    la::net::Listener listener;
    std::vector<std::unique_ptr<la::net::Client>> clients;
    bool ok = listener.ok();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<la::net::Client>());
      ok = ok && clients.back()->connect("127.0.0.1", listener.port());
    }
    chk.check(ok, "net connect");
    if (!ok) {
      return;
    }
    LoopResult r;
    {
      Scope s(tr, "net.closed_loop");
      r = closed_loop(mix, kClients, kWindow, secs, opt.seed, per_job,
                      "net.submit", "net.wait", [&](int c) {
                        return NetPort{*clients[static_cast<std::size_t>(c)]};
                      });
    }
    chk.check(r.failed == 0, "net loop");
    const la::net::ListenerStats ls = listener.stats();
    const double net_rate = static_cast<double>(r.jobs) /
                            (tr.median_us("net.closed_loop") * 1e-6);
    out.add("net.vs_inproc", net_rate / inproc_rate, "ratio");
    out.add("net.jobs_per_result_frame",
            ls.frames_out == 0 ? 0.0
                               : static_cast<double>(r.jobs) /
                                     static_cast<double>(ls.frames_out),
            "count");
    out.add("net.conn_rejects", static_cast<double>(ls.conn_rejects), "count");

    // Idle round trip: one synchronous job at a time on a quiet server.
    la::net::Client& cl = *clients[0];
    double a[Mix::a_len], b[Mix::b_len];
    const int reps = opt.tiny ? 20 : 1000;
    bool same = true;
    for (int i = 0; i < reps; ++i) {
      const std::size_t prob = static_cast<std::size_t>(i) % mix.size();
      mix.load(prob, a, b);
      NetPort port{cl};
      la::net::Client::Ticket t = 0;
      idx info = 0;
      {
        Scope s(tr, "net.rtt");
        t = port.submit(mix.kind(prob), a, b);
        info = port.wait(t);
      }
      same = same && info == 0 && mix.matches(prob, a, b);
    }
    chk.check(same, "net idle round trip");
    out.add("net.idle_rtt_us", tr.median_us("net.rtt"), "us");
  }
}

/// serve under deadline flushes rather than full groups: Poisson arrivals
/// at 4k jobs/s into a serve::Server for 2 s after a short warm-up.
void open_loop_probe(const Options& opt, const Mix& mix, Tracer& tr,
                     Outcome& out, Checks& chk) {
  la::serve::Server srv;
  OpenLoop gen(mix, srv);
  Tracer off;
  (void)gen.run_step(4000.0, opt.tiny ? 0.05 : 0.3, opt.seed ^ 0x3a3, off);
  const StepResult s =
      gen.run_step(4000.0, opt.tiny ? 0.2 : 2.0, opt.seed ^ 0x6e6, tr);
  srv.shutdown();  // drain before the generator's job buffers go
  chk.check(s.failed == 0, "open-loop probe");
  out.add("serve.open_4k_p50_us", s.p50_us, "us");
  out.add("serve.open_4k_p99_us", s.p99_us, "us");
  out.add("gen.lag_p99_us", s.lag_p99_us, "us");
}

}  // namespace

void run_ladder(const Options& opt, Tracer& tr, Outcome& out) {
  Checks chk{out};
  {
    const DenseInputs in(DenseSizes::for_options(opt), opt.seed);
    blas_layer(opt, in, tr, out);
    lapack_layer(opt, in, tr, out, chk);
    const DenseProblem& ge = in.pick(DenseKind::gesv, 0);
    out.add("f90.gesv_overhead_us_n8",
            f90_overhead_us(ge, 8, opt.tiny ? 100 : 20000, tr, "f90.gesv_n8",
                            "f77.la_gesv_n8", chk),
            "us");
    out.add("f90.gesv_overhead_us_n1024",
            f90_overhead_us(ge, ge.n, opt.tiny ? 3 : 9, tr, "f90.gesv_n1024",
                            "f77.la_gesv_n1024", chk),
            "us");
  }
  Mix mix;
  mix.build(opt.seed, 1024);
  batch_layer(opt, mix, tr, out, chk);
  serving_layers(opt, mix, tr, out, chk);
  open_loop_probe(opt, mix, tr, out, chk);
}

}  // namespace stackbench
