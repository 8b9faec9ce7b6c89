// dense_solve: one caller, F90 la::gesv / la::posv / la::gels on fresh
// n=1024 (2048x1024 for gels) matrices in a seeded order, with the library
// pool at its default worker count. Every solve is checked: INFO = 0 and a
// scaled backward error below the paper's Appendix F threshold.
#include <algorithm>
#include <cmath>
#include <limits>

#include "common.hpp"
#include "dense_inputs.hpp"
#include "lapack90/lapack90.hpp"

namespace stackbench {

namespace {

/// ||b - A x||_inf / (||A||_inf ||x||_inf max(m, n) eps) for column-major
/// A (m x n) and one right-hand side.
double backward_error(const DenseProblem& p, const double* x) {
  const auto m = static_cast<std::size_t>(p.m);
  const auto n = static_cast<std::size_t>(p.n);
  std::vector<double> r(p.b.begin(), p.b.end());
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = x[j];
    const double* col = p.a.data() + j * m;
    for (std::size_t i = 0; i < m; ++i) {
      r[i] -= col[i] * xj;
    }
  }
  double rn = 0.0, xn = 0.0;
  for (const double v : r) {
    rn = std::max(rn, std::abs(v));
  }
  for (std::size_t j = 0; j < n; ++j) {
    xn = std::max(xn, std::abs(x[j]));
  }
  const double denom = p.anorm * xn * static_cast<double>(std::max(m, n)) *
                       std::numeric_limits<double>::epsilon();
  return denom > 0.0 ? rn / denom : std::numeric_limits<double>::infinity();
}

/// The quiet share of rounds. A neighbour slows dense_solve by about a
/// quarter, not tenfold as it does the serving stack, and the p90 needs
/// 100-odd quiet requests; a third of the rounds gives both.
constexpr double kQuietShare = 1.0 / 3.0;
/// 102 rounds, so the quiet third holds >= 102 requests and its p90
/// keeps >= 10 samples beyond it.
constexpr std::int64_t kMinRequests = 306;

}  // namespace

Outcome run_dense_solve(const Options& opt, Tracer& tr) {
  const DenseSizes sz = DenseSizes::for_options(opt);
  DenseInputs in;
  Outcome out;
  out.add("setup_s", median_setup_s(9, [&] { in = DenseInputs(sz, opt.seed); }),
          "s");

  // Work copies: every request gets unfactored operands.
  la::Matrix<double> a_sq(sz.n, sz.n), a_ls(sz.ls_m, sz.n);
  la::Vector<double> b_sq(sz.n);
  la::Matrix<double> b_ls(sz.ls_m, 1);

  Rng order(opt.seed ^ 0xD3A5E5EEDULL);
  std::vector<Window> rounds;
  double flops = 0.0;
  const auto t0 = clk::now();
  std::int64_t req = 0;
  // Balanced rounds: each round of three requests runs each routine once,
  // in a seeded order, so every run carries the same mix and every round
  // the same work. A round is the window quiet_windows ranks.
  DenseKind round[3] = {DenseKind::gesv, DenseKind::posv, DenseKind::gels};
  while (seconds_since(t0) < opt.seconds || req % 3 != 0 ||
         (req < kMinRequests && !opt.tiny)) {
    if (req % 3 == 0) {
      for (int i = 2; i > 0; --i) {
        std::swap(round[i], round[order.below(static_cast<std::uint64_t>(i) + 1)]);
      }
      rounds.emplace_back();
    }
    const DenseKind kind = round[req % 3];
    const DenseProblem& p = in.pick(kind, order.below(DenseInputs::kVariants));
    Scope rs(tr, "request", -1, ++req);
    idx info = 0;
    const double* x = nullptr;
    double dt_us = 0.0;
    switch (kind) {
      case DenseKind::gesv: {
        std::copy(p.a.begin(), p.a.end(), a_sq.data());
        std::copy(p.b.begin(), p.b.end(), b_sq.data());
        const auto c0 = clk::now();
        {
          Scope s(tr, "f90.gesv", rs.id(), req);
          la::gesv(a_sq, b_sq, {}, &info);
        }
        dt_us = seconds_since(c0) * 1e6;
        x = b_sq.data();
        break;
      }
      case DenseKind::posv: {
        std::copy(p.a.begin(), p.a.end(), a_sq.data());
        std::copy(p.b.begin(), p.b.end(), b_sq.data());
        const auto c0 = clk::now();
        {
          Scope s(tr, "f90.posv", rs.id(), req);
          la::posv(a_sq, b_sq, la::Uplo::Upper, &info);
        }
        dt_us = seconds_since(c0) * 1e6;
        x = b_sq.data();
        break;
      }
      case DenseKind::gels: {
        std::copy(p.a.begin(), p.a.end(), a_ls.data());
        std::copy(p.b.begin(), p.b.end(), b_ls.data());
        const auto c0 = clk::now();
        {
          Scope s(tr, "f90.gels", rs.id(), req);
          la::gels(a_ls, b_ls, la::Trans::NoTrans, &info);
        }
        dt_us = seconds_since(c0) * 1e6;
        x = b_ls.data();
        break;
      }
    }
    ++out.attempted;
    // Round time is the time spent inside the library calls: operand
    // copies and verification are the benchmark's own work.
    rounds.back().secs += dt_us * 1e-6;
    rounds.back().lat_us.add(dt_us);
    bool ok = info == 0;
    if (ok) {
      Scope s(tr, "verify", rs.id(), req);
      ok = backward_error(p, x) < kAppendixFThreshold;
    }
    if (ok) {
      flops += p.flops;
    } else {
      ++out.failed;
    }
  }
  const QuietFigures q = quiet_windows(rounds, kQuietShare);
  out.add("jobs_per_s", q.jobs_per_s, "1/s");
  // Every round does the same work, so the quiet rounds' flop rate is
  // their job rate times the run's flops per verified job.
  out.add("gflops",
          q.jobs_per_s * flops /
              static_cast<double>(out.attempted - out.failed) * 1e-9,
          "GFLOP/s");
  out.add("latency_p50_us", q.lat_us.percentile(50.0), "us");
  // The highest percentile with >= 10 samples beyond it in the quiet
  // rounds at kMinRequests: p90.
  out.add("latency_tail_us", q.lat_us.percentile(90.0), "us");
  out.headline = q.jobs_per_s;
  return out;
}

}  // namespace stackbench
