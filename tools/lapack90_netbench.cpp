// lapack90_netbench: loopback load generator for the la::net front end.
// Runs the same small-gesv job mix through two arms —
//
//   inproc — straight into a serve::Server (the PR-8 saturated pipeline:
//            a window of in-flight futures kept full),
//   net    — through a loopback TCP Listener with one or more Client
//            threads, each keeping its own submission window full —
//
// and reports throughput plus client-observed p50/p95/p99 latency for the
// net arm, the in-process baseline, and their ratio, as JSON
// (BENCH_net.json by default; see EXPERIMENTS.md). Every result is
// checked: each arm counts rejected jobs (serve::kInfoRejected) and other
// nonzero INFO values separately, prints both, and the run exits 1 when
// either count is nonzero.
//
//   lapack90_netbench [--jobs N] [--n N] [--nrhs N] [--clients C]
//                     [--window W] [--want-a] [--out FILE] [--smoke]
//
// --smoke runs a small correctness pass instead: every net result must be
// bit-identical to the in-process serve result for the same operands
// (exit 1 on any mismatch) — the CI hook that keeps the wire honest.
// By default the net arm returns only the solution block B (the factors
// stay server-side); --want-a ships both operands back.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "lapack90/net/net.hpp"

namespace {

using clk = std::chrono::steady_clock;

struct Options {
  int jobs = 20000;
  la::idx n = 8;
  la::idx nrhs = 1;
  int clients = 2;
  int window = 256;
  bool want_a = false;
  bool smoke = false;
  const char* out = "BENCH_net.json";
};

/// Deterministic well-conditioned gesv problem #k: diagonally dominant A,
/// dense B. Same generator for both arms so the arms are comparable (and,
/// in --smoke, bit-comparable).
void fill_problem(std::uint64_t k, la::idx n, la::idx nrhs,
                  std::vector<double>& a, std::vector<double>& b) {
  std::uint64_t s = k * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  const auto next = [&s]() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return static_cast<double>((s * 0x2545F4914F6CDD1DULL) >> 11) /
           9007199254740992.0;  // [0, 1)
  };
  a.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  b.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs));
  for (auto& v : a) {
    v = next() - 0.5;
  }
  for (la::idx i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
      static_cast<std::size_t>(i)] += static_cast<double>(n);
  }
  for (auto& v : b) {
    v = next() - 0.5;
  }
}

struct ArmResult {
  double jobs_per_s = 0.0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  int rejected = 0;  ///< jobs resolved with serve::kInfoRejected
  int failed = 0;    ///< any other nonzero INFO, or never sent (no link)

  void count(la::idx info) noexcept {
    if (info == la::serve::kInfoRejected) {
      ++rejected;
    } else if (info != 0) {
      ++failed;
    }
  }
};

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

void finish(ArmResult& r, std::vector<double>& lat, int jobs, double secs) {
  r.jobs_per_s = static_cast<double>(jobs) / secs;
  r.p50_us = quantile(lat, 0.50);
  r.p95_us = quantile(lat, 0.95);
  r.p99_us = quantile(lat, 0.99);
}

/// In-process arm: one thread keeps `window` jobs in flight in a server.
ArmResult run_inproc(const Options& opt) {
  la::serve::Server server;
  struct Slot {
    std::future<la::serve::JobResult> fut;
    clk::time_point t0;
    std::vector<double> a, b;
  };
  std::deque<Slot> inflight;
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(opt.jobs));
  ArmResult res;
  const auto start = clk::now();
  for (int k = 0; k < opt.jobs; ++k) {
    Slot s;
    fill_problem(static_cast<std::uint64_t>(k), opt.n, opt.nrhs, s.a, s.b);
    s.t0 = clk::now();
    s.fut = server.gesv(opt.n, opt.nrhs, s.a.data(), opt.n, s.b.data(), opt.n);
    inflight.push_back(std::move(s));
    while (static_cast<int>(inflight.size()) >= opt.window) {
      Slot done = std::move(inflight.front());
      inflight.pop_front();
      res.count(done.fut.get().info);
      lat.push_back(std::chrono::duration<double, std::micro>(clk::now() -
                                                              done.t0)
                        .count());
    }
  }
  while (!inflight.empty()) {
    Slot done = std::move(inflight.front());
    inflight.pop_front();
    res.count(done.fut.get().info);
    lat.push_back(
        std::chrono::duration<double, std::micro>(clk::now() - done.t0)
            .count());
  }
  const double secs =
      std::chrono::duration<double>(clk::now() - start).count();
  finish(res, lat, opt.jobs, secs);
  return res;
}

/// One net client worker: `jobs` problems, windowed.
void run_client(const Options& opt, int port, int jobs, std::uint64_t seed0,
                std::vector<double>& lat, ArmResult& res) {
  la::net::Client cl;
  if (!cl.connect("127.0.0.1", port)) {
    res.failed = jobs;
    return;
  }
  const std::uint8_t want =
      opt.want_a ? (la::net::wire::kWantA | la::net::wire::kWantB)
                 : la::net::wire::kWantB;
  struct Slot {
    la::net::Client::Ticket t = 0;
    clk::time_point t0;
    std::vector<double> a, b;
  };
  std::deque<Slot> inflight;
  lat.reserve(static_cast<std::size_t>(jobs));
  for (int k = 0; k < jobs; ++k) {
    Slot s;
    fill_problem(seed0 + static_cast<std::uint64_t>(k), opt.n, opt.nrhs, s.a,
                 s.b);
    s.t0 = clk::now();
    s.t = cl.gesv_async(opt.n, opt.nrhs, s.a.data(), opt.n, s.b.data(), opt.n,
                        want);
    inflight.push_back(std::move(s));
    while (static_cast<int>(inflight.size()) >= opt.window) {
      Slot done = std::move(inflight.front());
      inflight.pop_front();
      res.count(cl.wait(done.t).info);
      lat.push_back(std::chrono::duration<double, std::micro>(clk::now() -
                                                              done.t0)
                        .count());
    }
  }
  cl.flush();
  while (!inflight.empty()) {
    Slot done = std::move(inflight.front());
    inflight.pop_front();
    res.count(cl.wait(done.t).info);
    lat.push_back(
        std::chrono::duration<double, std::micro>(clk::now() - done.t0)
            .count());
  }
}

ArmResult run_net(const Options& opt) {
  ArmResult res;
  la::net::Listener listener;
  if (!listener.ok()) {
    res.failed = opt.jobs;
    return res;
  }
  const int port = listener.port();
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> lats(
      static_cast<std::size_t>(opt.clients));
  std::vector<ArmResult> parts(static_cast<std::size_t>(opt.clients));
  const int per = opt.jobs / opt.clients;
  const auto start = clk::now();
  for (int c = 0; c < opt.clients; ++c) {
    const int jobs = c == 0 ? opt.jobs - per * (opt.clients - 1) : per;
    threads.emplace_back([&, c, jobs] {
      run_client(opt, port, jobs, static_cast<std::uint64_t>(c) << 32,
                 lats[static_cast<std::size_t>(c)],
                 parts[static_cast<std::size_t>(c)]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const double secs =
      std::chrono::duration<double>(clk::now() - start).count();
  std::vector<double> lat;
  for (auto& l : lats) {
    lat.insert(lat.end(), l.begin(), l.end());
  }
  for (const ArmResult& p : parts) {
    res.rejected += p.rejected;
    res.failed += p.failed;
  }
  finish(res, lat, opt.jobs, secs);
  return res;
}

/// --smoke: the net path must reproduce the in-process serve result
/// bit-for-bit (both run the same la::batch executor; the wire moves
/// bytes, never arithmetic).
int run_smoke(const Options& opt) {
  la::net::Listener listener;
  la::net::Client cl;
  if (!listener.ok() || !cl.connect("127.0.0.1", listener.port())) {
    std::fprintf(stderr, "netbench --smoke: loopback setup failed\n");
    return 1;
  }
  la::serve::Server direct;
  int bad = 0;
  for (int k = 0; k < 64; ++k) {
    std::vector<double> a1, b1, a2, b2;
    fill_problem(static_cast<std::uint64_t>(k), opt.n, opt.nrhs, a1, b1);
    a2 = a1;
    b2 = b1;
    const la::serve::JobResult r1 =
        direct.gesv(opt.n, opt.nrhs, a1.data(), opt.n, b1.data(), opt.n)
            .get();
    const la::serve::JobResult r2 =
        cl.gesv(opt.n, opt.nrhs, a2.data(), opt.n, b2.data(), opt.n);
    if (r1.info != r2.info ||
        std::memcmp(a1.data(), a2.data(), a1.size() * sizeof(double)) != 0 ||
        std::memcmp(b1.data(), b2.data(), b1.size() * sizeof(double)) != 0) {
      ++bad;
    }
  }
  std::printf("netbench --smoke: %d/64 mismatches\n", bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_val = i + 1 < argc;
    if (std::strcmp(a, "--jobs") == 0 && has_val) {
      opt.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--n") == 0 && has_val) {
      opt.n = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--nrhs") == 0 && has_val) {
      opt.nrhs = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--clients") == 0 && has_val) {
      opt.clients = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(a, "--window") == 0 && has_val) {
      opt.window = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(a, "--want-a") == 0) {
      opt.want_a = true;
    } else if (std::strcmp(a, "--out") == 0 && has_val) {
      opt.out = argv[++i];
    } else if (std::strcmp(a, "--smoke") == 0) {
      opt.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--n N] [--nrhs N] [--clients C] "
                   "[--window W] [--want-a] [--out FILE] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.smoke) {
    return run_smoke(opt);
  }

  const ArmResult inproc = run_inproc(opt);
  const ArmResult net = run_net(opt);
  std::printf(
      "netbench: inproc %d rejected, %d failed | net %d rejected, %d "
      "failed\n",
      inproc.rejected, inproc.failed, net.rejected, net.failed);
  if (inproc.rejected + inproc.failed + net.rejected + net.failed != 0) {
    std::fprintf(stderr, "netbench: jobs were rejected or failed\n");
    return 1;
  }
  const double ratio =
      inproc.jobs_per_s > 0.0 ? net.jobs_per_s / inproc.jobs_per_s : 0.0;

  std::FILE* f = std::fopen(opt.out, "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"netbench\",\n"
        "  \"n\": %d, \"nrhs\": %d, \"jobs\": %d, \"clients\": %d, "
        "\"window\": %d, \"want_a\": %s,\n"
        "  \"inproc\": {\"jobs_per_s\": %.1f, \"p50_us\": %.2f, "
        "\"p95_us\": %.2f, \"p99_us\": %.2f},\n"
        "  \"net\":    {\"jobs_per_s\": %.1f, \"p50_us\": %.2f, "
        "\"p95_us\": %.2f, \"p99_us\": %.2f},\n"
        "  \"net_vs_inproc\": %.3f\n"
        "}\n",
        static_cast<int>(opt.n), static_cast<int>(opt.nrhs), opt.jobs,
        opt.clients, opt.window, opt.want_a ? "true" : "false",
        inproc.jobs_per_s, inproc.p50_us, inproc.p95_us, inproc.p99_us,
        net.jobs_per_s, net.p50_us, net.p95_us, net.p99_us, ratio);
    std::fclose(f);
  }
  std::printf(
      "netbench: inproc %.0f jobs/s (p50 %.1fus p99 %.1fus) | "
      "net %.0f jobs/s (p50 %.1fus p99 %.1fus) | ratio %.3f -> %s\n",
      inproc.jobs_per_s, inproc.p50_us, inproc.p99_us, net.jobs_per_s,
      net.p50_us, net.p99_us, ratio, opt.out);
  return 0;
}
