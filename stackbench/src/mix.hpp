// stackbench/src/mix.hpp — the n=8 serving mix (3/5 gesv, 1/5 posv,
// 1/5 geqrf, the bench_serve trace) with the direct-driver reference for
// every problem, plus the windowed closed loop both serving workloads and
// the ladder drive it through.
#pragma once

#include <cstring>
#include <thread>
#include <vector>

#include "common.hpp"
#include "lapack90/lapack90.hpp"

namespace stackbench {

using la::idx;

class Mix {
 public:
  static constexpr idx n = 8;
  static constexpr std::size_t a_len = static_cast<std::size_t>(n * n);
  static constexpr std::size_t b_len = static_cast<std::size_t>(n);
  enum class Kind : std::uint8_t { gesv, posv, geqrf };

  /// `count` seeded problems and their la::lapack reference results.
  void build(std::uint64_t seed, std::size_t count) {
    Rng rng(seed);
    kind_.resize(count);
    a0_.resize(count * a_len);
    b0_.resize(count * b_len);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t r = rng.below(5);
      kind_[i] = r < 3 ? Kind::gesv : (r == 3 ? Kind::posv : Kind::geqrf);
      double* a = &a0_[i * a_len];
      for (std::size_t e = 0; e < a_len; ++e) {
        a[e] = rng.sym();
      }
      if (kind_[i] == Kind::posv) {
        for (idx j = 0; j < n; ++j) {
          for (idx k = j + 1; k < n; ++k) {
            a[j * n + k] = a[k * n + j];
          }
        }
      }
      for (idx d = 0; d < n; ++d) {
        a[d * n + d] += static_cast<double>(n);
      }
      for (std::size_t e = 0; e < b_len; ++e) {
        b0_[i * b_len + e] = rng.sym();
      }
    }
    a_ref_ = a0_;
    b_ref_ = b0_;
    idx piv[n];
    for (std::size_t i = 0; i < count; ++i) {
      double* a = &a_ref_[i * a_len];
      double* b = &b_ref_[i * b_len];
      switch (kind_[i]) {
        case Kind::gesv:
          la::lapack::gesv(n, idx{1}, a, n, piv, b, n);
          break;
        case Kind::posv:
          la::lapack::posv(la::Uplo::Lower, n, idx{1}, a, n, b, n);
          break;
        case Kind::geqrf:
          la::lapack::geqrf(n, n, a, n, b);
          break;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return kind_.size(); }
  [[nodiscard]] Kind kind(std::size_t i) const { return kind_[i]; }

  /// Copy problem i's pristine operands into a job's buffers.
  void load(std::size_t i, double* a, double* b) const {
    std::memcpy(a, &a0_[i * a_len], a_len * sizeof(double));
    std::memcpy(b, &b0_[i * b_len], b_len * sizeof(double));
  }

  /// Served == direct: both operands bit-identical to the reference.
  [[nodiscard]] bool matches(std::size_t i, const double* a,
                             const double* b) const {
    return std::memcmp(a, &a_ref_[i * a_len], a_len * sizeof(double)) == 0 &&
           std::memcmp(b, &b_ref_[i * b_len], b_len * sizeof(double)) == 0;
  }

  /// Nominal LAPACK flop count of one problem of kind k (nrhs = 1).
  [[nodiscard]] static double flops(Kind k) {
    const double nn = static_cast<double>(n);
    switch (k) {
      case Kind::gesv:
        return 2.0 / 3.0 * nn * nn * nn + 2.0 * nn * nn;
      case Kind::posv:
        return 1.0 / 3.0 * nn * nn * nn + 2.0 * nn * nn;
      case Kind::geqrf:
        return 4.0 / 3.0 * nn * nn * nn;
    }
    return 0.0;
  }

  /// A type-erased serving unit for problem kind k over (a, b).
  [[nodiscard]] static la::serve::detail::Unit unit(Kind k, double* a,
                                                    double* b) {
    la::serve::detail::Unit u;
    u.routine = k == Kind::gesv   ? la::serve::Routine::gesv
                : k == Kind::posv ? la::serve::Routine::posv
                                  : la::serve::Routine::geqrf;
    u.dtype = la::serve::Dtype::d;
    u.uplo = la::Uplo::Lower;
    u.a = a;
    u.am = n;
    u.an = n;
    u.lda = n;
    u.b = b;
    u.bm = n;
    u.bn = 1;
    u.ldb = n;
    return u;
  }

 private:
  std::vector<Kind> kind_;
  std::vector<double> a0_, b0_, a_ref_, b_ref_;
};

/// Through a net::Client: one ticket per job.
struct NetPort {
  la::net::Client& cl;
  using Handle = la::net::Client::Ticket;
  Handle submit(Mix::Kind k, double* a, double* b) {
    switch (k) {
      case Mix::Kind::gesv:
        return cl.gesv_async(Mix::n, idx{1}, a, Mix::n, b, Mix::n);
      case Mix::Kind::posv:
        return cl.posv_async(la::Uplo::Lower, Mix::n, idx{1}, a, Mix::n, b,
                             Mix::n);
      case Mix::Kind::geqrf:
        return cl.geqrf_async(Mix::n, Mix::n, a, Mix::n, b);
    }
    return 0;
  }
  idx wait(Handle& h) { return cl.wait(h).info; }
};

/// Straight into a serve::Server: one future per job.
struct InprocPort {
  la::serve::Server& srv;
  using Handle = std::future<la::serve::JobResult>;
  Handle submit(Mix::Kind k, double* a, double* b) {
    la::serve::detail::Unit u = Mix::unit(k, a, b);
    return srv.submit_units(&u, 1);
  }
  idx wait(Handle& h) { return h.get().info; }
};

/// One client's share of a closed loop.
struct LoopTally {
  std::int64_t jobs = 0, failed = 0;
  double flops = 0.0;
  /// Latencies of the jobs that completed in each kWindowNs window.
  std::vector<Hist> lat_us;
  Tracer tr;
};

/// Completions are counted per window of this length, so one stall (of
/// this process or a neighbour on the host) moves one window only.
inline constexpr std::int64_t kWindowNs = 250'000'000;

/// Keep `window` jobs in flight through `port` until `deadline`, then
/// drain. Every completed job is checked bit-for-bit against the mix's
/// direct-driver reference; a nonzero INFO or a mismatch counts as failed.
template <class Port>
void window_loop(const Mix& mix, Port port, int window, clk::time_point deadline,
                 std::uint64_t seed, LoopTally& out, const char* submit_name,
                 const char* wait_name, std::int64_t t0_ns) {
  struct Slot {
    typename Port::Handle h{};
    std::size_t prob = 0;
    std::int64_t t0 = 0;
    std::int64_t req = 0;
    double a[Mix::a_len];
    double b[Mix::b_len];
  };
  Rng rng(seed);
  // FIFO ring: jobs retire in submission order.
  std::vector<Slot> ring(static_cast<std::size_t>(window));
  std::size_t head = 0, live = 0;
  const auto retire = [&]() {
    Slot& s = ring[head];
    head = (head + 1) % ring.size();
    --live;
    idx info = 0;
    {
      Scope sp(out.tr, wait_name, -1, s.req);
      info = port.wait(s.h);
    }
    const std::int64_t done = now_ns();
    const auto w = static_cast<std::size_t>((done - t0_ns) / kWindowNs);
    if (out.lat_us.size() <= w) {
      out.lat_us.resize(w + 1);
    }
    out.lat_us[w].add(static_cast<double>(done - s.t0) * 1e-3);
    ++out.jobs;
    if (info != 0 || !mix.matches(s.prob, s.a, s.b)) {
      ++out.failed;
    } else {
      out.flops += Mix::flops(mix.kind(s.prob));
    }
  };
  std::int64_t req = 0;
  while (clk::now() < deadline) {
    if (live == ring.size()) {
      retire();
    }
    Slot& s = ring[(head + live) % ring.size()];
    ++live;
    s.prob = rng.below(mix.size());
    s.req = ++req;
    mix.load(s.prob, s.a, s.b);
    s.t0 = now_ns();
    Scope sp(out.tr, submit_name, -1, s.req);
    s.h = port.submit(mix.kind(s.prob), s.a, s.b);
  }
  while (live > 0) {
    retire();
  }
}

/// Merged result of a multi-client closed loop.
struct LoopResult {
  std::int64_t jobs = 0, failed = 0;
  double flops = 0.0, secs = 0.0;
  std::vector<Hist> lat_us;  ///< by completion window

  /// The full windows: the first (warming) and the last (draining) left
  /// out. A loop too short for a full window is one window of its length.
  [[nodiscard]] std::vector<Window> windows() const {
    if (lat_us.size() < 3) {
      Window all{secs, {}};
      for (const Hist& h : lat_us) {
        all.lat_us.merge(h);
      }
      return {all};
    }
    std::vector<Window> w;
    for (std::size_t i = 1; i + 1 < lat_us.size(); ++i) {
      w.push_back({static_cast<double>(kWindowNs) * 1e-9, lat_us[i]});
    }
    return w;
  }
};

/// Run `clients` threads, each through the port `make_port(c)` returns.
/// The span names must be string literals (spans keep the pointer).
template <class MakePort>
LoopResult closed_loop(const Mix& mix, int clients, int window, double seconds,
                       std::uint64_t seed, Tracer& tr, const char* submit_name,
                       const char* wait_name, MakePort make_port) {
  std::vector<LoopTally> tally(static_cast<std::size_t>(clients));
  for (auto& t : tally) {
    t.tr.enabled = tr.enabled;
    t.tr.capacity = tr.capacity;
  }
  const auto t0 = clk::now();
  const std::int64_t t0_ns = now_ns();
  const auto deadline =
      t0 + std::chrono::duration_cast<clk::duration>(
               std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        window_loop(mix, make_port(c), window, deadline,
                    seed * 1000003ULL + static_cast<std::uint64_t>(c),
                    tally[static_cast<std::size_t>(c)], submit_name,
                    wait_name, t0_ns);
      });
    }
  }
  LoopResult r;
  r.secs = seconds_since(t0);
  for (std::size_t c = 0; c < tally.size(); ++c) {
    r.jobs += tally[c].jobs;
    r.failed += tally[c].failed;
    r.flops += tally[c].flops;
    const auto& lw = tally[c].lat_us;
    if (r.lat_us.size() < lw.size()) {
      r.lat_us.resize(lw.size());
    }
    for (std::size_t w = 0; w < lw.size(); ++w) {
      r.lat_us[w].merge(lw[w]);
    }
    tr.merge(tally[c].tr, static_cast<int>(c) + 1);
  }
  return r;
}

}  // namespace stackbench
