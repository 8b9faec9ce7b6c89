// stackbench/src/common.hpp — shared pieces of the whole-stack benchmark:
// run options, the seeded input generator, percentiles, the in-memory span
// recorder and the metric list the workloads fill in.
#pragma once

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace stackbench {

using clk = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clk::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< small sizes and short phases (self-check)
  std::string trace_out;      ///< Chrome trace-event file for the spans
};

/// splitmix64: the benchmark's own seeded input generator, so the library
/// only ever sees generated operands.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1).
  double sym() {
    return static_cast<double>(next() >> 11) * (2.0 / 9007199254740992.0) -
           1.0;
  }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// -- percentiles --------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `v`; reorders `v`.
/// 0 for an empty sample.
double percentile(std::vector<double>& v, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Median of `v` (reorders it).
inline double median(std::vector<double>& v) { return percentile(v, 50.0); }

/// Latency histogram in microseconds: 64 log-spaced buckets per octave
/// (about 1.1% wide) from 1/16 us to ~4.5 min. Memory stays fixed however
/// many jobs a run completes, so peak RSS does not grow with throughput.
/// percentile() finds the nearest-rank bucket and interpolates
/// geometrically inside it.
class Hist {
 public:
  void add(double us) {
    const double x = std::log2(std::max(us, kMin) / kMin) * kSub;
    const auto b = std::min(static_cast<std::size_t>(x), c_.size() - 1);
    ++c_[b];
    ++n_;
  }
  void merge(const Hist& o) {
    for (std::size_t b = 0; b < c_.size(); ++b) {
      c_[b] += o.c_[b];
    }
    n_ += o.n_;
  }
  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double percentile(double p) const {
    if (n_ == 0) {
      return 0.0;
    }
    const double rank =
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n_) - 1e-9));
    double seen = 0.0;
    for (std::size_t b = 0; b < c_.size(); ++b) {
      const double c = static_cast<double>(c_[b]);
      if (c > 0.0 && seen + c >= rank) {
        const double f = (rank - seen - 0.5) / c;
        return kMin * std::exp2((static_cast<double>(b) + f) / kSub);
      }
      seen += c;
    }
    return 0.0;
  }

 private:
  static constexpr double kMin = 1.0 / 16.0;
  static constexpr double kSub = 64.0;
  std::array<std::uint32_t, 64 * 32> c_{};
  std::int64_t n_ = 0;
};

// -- quiet windows ------------------------------------------------------------

/// One stretch of a run: how long it lasted and the latencies of the
/// requests that completed in it.
struct Window {
  double secs = 0.0;
  Hist lat_us;
};

/// The merged figures of a run's quiet windows.
struct QuietFigures {
  double jobs_per_s = 0.0;
  Hist lat_us;  ///< every request completed in the quiet windows
};

/// Merges the fastest `share` of `windows` by completion rate (at least
/// one window). The host's other tenants come and go in bursts, and while
/// one lasts it slows this process (the serving stack by up to tenfold:
/// its spinning pool workers then outnumber the free cores). Figures from
/// the stretches the neighbours left alone repeat from run to run; figures
/// from the whole run measure the neighbours.
[[nodiscard]] QuietFigures quiet_windows(const std::vector<Window>& windows,
                                         double share);

// -- spans ---------------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only while enabled, kept in
/// memory, and written as Chrome trace events when the run ends. Each span
/// names the layer call it wraps ("blas.gemm", "f90.gesv", ...), the span
/// that caused it, and the request it belongs to. With a nonzero capacity
/// the recorder is a ring that keeps the latest `capacity` spans, so a
/// traced serving run costs the same per job from start to end.
class Tracer {
 public:
  struct Span {
    const char* name;     ///< a string literal
    std::int64_t t0, t1;
    int parent;           ///< index of the enclosing span, -1 at the root
    std::int64_t req;     ///< request id shared by one request's spans
    int tid;
  };

  bool enabled = false;
  std::size_t capacity = 0;  ///< 0 = unbounded

  int begin(const char* name, int parent, std::int64_t req);
  void end(int id);
  /// Durations (microseconds) of every retained span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;
  [[nodiscard]] double median_us(const char* name) const;
  /// Append another recorder's spans with their thread ids shifted by
  /// `tid_offset` (one recorder per worker thread).
  void merge(const Tracer& other, int tid_offset);
  bool write_chrome(const std::string& path) const;

 private:
  int record(const Span& s);

  std::vector<Span> spans_;
  std::size_t next_ = 0;  ///< ring position once the capacity is reached
};

/// RAII span; does nothing when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent = -1, std::int64_t req = 0)
      : t_(t), id_(t.enabled ? t.begin(name, parent, req) : -1) {}
  ~Scope() {
    if (id_ >= 0) {
      t_.end(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// -- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one pass of a workload produced.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Figures computed from shapes rather than measured; stamped with the
  /// context, not reported as metrics.
  std::vector<Metric> computed;
  /// The jobs per second trace.overhead_frac compares between the
  /// untraced and the traced pass.
  double headline = 0.0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `reps` runs of a set-up function, in seconds.
template <class F>
double median_setup_s(int reps, F&& setup) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clk::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

// -- workloads (one translation unit each) ---------------------------------

Outcome run_dense_solve(const Options& opt, Tracer& tr);
Outcome run_serve_closed(const Options& opt, Tracer& tr);

/// The traced per-layer ladder: every layer's public entry points timed
/// through spans. Appends per-layer metrics to `out`.
void run_ladder(const Options& opt, Tracer& tr, Outcome& out);

/// Single-core FMA peak (GFLOP/s) for the widest ISA the host runs, timed
/// in this process over about `seconds`.
double fma_peak_gflops(double seconds);
/// The ISA fma_peak_gflops runs on this host.
const char* fma_probe_isa();

}  // namespace stackbench
