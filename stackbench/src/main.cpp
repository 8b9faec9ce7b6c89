// stackbench: one command for the whole lapack90 stack.
//
//   stackbench --workload dense_solve|serve_closed --seed N
//              --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//   stackbench --self-test
//
// --trace 0 runs the workload once and reports its end-to-end metrics.
// --trace 1 runs it untraced, then traced (the difference is
// trace.overhead_frac), then the per-layer ladder, and reports the
// per-layer metrics. Either way the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it stamps the run's context. The process exits non-zero when any
// request failed or any output did not verify.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/tune/tune.hpp"
#include "lapack90/version.hpp"

extern char** environ;

namespace stackbench {

// -- percentiles --------------------------------------------------------------

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t k = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

QuietFigures quiet_windows(const std::vector<Window>& windows, double share) {
  QuietFigures q;
  if (windows.empty()) {
    return q;
  }
  const auto rate = [&](std::size_t i) {
    return static_cast<double>(windows[i].lat_us.count()) / windows[i].secs;
  };
  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rate(a) > rate(b); });
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(windows.size())));
  double secs = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    secs += windows[order[i]].secs;
    q.lat_us.merge(windows[order[i]].lat_us);
  }
  q.jobs_per_s = static_cast<double>(q.lat_us.count()) / secs;
  return q;
}

// -- spans ---------------------------------------------------------------------

int Tracer::record(const Span& s) {
  if (capacity == 0 || spans_.size() < capacity) {
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::size_t at = next_++ % capacity;
  spans_[at] = s;
  return static_cast<int>(at);
}

int Tracer::begin(const char* name, int parent, std::int64_t req) {
  return record({name, now_ns(), 0, parent, req, 0});
}

void Tracer::end(int id) { spans_[static_cast<std::size_t>(id)].t1 = now_ns(); }

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (s.t1 != 0 && std::strcmp(s.name, name) == 0) {
      d.push_back(static_cast<double>(s.t1 - s.t0) * 1e-3);
    }
  }
  return d;
}

double Tracer::median_us(const char* name) const {
  std::vector<double> d = durations_us(name);
  return median(d);
}

void Tracer::merge(const Tracer& other, int tid_offset) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 || capacity != 0 ? -1 : s.parent + base;
    s.tid += tid_offset;
    record(s);
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.t0);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"req\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.t0 - origin) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3, i, s.parent,
                 static_cast<long long>(s.req));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

// -- self-test ------------------------------------------------------------------

int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++bad;
    }
  };
  // Synthetic 1..1000: nearest-rank percentiles are exact.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(i);
  }
  expect(percentile(v, 50.0) == 500.0, "p50 of 1..1000");
  expect(percentile(v, 90.0) == 900.0, "p90 of 1..1000");
  expect(percentile(v, 99.0) == 990.0, "p99 of 1..1000");
  expect(percentile(v, 100.0) == 1000.0, "p100 of 1..1000");
  std::vector<double> one{7.0};
  expect(percentile(one, 99.0) == 7.0, "single sample");
  std::vector<double> none;
  expect(percentile(none, 50.0) == 0.0, "empty sample");
  // The reported tails leave >= 10 samples beyond them: p90 at
  // dense_solve's minimum of 102 solves, p99 from 1000 jobs up.
  expect(samples_beyond(1000, 99.0) == 10, "10 beyond p99 of 1000");
  expect(samples_beyond(999, 99.0) == 9, "9 beyond p99 of 999");
  expect(samples_beyond(102, 90.0) >= 10, "p90 at dense_solve's minimum");
  expect(samples_beyond(0, 50.0) == 0, "nothing beyond in an empty sample");
  for (const auto& [n, p] : {std::pair<std::size_t, double>{102, 90.0},
                             {313, 90.0},
                             {1000, 99.0},
                             {4321, 99.0},
                             {100000, 99.0}}) {
    // Count on the data itself: distinct values n..1, so "beyond" is the
    // number of samples greater than the reported one.
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = static_cast<double>(n - i);
    }
    const double q = percentile(d, p);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(d.begin(), d.end(), [q](double x) { return x > q; }));
    expect(beyond == samples_beyond(n, p) && beyond >= 10,
           "samples beyond the reported percentile");
  }
  // The histogram the serving workloads use agrees with the exact
  // percentile to within its ~1.1% bucket width.
  Hist h;
  for (int i = 1; i <= 1000; ++i) {
    h.add(i);
  }
  for (const double p : {50.0, 90.0, 99.0}) {
    const double exact = p * 10.0;
    expect(std::abs(h.percentile(p) - exact) <= 0.012 * exact,
           "histogram percentile within a bucket");
  }
  expect(h.count() == 1000 && Hist().percentile(50.0) == 0.0,
         "histogram count / empty");
  // Quiet windows: 40 one-second windows, every fourth a quiet one with
  // 100 jobs at 10 us, the rest slowed tenfold (10 jobs at 100 us). The
  // fastest quarter is exactly the quiet ones.
  std::vector<Window> ws(40);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const bool calm = i % 4 == 0;
    ws[i].secs = 1.0;
    for (int j = 0; j < (calm ? 100 : 10); ++j) {
      ws[i].lat_us.add(calm ? 10.0 : 100.0);
    }
  }
  const QuietFigures q = quiet_windows(ws, 0.25);
  expect(q.jobs_per_s == 100.0 && q.lat_us.count() == 1000,
         "quiet windows keep the fastest share");
  expect(std::abs(q.lat_us.percentile(99.0) - 10.0) <= 0.12,
         "quiet windows' latencies");
  expect(quiet_windows(ws, 0.0).lat_us.count() == 100 &&
             quiet_windows({}, 0.5).jobs_per_s == 0.0,
         "quiet windows keep at least one / none of none");
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// -- output ---------------------------------------------------------------------

std::string json_escape(const char* s) {
  std::string o;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') {
      o += '\\';
    }
    if (static_cast<unsigned char>(*s) >= 0x20) {
      o += *s;
    }
  }
  return o;
}

/// The run's context: host, library build, tuning, environment knobs.
void print_context(const Options& opt, const char* fma_isa,
                   const std::vector<Metric>& computed) {
  const la::tune::MachineSignature sig = la::tune::machine_signature();
  std::string knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LAPACK90_", 9) == 0) {
      knobs += std::string(knobs.empty() ? "" : ",") + "\"" +
               json_escape(*e) + "\"";
    }
  }
  const std::string tune_file = la::tune::default_tune_file();
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %.3f, \"trace\": %d, \"tiny\": %s, \"nproc\": %lld, "
      "\"workers\": %lld, \"version\": \"%s\", \"signature\": \"%s\", "
      "\"tune_file\": \"%s\", \"lapack90_env\": [%s]%s%s%s",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "true" : "false",
      static_cast<long long>(la::hardware_threads()),
      static_cast<long long>(la::num_threads()),
      json_escape(la::version()).c_str(), json_escape(sig.str().c_str()).c_str(),
      tune_file.empty() ? "off" : json_escape(tune_file.c_str()).c_str(),
      knobs.c_str(), fma_isa != nullptr ? ", \"fma_probe_isa\": \"" : "",
      fma_isa != nullptr ? fma_isa : "", fma_isa != nullptr ? "\"" : "");
  for (const Metric& m : computed) {
    std::printf(", \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

/// A metric that is not a finite number is a failed measurement: it is
/// printed as 0 and fails the run.
void print_result(Outcome& o) {
  for (Metric& m : o.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "stackbench: %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      ++o.failed;
    }
  }
  const bool correct = o.failed == 0 && o.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(o.attempted, 1)),
              static_cast<long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Outcome run_workload(const Options& opt, Tracer& tr) {
  if (opt.workload == "dense_solve") {
    return run_dense_solve(opt, tr);
  }
  return run_serve_closed(opt, tr);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dense_solve|serve_closed "
               "--seed N --seconds S --trace 0|1 [--tiny] [--trace-out FILE]\n"
               "       %s --self-test\n",
               argv0, argv0);
  return 2;
}

}  // namespace

}  // namespace stackbench

int main(int argc, char** argv) {
  using namespace stackbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--self-test") {
      return self_test();
    } else if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_val) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--trace-out" && has_val) {
      opt.trace_out = argv[++i];
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      return usage(argv[0]);
    }
  }
  if ((opt.workload != "dense_solve" && opt.workload != "serve_closed") ||
      !(opt.seconds > 0.0)) {
    return usage(argv[0]);
  }

  Outcome result;
  const char* fma_isa = nullptr;
  if (!opt.trace) {
    Tracer off;
    result = run_workload(opt, off);
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Tracer off;
    const Outcome plain = run_workload(opt, off);
    // The traced pass keeps the latest spans in a fixed ring; the ladder
    // keeps all of its own.
    Tracer wl;
    wl.enabled = true;
    wl.capacity = std::size_t{1} << 18;
    const Outcome traced = run_workload(opt, wl);
    Tracer ladder;
    ladder.enabled = true;
    run_ladder(opt, ladder, result);
    result.attempted += plain.attempted + traced.attempted;
    result.failed += plain.failed + traced.failed;
    result.add("trace.overhead_frac", plain.headline / traced.headline - 1.0,
               "ratio");
    fma_isa = fma_probe_isa();
    ladder.merge(wl, 100);
    if (!opt.trace_out.empty() && !ladder.write_chrome(opt.trace_out)) {
      std::fprintf(stderr, "stackbench: could not write %s\n",
                   opt.trace_out.c_str());
    }
  }
  print_context(opt, fma_isa, result.computed);
  print_result(result);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
