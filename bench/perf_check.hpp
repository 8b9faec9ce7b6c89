// Perf-regression gate: `bench_* --check BASELINE.json` re-measures a
// curated subset of the binary's benchmarks and compares against the
// committed baseline, failing on regressions beyond a tolerance.
//
// Comparison rules:
//   * Only benchmarks present in BOTH files are compared (the baseline may
//     hold a full documentation run; the gate re-runs a curated filter).
//   * The metric is the "GFLOP/s" counter when both sides report it,
//     else real_time normalized to nanoseconds.
//   * Baseline value = median across its repetitions; fresh value = best
//     of --benchmark_repetitions=3. Best-of-fresh vs median-of-baseline
//     deliberately biases against false alarms on noisy shared machines.
//   * Noise floor: entries faster than 50 us are skipped (too jittery for
//     a 10% gate).
//   * Machines: the gate compares the ISA and worker-count fields of the
//     machine signature ("<isa>-...-nt:<k>"). When either differs it SKIPS
//     (exit 77) rather than comparing across machines, and prints the
//     command that re-baselines on this one. The L1/L2/L3 sizes stay in
//     the signature as information: they differ between VMs of one class,
//     which would otherwise skip the gate on every new host.
//   * An errored fresh entry (the arm called SkipWithError: google-benchmark
//     reports it with "error_occurred": true and real_time 0) FAILS the
//     gate; it is never a fast sample or a skip.
//
// Environment:
//   LAPACK90_PERF_GATE=off       skip entirely (exit 77)
//   LAPACK90_PERF_GATE_TOL=<pct> regression tolerance, default 10
//
// The JSON reader is a line-oriented scanner for google-benchmark's
// generated output (one "key": value per line) — not a general parser,
// but dependency-free and sufficient for both sides of the comparison.
// This header reads and judges reports only; running the fresh
// measurement is bench_json_main.hpp's job.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "lapack90/tune/tune.hpp"

namespace la::bench {

struct BenchSample {
  std::string name;
  std::string run_type;  // "iteration" | "aggregate"
  double real_time = 0.0;
  std::string time_unit = "ns";
  double gflops = -1.0;  // "GFLOP/s" counter, -1 when absent
  bool error_occurred = false;  // the arm called SkipWithError
};

struct BenchFile {
  std::map<std::string, std::string> context;  // string-valued fields only
  std::vector<BenchSample> samples;
};

namespace detail {

/// Split `  "key": value,` into key and raw value text; false otherwise.
inline bool split_json_line(const std::string& line, std::string& key,
                            std::string& value) {
  const auto k0 = line.find('"');
  if (k0 == std::string::npos) {
    return false;
  }
  const auto k1 = line.find('"', k0 + 1);
  if (k1 == std::string::npos) {
    return false;
  }
  const auto colon = line.find(':', k1 + 1);
  if (colon == std::string::npos) {
    return false;
  }
  key = line.substr(k0 + 1, k1 - k0 - 1);
  auto v0 = line.find_first_not_of(" \t", colon + 1);
  if (v0 == std::string::npos) {
    return false;
  }
  auto v1 = line.find_last_not_of(" \t\r\n");
  value = line.substr(v0, v1 - v0 + 1);
  if (!value.empty() && value.back() == ',') {
    value.pop_back();
  }
  return true;
}

/// Strip surrounding quotes from a JSON string value.
inline std::string unquote(const std::string& v) {
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    return v.substr(1, v.size() - 2);
  }
  return v;
}

inline double to_ns(double value, const std::string& unit) {
  if (unit == "ms") {
    return value * 1e6;
  }
  if (unit == "us") {
    return value * 1e3;
  }
  if (unit == "s") {
    return value * 1e9;
  }
  return value;  // ns
}

}  // namespace detail

/// Line-oriented read of a google-benchmark JSON report.
inline bool parse_bench_json(const char* path, BenchFile& out) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return false;
  }
  char buf[1024];
  bool in_benchmarks = false;
  BenchSample cur;
  const auto flush = [&] {
    if (!cur.name.empty()) {
      out.samples.push_back(cur);
    }
    cur = BenchSample{};
  };
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    const std::string line(buf);
    if (line.find("\"benchmarks\"") != std::string::npos) {
      in_benchmarks = true;
      continue;
    }
    std::string key;
    std::string value;
    if (!detail::split_json_line(line, key, value)) {
      continue;
    }
    if (!in_benchmarks) {
      if (!value.empty() && value.front() == '"') {
        out.context[key] = detail::unquote(value);
      }
      continue;
    }
    if (key == "name") {
      flush();
      cur.name = detail::unquote(value);
    } else if (key == "run_type") {
      cur.run_type = detail::unquote(value);
    } else if (key == "real_time") {
      cur.real_time = std::atof(value.c_str());
    } else if (key == "time_unit") {
      cur.time_unit = detail::unquote(value);
    } else if (key == "GFLOP/s") {
      cur.gflops = std::atof(value.c_str());
    } else if (key == "error_occurred") {
      cur.error_occurred = value == "true";
    }
  }
  flush();
  std::fclose(f);
  return true;
}

/// Entries of `file` whose arm reported an error.
inline int count_errors(const BenchFile& file) {
  return static_cast<int>(
      std::count_if(file.samples.begin(), file.samples.end(),
                    [](const BenchSample& s) { return s.error_occurred; }));
}

/// Per-benchmark metric after aggregation. `gflops` wins when present.
struct Metric {
  double gflops = -1.0;  // higher is better
  double time_ns = 0.0;  // lower is better
  int samples = 0;
};

/// median of per-repetition values (baseline) or best (fresh run).
inline std::map<std::string, Metric> aggregate(const BenchFile& file,
                                               bool best_of) {
  std::map<std::string, std::vector<BenchSample>> by_name;
  for (const auto& s : file.samples) {
    if (s.run_type == "aggregate") {
      continue;  // we aggregate ourselves from the repetition samples
    }
    by_name[s.name].push_back(s);
  }
  std::map<std::string, Metric> out;
  for (auto& [name, samples] : by_name) {
    Metric m;
    m.samples = static_cast<int>(samples.size());
    std::vector<double> gf;
    std::vector<double> ns;
    for (const auto& s : samples) {
      if (s.gflops >= 0) {
        gf.push_back(s.gflops);
      }
      ns.push_back(detail::to_ns(s.real_time, s.time_unit));
    }
    const auto pick = [&](std::vector<double>& v, bool higher_better) {
      std::sort(v.begin(), v.end());
      if (best_of) {
        return higher_better ? v.back() : v.front();
      }
      return v[v.size() / 2];  // median
    };
    if (gf.size() == samples.size() && !gf.empty()) {
      m.gflops = pick(gf, true);
    }
    if (!ns.empty()) {
      m.time_ns = pick(ns, false);
    }
    out[name] = m;
  }
  return out;
}

/// The fields of a machine signature the gate compares: "<isa>-nt:<k>".
/// A string without the canonical "-l1:" and "-nt:" fields is returned
/// whole, so it only ever matches itself.
inline std::string signature_gate_key(const std::string& sig) {
  const auto l1 = sig.find("-l1:");
  const auto nt = sig.rfind("-nt:");
  if (l1 == std::string::npos || nt == std::string::npos || nt < l1) {
    return sig;
  }
  return sig.substr(0, l1) + sig.substr(nt);
}

/// Whether `base` was measured on a comparable machine (same ISA and worker
/// count): 0 when comparable, else 77 (skip) after printing the signature
/// diff and the re-baseline command.
inline int check_signature(const BenchFile& base, const char* argv0,
                           const char* baseline_path) {
  const std::string here = la::tune::machine_signature().str();
  const auto sig = base.context.find("machine_signature");
  const std::string there =
      sig == base.context.end() ? "(none: pre-1.5 format)" : sig->second;
  if (signature_gate_key(there) == signature_gate_key(here)) {
    return 0;
  }
  std::printf(
      "perf gate: baseline ISA or worker count differs, skipping\n"
      "  baseline: %s\n  here:     %s\n  re-baseline: %s --benchmark_out=%s "
      "--benchmark_repetitions=5\n",
      there.c_str(), here.c_str(), argv0, baseline_path);
  return 77;
}

/// Gate a fresh run against the baseline. Returns 0 = pass, 1 = regression
/// or an errored fresh entry, 77 = nothing comparable.
inline int compare_runs(const BenchFile& base, const BenchFile& fresh,
                        const char* baseline_path) {
  if (const int errored = count_errors(fresh); errored != 0) {
    std::printf("perf gate: %d fresh entries reported an error -> FAIL\n",
                errored);
    return 1;
  }
  const auto base_m = aggregate(base, /*best_of=*/false);
  const auto fresh_m = aggregate(fresh, /*best_of=*/true);

  double tol_pct = 10.0;
  if (const char* t = std::getenv("LAPACK90_PERF_GATE_TOL")) {
    const double v = std::atof(t);
    if (v > 0) {
      tol_pct = v;
    }
  }
  constexpr double kNoiseFloorNs = 50e3;  // entries under 50 us are jitter

  int compared = 0;
  int regressed = 0;
  std::printf(
      "perf gate: %s vs fresh (tol %.0f%%)\n"
      "  %-44s %12s %12s %8s\n",
      baseline_path, tol_pct, "benchmark", "baseline", "fresh", "delta");
  for (const auto& [name, fm] : fresh_m) {
    const auto it = base_m.find(name);
    if (it == base_m.end()) {
      std::printf("  %-44s %12s %12s %8s\n", name.c_str(), "-", "-", "new");
      continue;
    }
    const Metric& bm = it->second;
    const bool use_gflops = bm.gflops >= 0 && fm.gflops >= 0;
    if (!use_gflops && std::min(bm.time_ns, fm.time_ns) < kNoiseFloorNs) {
      std::printf("  %-44s %12s %12s %8s\n", name.c_str(), "-", "-",
                  "noise");
      continue;
    }
    // delta > 0 = faster than baseline, delta < 0 = regression.
    const double delta =
        use_gflops ? fm.gflops / bm.gflops - 1.0 : bm.time_ns / fm.time_ns - 1.0;
    ++compared;
    const bool bad = delta < -tol_pct / 100.0;
    if (bad) {
      ++regressed;
    }
    if (use_gflops) {
      std::printf("  %-44s %9.2f GF %9.2f GF %+6.1f%%%s\n", name.c_str(),
                  bm.gflops, fm.gflops, 100.0 * delta, bad ? "  <-- REGRESSION" : "");
    } else {
      std::printf("  %-44s %9.2f ms %9.2f ms %+6.1f%%%s\n", name.c_str(),
                  bm.time_ns * 1e-6, fm.time_ns * 1e-6, 100.0 * delta,
                  bad ? "  <-- REGRESSION" : "");
    }
  }
  std::printf("perf gate: %d compared, %d regressed beyond %.0f%% -> %s\n",
              compared, regressed, tol_pct, regressed == 0 ? "PASS" : "FAIL");
  if (compared == 0) {
    std::printf("perf gate: nothing comparable, skipping\n");
    return 77;
  }
  return regressed == 0 ? 0 : 1;
}

}  // namespace la::bench
