// Shared bench entry point: run google-benchmark with a machine-readable
// JSON report on by default. Unless the caller passes --benchmark_out
// themselves, results land in the named BENCH_*.json next to the binary,
// so CI and the roadmap's reproduced-experiment scripts can diff runs
// without scraping the console table.
//
// Beyond plain benchmark runs the entry point understands:
//   --check BASELINE.json   perf-regression gate: re-measure this binary's
//                           curated subset and compare (see perf_check.hpp)
//
// A plain run exits 1 when any arm reported an error (SkipWithError, e.g.
// a served job that came back rejected), so a failing arm fails the run.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/core/simd.hpp"
#include "lapack90/tune/tune.hpp"
#include "lapack90/version.hpp"

#include "perf_check.hpp"

namespace la::bench {

/// Stamp the JSON context with everything needed to tell two BENCH_*.json
/// trajectories apart after the fact: the build's ISA, the machine
/// signature the run happened on, and any LAPACK90_* knob variables that
/// pinned values during the run.
inline void add_machine_context() {
  benchmark::AddCustomContext("lapack90_version", la::version());
  benchmark::AddCustomContext("simd_isa", la::simd_isa_name());
  benchmark::AddCustomContext("thread_backend", la::thread_backend_name());
  benchmark::AddCustomContext("machine_signature",
                              la::tune::machine_signature().str());
  std::string pins;
  for (int s = 1; s <= kEnvSpecCount; ++s) {
    const auto spec = static_cast<EnvSpec>(s);
    const char* name = la::detail::env_knob_name(spec);
    if (name == nullptr) {
      continue;
    }
    const idx v =
        la::detail::env_knob(name, la::detail::env_spec_max(spec), 0);
    if (v > 0) {
      if (!pins.empty()) {
        pins += ' ';
      }
      pins += name;
      pins += '=';
      pins += std::to_string(v);
    }
  }
  if (!pins.empty()) {
    benchmark::AddCustomContext("lapack90_env_overrides", pins);
  }
}

/// Run google-benchmark with the argv-style `args`. False when one of them
/// is not recognized.
inline bool run_benchmarks(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) {
    argv.push_back(a.data());
  }
  int n = static_cast<int>(argv.size());
  benchmark::Initialize(&n, argv.data());
  if (benchmark::ReportUnrecognizedArguments(n, argv.data())) {
    return false;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return true;
}

/// Run the binary's curated benchmark subset and gate it against
/// `baseline_path`. Returns 0 = pass, 1 = regression or errored arm,
/// 77 = skipped, 2 = usage/io error.
inline int run_perf_check(const char* argv0, const char* baseline_path,
                          const char* filter, const char* fresh_out) {
  const char* gate = std::getenv("LAPACK90_PERF_GATE");
  if (gate != nullptr && std::strcmp(gate, "off") == 0) {
    std::printf("perf gate: LAPACK90_PERF_GATE=off, skipping\n");
    return 77;
  }
  BenchFile base;
  if (!parse_bench_json(baseline_path, base)) {
    std::fprintf(stderr, "perf gate: cannot read baseline %s\n",
                 baseline_path);
    return 2;
  }
  if (const int rc = check_signature(base, argv0, baseline_path); rc != 0) {
    return rc;
  }

  // Fresh measurement: curated filter, best of 3 repetitions.
  run_benchmarks({argv0, std::string("--benchmark_filter=") + filter,
                  "--benchmark_repetitions=3",
                  "--benchmark_report_aggregates_only=false",
                  std::string("--benchmark_out=") + fresh_out,
                  "--benchmark_out_format=json"});
  BenchFile fresh;
  if (!parse_bench_json(fresh_out, fresh)) {
    std::fprintf(stderr, "perf gate: cannot read fresh run %s\n", fresh_out);
    return 2;
  }
  return compare_runs(base, fresh, baseline_path);
}

/// Shared main. `check_filter` is the curated --benchmark_filter regex the
/// perf gate re-measures in --check mode (nullptr disables --check for
/// this binary).
inline int run_with_json_default(int argc, char** argv,
                                 const char* default_out,
                                 const char* check_filter = nullptr) {
  add_machine_context();
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) {
    if (check_filter == nullptr) {
      std::fprintf(stderr, "%s: no perf-gate filter for this binary\n",
                   argv[0]);
      return 2;
    }
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --check BASELINE.json\n", argv[0]);
      return 2;
    }
    const std::string fresh = std::string(default_out) + ".check";
    return run_perf_check(argv[0], argv[2], check_filter, fresh.c_str());
  }
  std::vector<std::string> args(argv, argv + argc);
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      out_path = argv[i] + 16;
    }
  }
  if (out_path.empty()) {
    out_path = default_out;
    args.push_back("--benchmark_out=" + out_path);
    args.push_back("--benchmark_out_format=json");
  }
  if (!run_benchmarks(std::move(args))) {
    return 1;
  }
  // Re-read the report: an arm that called SkipWithError fails the run.
  BenchFile report;
  if (parse_bench_json(out_path.c_str(), report)) {
    if (const int errored = count_errors(report); errored != 0) {
      std::fprintf(stderr, "%s: %d benchmark entr%s reported an error\n",
                   argv[0], errored, errored == 1 ? "y" : "ies");
      return 1;
    }
  }
  return 0;
}

}  // namespace la::bench
