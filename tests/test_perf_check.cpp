// The perf gate's report reader and decision (bench/perf_check.hpp): an
// arm that called SkipWithError is written by google-benchmark with
// "error_occurred": true and real_time 0. The gate must see the flag and
// fail, not take the 0 ns as a fast sample (below the noise floor, which
// used to end in "nothing comparable" and a skip). The machine check
// compares only the ISA and worker count of the signature.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "lapack90/tune/tune.hpp"
#include "perf_check.hpp"

namespace {

constexpr const char* kErroredReport = R"({
  "context": {
    "machine_signature": "fixture"
  },
  "benchmarks": [
    {
      "name": "BM_DServeSaturated/2048/0/real_time",
      "run_name": "BM_DServeSaturated/2048/0/real_time",
      "run_type": "iteration",
      "repetitions": 1,
      "repetition_index": 0,
      "threads": 1,
      "error_occurred": true,
      "error_message": "served jobs reported nonzero INFO",
      "iterations": 1,
      "real_time": 0.0000000000000000e+00,
      "cpu_time": 0.0000000000000000e+00,
      "time_unit": "ms"
    },
    {
      "name": "BM_DServeSaturated/2048/1/real_time",
      "run_name": "BM_DServeSaturated/2048/1/real_time",
      "run_type": "iteration",
      "repetitions": 1,
      "repetition_index": 0,
      "threads": 1,
      "iterations": 10,
      "real_time": 1.2000000000000000e+01,
      "cpu_time": 1.1000000000000000e+01,
      "time_unit": "ms"
    }
  ]
}
)";

la::bench::BenchSample sample(const char* name, double ms) {
  la::bench::BenchSample s;
  s.name = name;
  s.run_type = "iteration";
  s.real_time = ms;
  s.time_unit = "ms";
  return s;
}

TEST(PerfCheck, ErroredFreshEntryFailsTheGate) {
  const std::string path = ::testing::TempDir() + "perf_check_errored.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(kErroredReport, f);
  std::fclose(f);

  la::bench::BenchFile fresh;
  ASSERT_TRUE(la::bench::parse_bench_json(path.c_str(), fresh));
  std::remove(path.c_str());
  ASSERT_EQ(fresh.samples.size(), 2U);
  EXPECT_TRUE(fresh.samples[0].error_occurred);
  EXPECT_FALSE(fresh.samples[1].error_occurred);
  EXPECT_DOUBLE_EQ(fresh.samples[1].real_time, 12.0);
  EXPECT_EQ(la::bench::count_errors(fresh), 1);

  la::bench::BenchFile base;
  base.context["machine_signature"] = "fixture";
  base.samples = {sample("BM_DServeSaturated/2048/0/real_time", 12.0),
                  sample("BM_DServeSaturated/2048/1/real_time", 12.0)};
  EXPECT_EQ(la::bench::compare_runs(base, fresh, "fixture"), 1);

  // The same report without the errored arm passes: the error alone is
  // what fails it.
  fresh.samples.erase(fresh.samples.begin());
  EXPECT_EQ(la::bench::compare_runs(base, fresh, "fixture"), 0);
}

la::bench::BenchFile baseline_on(const la::tune::MachineSignature& sig) {
  la::bench::BenchFile base;
  base.context["machine_signature"] = sig.str();
  return base;
}

TEST(PerfCheck, CacheSizesAloneDoNotSkipTheGate) {
  const la::tune::MachineSignature here = la::tune::machine_signature();
  EXPECT_EQ(la::bench::check_signature(baseline_on(here), "bench", "b.json"),
            0);
  la::tune::MachineSignature other_vm = here;
  other_vm.l3 += 1L << 20;  // same VM class, different L3 slice
  EXPECT_EQ(
      la::bench::check_signature(baseline_on(other_vm), "bench", "b.json"), 0);
  other_vm.l1d *= 2;
  other_vm.l2 = 0;  // a level the platform does not report
  EXPECT_EQ(
      la::bench::check_signature(baseline_on(other_vm), "bench", "b.json"), 0);
}

TEST(PerfCheck, IsaOrWorkerCountMismatchSkipsTheGate) {
  const la::tune::MachineSignature here = la::tune::machine_signature();
  la::tune::MachineSignature other_isa = here;
  other_isa.isa = std::string(here.isa) == "sse2" ? "avx2+fma" : "sse2";
  EXPECT_EQ(
      la::bench::check_signature(baseline_on(other_isa), "bench", "b.json"),
      77);
  la::tune::MachineSignature other_nt = here;
  other_nt.threads = here.threads + 1;
  EXPECT_EQ(
      la::bench::check_signature(baseline_on(other_nt), "bench", "b.json"),
      77);
  // A baseline without a signature, or with a non-canonical one, skips.
  EXPECT_EQ(la::bench::check_signature(la::bench::BenchFile{}, "bench",
                                       "b.json"),
            77);
  la::bench::BenchFile fixture;
  fixture.context["machine_signature"] = "fixture";
  EXPECT_EQ(la::bench::check_signature(fixture, "bench", "b.json"), 77);
}

}  // namespace
