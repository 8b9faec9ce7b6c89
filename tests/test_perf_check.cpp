// The perf gate's report reader and decision (bench/perf_check.hpp): an
// arm that called SkipWithError is written by google-benchmark with
// "error_occurred": true and real_time 0. The gate must see the flag and
// fail, not take the 0 ns as a fast sample (below the noise floor, which
// used to end in "nothing comparable" and a skip).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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

}  // namespace
