// Hardened environment parsing (detail::parse_env_idx), the ilaenv
// precedence chain (env var > set_env_override > builtin) and override
// validation, the ilaenv entries added for the batch subsystem, and the
// version string and machine signature. The parser is exercised directly
// on string literals — the env vars themselves are read once per process
// into statics, so the pure function is the testable surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lapack90/lapack90.hpp"
#include "lapack90/tune/tune.hpp"
#include "lapack90/version.hpp"

namespace la::test {
namespace {

constexpr idx kMax = idx{1} << 20;
constexpr idx kFallback = 17;

idx parse(const char* s) { return detail::parse_env_idx(s, kMax, kFallback); }

TEST(EnvParseTest, PlainDecimalValues) {
  EXPECT_EQ(parse("1"), 1);
  EXPECT_EQ(parse("64"), 64);
  EXPECT_EQ(parse("256"), 256);
}

TEST(EnvParseTest, MissingOrEmptyFallsBack) {
  EXPECT_EQ(parse(nullptr), kFallback);
  EXPECT_EQ(parse(""), kFallback);
}

TEST(EnvParseTest, SurroundingWhitespaceIsAccepted) {
  EXPECT_EQ(parse(" 64"), 64);
  EXPECT_EQ(parse("64 "), 64);
  EXPECT_EQ(parse(" 64 \t"), 64);
}

TEST(EnvParseTest, TrailingGarbageFallsBack) {
  EXPECT_EQ(parse("64abc"), kFallback);
  EXPECT_EQ(parse("64 threads"), kFallback);
  EXPECT_EQ(parse("6.4"), kFallback);
  EXPECT_EQ(parse("abc"), kFallback);
}

TEST(EnvParseTest, NonPositiveFallsBack) {
  EXPECT_EQ(parse("0"), kFallback);
  EXPECT_EQ(parse("-3"), kFallback);
  EXPECT_EQ(parse("-0"), kFallback);
}

TEST(EnvParseTest, OverflowAndOutOfRangeFallBack) {
  // Overflows long: strtol reports ERANGE.
  EXPECT_EQ(parse("99999999999999999999999999"), kFallback);
  EXPECT_EQ(parse("-99999999999999999999999999"), kFallback);
  // Parses fine but exceeds the caller's cap.
  const std::string above = std::to_string(static_cast<long>(kMax) + 1);
  EXPECT_EQ(parse(above.c_str()), kFallback);
  EXPECT_EQ(parse(std::to_string(static_cast<long>(kMax)).c_str()), kMax);
}

TEST(EnvBatchGrainTest, DefaultAndOverride) {
  // Default 256 unless the process env overrides it (the test environment
  // does not set LAPACK90_BATCH_GRAIN).
  EXPECT_EQ(ilaenv(EnvSpec::BatchGrain, EnvRoutine::gemm, 0), 256);
  const idx prev = set_env_override(EnvSpec::BatchGrain, EnvRoutine::gemm, 64);
  EXPECT_EQ(ilaenv(EnvSpec::BatchGrain, EnvRoutine::gemm, 0), 64);
  set_env_override(EnvSpec::BatchGrain, EnvRoutine::gemm, prev);
  EXPECT_EQ(ilaenv(EnvSpec::BatchGrain, EnvRoutine::gemm, 0), 256);
}

TEST(EnvIterRefineTest, DefaultsAndOverrides) {
  // Mixed-precision refinement knobs (LAPACK90_IR_MAXITER /
  // LAPACK90_IR_CUTOFF): reference defaults unless the process env says
  // otherwise (the test environment sets neither), overridable like every
  // other ilaenv entry. Both ride the hardened parse_env_idx, covered
  // above on literals.
  EXPECT_EQ(ilaenv(EnvSpec::IterRefineMaxIter, EnvRoutine::getrf, 0), 30);
  EXPECT_EQ(ilaenv(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, 0), 64);
  const idx prev_it =
      set_env_override(EnvSpec::IterRefineMaxIter, EnvRoutine::getrf, 5);
  const idx prev_co =
      set_env_override(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, 8);
  EXPECT_EQ(ilaenv(EnvSpec::IterRefineMaxIter, EnvRoutine::getrf, 0), 5);
  EXPECT_EQ(ilaenv(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, 0), 8);
  set_env_override(EnvSpec::IterRefineMaxIter, EnvRoutine::getrf, prev_it);
  set_env_override(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, prev_co);
  EXPECT_EQ(ilaenv(EnvSpec::IterRefineMaxIter, EnvRoutine::getrf, 0), 30);
  EXPECT_EQ(ilaenv(EnvSpec::IterRefineCutoff, EnvRoutine::getrf, 0), 64);
}

TEST(EnvServeTest, DefaultsAndOverrides) {
  // Serving knobs (LAPACK90_SERVE_QUEUE / _BATCH): reference
  // defaults unless the process env says otherwise (the test environment
  // sets none), overridable like every other ilaenv entry.
  EXPECT_EQ(ilaenv(EnvSpec::ServeQueueDepth, EnvRoutine::gemm, 0), 4096);
  EXPECT_EQ(ilaenv(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 0), 64);
  const idx prev =
      set_env_override(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 8);
  EXPECT_EQ(ilaenv(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 0), 8);
  set_env_override(EnvSpec::ServeBatchMax, EnvRoutine::gemm, prev);
  EXPECT_EQ(ilaenv(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 0), 64);
}

TEST(EnvServeTest, KnobNamesAndCaps) {
  EXPECT_STREQ(detail::env_knob_name(EnvSpec::ServeQueueDepth),
               "LAPACK90_SERVE_QUEUE");
  EXPECT_STREQ(detail::env_knob_name(EnvSpec::ServeBatchMax),
               "LAPACK90_SERVE_BATCH");
  EXPECT_EQ(detail::env_spec_max(EnvSpec::ServeQueueDepth), idx{1} << 20);
  EXPECT_EQ(detail::env_spec_max(EnvSpec::ServeBatchMax), idx{1} << 20);
  // An out-of-range override is rejected, keeping the current setting.
  set_env_override(EnvSpec::ServeBatchMax, EnvRoutine::gemm,
                   (idx{1} << 20) + 1);
  EXPECT_EQ(ilaenv(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 0), 64);
  set_env_override(EnvSpec::ServeBatchMax, EnvRoutine::gemm, -7);
  EXPECT_EQ(ilaenv(EnvSpec::ServeBatchMax, EnvRoutine::gemm, 0), 64);
}

TEST(EnvServeTest, MalformedEnvironmentFallsBack) {
  // The serve knobs ride the shared hardened reader: garbage, zero,
  // negatives, and out-of-range values fall back to the builtin defaults
  // instead of misconfiguring the server.
  const auto check = [](const char* name, EnvSpec spec, idx builtin) {
    ASSERT_EQ(::setenv(name, "96", 1), 0);
    detail::refresh_env_cache();
    EXPECT_EQ(ilaenv(spec, EnvRoutine::gemm, 0), 96) << name;
    for (const char* bad : {"96abc", "0", "-12", "", " ", "9.6",
                            "99999999999999999999999999"}) {
      ASSERT_EQ(::setenv(name, bad, 1), 0);
      detail::refresh_env_cache();
      EXPECT_EQ(ilaenv(spec, EnvRoutine::gemm, 0), builtin)
          << name << "=\"" << bad << "\"";
    }
    const std::string above =
        std::to_string(static_cast<long>(detail::env_spec_max(spec)) + 1);
    ASSERT_EQ(::setenv(name, above.c_str(), 1), 0);
    detail::refresh_env_cache();
    EXPECT_EQ(ilaenv(spec, EnvRoutine::gemm, 0), builtin) << name;
    ASSERT_EQ(::unsetenv(name), 0);
    detail::refresh_env_cache();
    EXPECT_EQ(ilaenv(spec, EnvRoutine::gemm, 0), builtin) << name;
  };
  check("LAPACK90_SERVE_QUEUE", EnvSpec::ServeQueueDepth, 4096);
  check("LAPACK90_SERVE_BATCH", EnvSpec::ServeBatchMax, 64);
}

TEST(EnvTest, EnvVarBeatsOverrideBeatsBuiltin) {
  const idx builtin = ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0);
  const idx prev =
      set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, 224);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 224);

  ASSERT_EQ(::setenv("LAPACK90_GEMM_KC", "160", 1), 0);
  detail::refresh_env_cache();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 160);
  EXPECT_TRUE(detail::any_env_knob_set());

  // A malformed pin falls back to the override instead of winning.
  ASSERT_EQ(::setenv("LAPACK90_GEMM_KC", "160abc", 1), 0);
  detail::refresh_env_cache();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 224);

  ASSERT_EQ(::unsetenv("LAPACK90_GEMM_KC"), 0);
  detail::refresh_env_cache();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 224);
  set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, prev);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), builtin);
}

TEST(EnvTest, OverrideRejectsBadPairsAndValues) {
  // Out-of-range (spec, routine) pairs: no-op, returns 0, and ilaenv
  // returns its documented floor instead of reading past the table.
  EXPECT_EQ(set_env_override(static_cast<EnvSpec>(0), EnvRoutine::getrf, 64),
            0);
  EXPECT_EQ(set_env_override(static_cast<EnvSpec>(2), EnvRoutine::getrf, 64),
            0);
  EXPECT_EQ(set_env_override(static_cast<EnvSpec>(kEnvSpecCount + 1),
                             EnvRoutine::getrf, 64),
            0);
  EXPECT_EQ(
      set_env_override(EnvSpec::BlockSize, EnvRoutine::count_, 64), 0);
  EXPECT_EQ(ilaenv(static_cast<EnvSpec>(0), EnvRoutine::getrf, 100), 1);
  EXPECT_EQ(ilaenv(static_cast<EnvSpec>(kEnvSpecCount + 1),
                   EnvRoutine::getrf, 100),
            1);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::count_, 100), 1);

  // Rejected values leave the slot untouched and report its setting.
  const idx prev = set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 96);
  EXPECT_EQ(set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, -3), 96);
  EXPECT_EQ(set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf,
                             (idx{1} << 20) + 1),
            96);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 1024), 96);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, prev);
}

TEST(EnvTest, GemmStaysCorrectUnderTinyCacheBlocks) {
  // MC = KC = 8 strangles the packed gemm (MC below the register tile's
  // MR on wide ISAs): a bad setting may cost speed, never correctness,
  // and dropping the override restores the builtins.
  const idx prev_kc =
      set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, 8);
  const idx prev_mc =
      set_env_override(EnvSpec::CacheBlockM, EnvRoutine::gemm, 8);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 8);

  const idx n = 96;
  Iseed seed = {11, 22, 33, 1};
  Matrix<double> a(n, n);
  Matrix<double> b(n, n);
  Matrix<double> c(n, n);
  larnv(Dist::Uniform11, seed, n * n, a.data());
  larnv(Dist::Uniform11, seed, n * n, b.data());
  blas::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, 1.0, a.data(), a.ld(),
             b.data(), b.ld(), 0.0, c.data(), c.ld());
  double max_err = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      double ref = 0.0;
      for (idx k = 0; k < n; ++k) {
        ref += a(i, k) * b(k, j);
      }
      max_err = std::max(max_err, std::abs(c(i, j) - ref));
    }
  }
  EXPECT_LT(max_err, 1e-10);

  set_env_override(EnvSpec::CacheBlockM, EnvRoutine::gemm, prev_mc);
  set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, prev_kc);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 256);
}

TEST(EnvNetTest, KnobsRideTheHardenedReader) {
  // The LAPACK90_NET_* knobs are read live at Listener construction via
  // detail::env_knob (they configure a transport object, not a numeric
  // tuning slot, so they are deliberately not EnvSpec entries). Same
  // hardening contract: garbage, zero, negatives, and values above the cap
  // fall back to the builtin default.
  const auto check = [](const char* name, idx max, idx builtin) {
    ASSERT_EQ(::setenv(name, "33", 1), 0);
    EXPECT_EQ(detail::env_knob(name, max, builtin), 33) << name;
    for (const char* bad : {"33abc", "-3", "", " ", "3.3",
                            "99999999999999999999999999"}) {
      ASSERT_EQ(::setenv(name, bad, 1), 0);
      EXPECT_EQ(detail::env_knob(name, max, builtin), builtin)
          << name << "=\"" << bad << "\"";
    }
    const std::string above = std::to_string(static_cast<long>(max) + 1);
    ASSERT_EQ(::setenv(name, above.c_str(), 1), 0);
    EXPECT_EQ(detail::env_knob(name, max, builtin), builtin) << name;
    ASSERT_EQ(::unsetenv(name), 0);
    EXPECT_EQ(detail::env_knob(name, max, builtin), builtin) << name;
  };
  check("LAPACK90_NET_PORT", 65535, 0);
  check("LAPACK90_NET_BACKLOG", 4096, 16);
  check("LAPACK90_NET_CONN_INFLIGHT", idx{1} << 20, 256);
  check("LAPACK90_NET_MAX_FRAME", idx{1} << 30, idx{64} << 20);
}

TEST(VersionTest, ReportsSimdIsaAndThreadBackend) {
  const char* v = version();
  EXPECT_NE(std::strstr(v, "simd: "), nullptr) << v;
  EXPECT_NE(std::strstr(v, "threads: "), nullptr) << v;
  EXPECT_NE(std::strstr(v, "serve: on"), nullptr) << v;
  EXPECT_NE(std::strstr(v, "net: on"), nullptr) << v;
  EXPECT_NE(std::strstr(v, "1.7.0"), nullptr) << v;
  EXPECT_NE(std::strstr(v, thread_backend_name()), nullptr) << v;
  const char* b = thread_backend_name();
  EXPECT_TRUE(std::strcmp(b, "std::thread") == 0 ||
              std::strcmp(b, "serial") == 0)
      << b;
}

TEST(VersionTest, ReportsEnvKnobMarker) {
  EXPECT_NE(std::strstr(version(), "knobs: builtin,"), nullptr) << version();
  ASSERT_EQ(::setenv("LAPACK90_GEMM_KC", "160", 1), 0);
  detail::refresh_env_cache();
  EXPECT_NE(std::strstr(version(), "knobs: builtin+env,"), nullptr)
      << version();
  ASSERT_EQ(::unsetenv("LAPACK90_GEMM_KC"), 0);
  detail::refresh_env_cache();
  EXPECT_NE(std::strstr(version(), "knobs: builtin,"), nullptr) << version();
}

TEST(VersionTest, MachineSignatureCanonicalForm) {
  const tune::MachineSignature sig = tune::machine_signature();
  EXPECT_STREQ(sig.isa, simd_isa_name());
  EXPECT_GE(sig.threads, 1);
  const std::string s = sig.str();
  EXPECT_EQ(s.rfind(simd_isa_name(), 0), 0U) << s;
  EXPECT_NE(s.find("-l1:"), std::string::npos) << s;
  EXPECT_NE(s.find("-l2:"), std::string::npos) << s;
  EXPECT_NE(s.find("-l3:"), std::string::npos) << s;
  EXPECT_NE(s.find("-nt:" + std::to_string(static_cast<long>(sig.threads))),
            std::string::npos)
      << s;
  // No file is read, so none is reported.
  EXPECT_EQ(tune::default_tune_file(), "");
}

TEST(VersionTest, HeaderIsaMatchesLibraryIsa) {
  // The library's kernel flags are PUBLIC compile options of lapack90, so
  // this TU's header kernels lower to the ISA liblapack90.a reports.
  const std::string v = version();
  const auto at = v.find("simd: ");
  ASSERT_NE(at, std::string::npos) << v;
  const auto end = v.find(',', at);
  ASSERT_NE(end, std::string::npos) << v;
  EXPECT_EQ(v.substr(at + 6, end - at - 6), simd_isa_name()) << v;
}

#if defined(LAPACK90_TESTS_NATIVE_ISA) && defined(__x86_64__)
TEST(VersionTest, NativeBuildLowersToWidestHostIsa) {
  // Set by CMake when -march=native applied: a silent fallback to the
  // baseline ISA (SSE2) on a wider host fails here.
  const char* want = "sse2";
  if (__builtin_cpu_supports("avx512f")) {
    want = "avx512f";
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    want = "avx2+fma";
  }
  EXPECT_STREQ(simd_isa_name(), want);
}
#endif

}  // namespace
}  // namespace la::test
