// la::tune: machine signature, tuning-file round trips, the ilaenv
// precedence chain (env var > set_env_override > tuning file > builtin),
// hardened-parser fallbacks, set_env_override validation, and concurrent
// first-touch loading (the tsan preset runs this file via ctest -L tune).
//
// ctest pins LAPACK90_TUNE_FILE=off for every test, so the lazy loader
// never picks up a developer's cached tuning file; tests that need a file
// point the variable at a temp path and re-arm the first-touch latch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "lapack90/lapack90.hpp"
#include "lapack90/tune/tune.hpp"
#include "lapack90/version.hpp"

namespace la::test {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "lapack90_" + name + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".conf";
}

void write_text(const std::string& path, const char* text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fputs(text, f);
  std::fclose(f);
}

class TuneStateGuard {
 public:
  TuneStateGuard() = default;
  ~TuneStateGuard() {
    ::setenv("LAPACK90_TUNE_FILE", "off", 1);
    tune::detail::reset_first_touch_for_testing();
    tune::clear();
  }
};

TEST(TuneSignatureTest, CanonicalForm) {
  const tune::MachineSignature sig = tune::machine_signature();
  EXPECT_STREQ(sig.isa, simd_isa_name());
  EXPECT_GE(sig.threads, 1);
  const std::string s = sig.str();
  EXPECT_NE(s.find(simd_isa_name()), std::string::npos) << s;
  EXPECT_NE(s.find("-l1:"), std::string::npos) << s;
  EXPECT_NE(s.find("-l2:"), std::string::npos) << s;
  EXPECT_NE(s.find("-l3:"), std::string::npos) << s;
  EXPECT_NE(s.find("-nt:"), std::string::npos) << s;
}

TEST(TuneFileTest, SaveLoadRoundtrip) {
  tune::TuningTable out;
  ASSERT_TRUE(out.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  ASSERT_TRUE(out.set(EnvSpec::TileSize, EnvRoutine::getrf, 160));
  ASSERT_TRUE(out.set(EnvSpec::BlockSize, EnvRoutine::geqrf, 48));
  const std::string path = temp_path("roundtrip");
  ASSERT_TRUE(tune::save_file(path, out));

  tune::TuningTable in;
  tune::LoadInfo info;
  EXPECT_EQ(tune::load_file(path, in, &info), tune::LoadStatus::Loaded);
  EXPECT_EQ(info.applied, 3);
  EXPECT_EQ(info.skipped, 0);
  EXPECT_EQ(in.get(EnvSpec::CacheBlockK, EnvRoutine::gemm), 192);
  EXPECT_EQ(in.get(EnvSpec::TileSize, EnvRoutine::getrf), 160);
  EXPECT_EQ(in.get(EnvSpec::BlockSize, EnvRoutine::geqrf), 48);
  EXPECT_EQ(in.get(EnvSpec::CacheBlockM, EnvRoutine::gemm), 0);
  EXPECT_EQ(in.signature, tune::machine_signature().str());
  std::remove(path.c_str());
}

TEST(TuneFileTest, WrongSignatureRejected) {
  tune::TuningTable out;
  ASSERT_TRUE(out.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  out.signature = "some-other-box-l1:1-l2:2-l3:3-nt:64";
  const std::string path = temp_path("wrongsig");
  ASSERT_TRUE(tune::save_file(path, out));

  tune::TuningTable in;
  EXPECT_EQ(tune::load_file(path, in), tune::LoadStatus::WrongSignature);
  EXPECT_TRUE(in.empty());
  // Explicitly opting out of the signature check loads the values.
  EXPECT_EQ(tune::load_file(path, in, nullptr, false),
            tune::LoadStatus::Loaded);
  EXPECT_EQ(in.get(EnvSpec::CacheBlockK, EnvRoutine::gemm), 192);
  EXPECT_EQ(in.signature, out.signature);
  std::remove(path.c_str());
}

TEST(TuneFileTest, MalformedLinesAreSkippedNotFatal) {
  const std::string sig = tune::machine_signature().str();
  const std::string body =
      "# comment\n"
      "lapack90-tune 1\n"
      "signature " + sig + "\n"
      "\n"
      "gemm CacheBlockK 192\n"         // good
      "nosuch CacheBlockK 64\n"        // unknown routine
      "gemm NoSuchSpec 64\n"           // unknown spec
      "gemm CacheBlockK 0\n"           // zero -> rejected
      "gemm CacheBlockK -8\n"          // negative -> rejected
      "gemm CacheBlockK twelve\n"      // garbage value
      "gemm CacheBlockK 99999999999\n" // above the spec maximum
      "gemm CacheBlockK 64 extra\n"    // trailing field
      "getrf Threads 7\n"              // Threads never loads from a file
      "getrf MinBlockSize 8\n"         // removed spec (ISPEC 2 is unused)
      "getrf TileSize 160\n";          // good
  const std::string path = temp_path("malformed");
  write_text(path, body.c_str());

  tune::TuningTable in;
  tune::LoadInfo info;
  EXPECT_EQ(tune::load_file(path, in, &info), tune::LoadStatus::Loaded);
  EXPECT_EQ(info.applied, 2);
  EXPECT_EQ(info.skipped, 9);
  EXPECT_EQ(in.get(EnvSpec::CacheBlockK, EnvRoutine::gemm), 192);
  EXPECT_EQ(in.get(EnvSpec::TileSize, EnvRoutine::getrf), 160);
  EXPECT_EQ(in.get(EnvSpec::Threads, EnvRoutine::getrf), 0);
  std::remove(path.c_str());
}

TEST(TuneFileTest, MissingTruncatedAndForeignFiles) {
  tune::TuningTable in;
  EXPECT_EQ(tune::load_file("/nonexistent/lapack90.conf", in),
            tune::LoadStatus::NoFile);

  const std::string path = temp_path("truncated");
  write_text(path, "");  // empty: no header at all
  EXPECT_EQ(tune::load_file(path, in), tune::LoadStatus::BadHeader);
  write_text(path, "lapack90-tune 1\n");  // header but no signature line
  EXPECT_EQ(tune::load_file(path, in), tune::LoadStatus::BadHeader);
  write_text(path, "lapack90-tune 99\nsignature x\n");  // future version
  EXPECT_EQ(tune::load_file(path, in), tune::LoadStatus::BadHeader);
  write_text(path, "{ \"not\": \"a tune file\" }\n");
  EXPECT_EQ(tune::load_file(path, in), tune::LoadStatus::BadHeader);
  EXPECT_TRUE(in.empty());
  std::remove(path.c_str());
}

TEST(TunePrecedenceTest, OverrideBeatsFileBeatsBuiltin) {
  TuneStateGuard guard;
  const idx builtin = ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0);

  tune::TuningTable table;
  ASSERT_TRUE(table.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  tune::install(table);
  EXPECT_STREQ(tune::source(), "api");
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 192);

  const idx prev =
      set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, 224);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 224);
  set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, prev);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 192);

  tune::clear();
  EXPECT_STREQ(tune::source(), "builtin");
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), builtin);
}

TEST(TunePrecedenceTest, EnvVarBeatsOverrideAndFile) {
  TuneStateGuard guard;
  tune::TuningTable table;
  ASSERT_TRUE(table.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  tune::install(table);
  const idx prev =
      set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, 224);

  ASSERT_EQ(::setenv("LAPACK90_GEMM_KC", "160", 1), 0);
  detail::refresh_env_cache();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 160);
  EXPECT_TRUE(detail::any_env_knob_set());

  // A malformed pin falls back through the chain instead of winning.
  ASSERT_EQ(::setenv("LAPACK90_GEMM_KC", "160abc", 1), 0);
  detail::refresh_env_cache();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 224);

  ASSERT_EQ(::unsetenv("LAPACK90_GEMM_KC"), 0);
  detail::refresh_env_cache();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 224);
  set_env_override(EnvSpec::CacheBlockK, EnvRoutine::gemm, prev);
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 192);
}

TEST(TuneOverrideValidationTest, RejectsBadPairsAndValues) {
  // Out-of-range (spec, routine) pairs: no-op, returns 0, and ilaenv
  // returns its documented floor instead of reading past the table.
  EXPECT_EQ(set_env_override(static_cast<EnvSpec>(0), EnvRoutine::getrf, 64),
            0);
  EXPECT_EQ(set_env_override(static_cast<EnvSpec>(13), EnvRoutine::getrf, 64),
            0);
  EXPECT_EQ(
      set_env_override(EnvSpec::BlockSize, EnvRoutine::count_, 64), 0);
  EXPECT_EQ(ilaenv(static_cast<EnvSpec>(0), EnvRoutine::getrf, 100), 1);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::count_, 100), 1);

  // Rejected values leave the slot untouched and report its setting.
  const idx prev = set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, 96);
  EXPECT_EQ(set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, -3), 96);
  EXPECT_EQ(set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf,
                             (idx{1} << 20) + 1),
            96);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 1024), 96);
  // TileScheduler is capped at the last real scheduler id.
  const idx sprev =
      set_env_override(EnvSpec::TileScheduler, EnvRoutine::getrf, 0);
  EXPECT_EQ(set_env_override(EnvSpec::TileScheduler, EnvRoutine::getrf, 7),
            0);
  set_env_override(EnvSpec::TileScheduler, EnvRoutine::getrf, sprev);
  set_env_override(EnvSpec::BlockSize, EnvRoutine::getrf, prev);
}

TEST(TuneTableValidationTest, SetRejectsWhatOverridesReject) {
  tune::TuningTable t;
  EXPECT_FALSE(t.set(static_cast<EnvSpec>(0), EnvRoutine::getrf, 64));
  EXPECT_FALSE(t.set(EnvSpec::BlockSize, EnvRoutine::count_, 64));
  EXPECT_FALSE(t.set(EnvSpec::BlockSize, EnvRoutine::getrf, -1));
  EXPECT_FALSE(t.set(EnvSpec::TileScheduler, EnvRoutine::getrf, 4));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.get(static_cast<EnvSpec>(0), EnvRoutine::getrf), 0);
}

TEST(TuneConcurrentFirstTouchTest, LazyLoadIsRaceFree) {
  TuneStateGuard guard;
  tune::TuningTable table;
  ASSERT_TRUE(table.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  const std::string path = temp_path("firsttouch");
  ASSERT_TRUE(tune::save_file(path, table));
  ASSERT_EQ(::setenv("LAPACK90_TUNE_FILE", path.c_str(), 1), 0);
  tune::detail::reset_first_touch_for_testing();

  // Every thread races into the first ilaenv call; all must observe the
  // fully-loaded table (never a half-written one) and agree.
  std::vector<std::thread> threads;
  std::vector<idx> seen(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &seen] {
      seen[static_cast<std::size_t>(t)] =
          ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (const idx v : seen) {
    EXPECT_EQ(v, 192);
  }
  EXPECT_STREQ(tune::source(), "file");
  EXPECT_STREQ(tune::active_file(), path.c_str());
  std::remove(path.c_str());
}

TEST(TuneFirstTouchTest, OffSentinelAndWrongSignatureFallBack) {
  TuneStateGuard guard;
  const idx builtin = ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0);

  // "off" sentinel: nothing is loaded.
  ASSERT_EQ(::setenv("LAPACK90_TUNE_FILE", "off", 1), 0);
  tune::detail::reset_first_touch_for_testing();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), builtin);
  EXPECT_STREQ(tune::source(), "builtin");
  EXPECT_STREQ(tune::active_file(), "");

  // A lazily-found file measured on another machine is ignored.
  tune::TuningTable table;
  ASSERT_TRUE(table.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  table.signature = "other-box-l1:1-l2:2-l3:3-nt:64";
  const std::string path = temp_path("foreign");
  ASSERT_TRUE(tune::save_file(path, table));
  ASSERT_EQ(::setenv("LAPACK90_TUNE_FILE", path.c_str(), 1), 0);
  tune::detail::reset_first_touch_for_testing();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), builtin);
  EXPECT_STREQ(tune::source(), "builtin");
  std::remove(path.c_str());
}

TEST(TunePoisonedFileTest, BadValuesStayCorrectAndReversible) {
  // A pathological tuning file (KC=8 strangles the packed gemm) must
  // degrade performance only: results stay correct and clear() restores
  // the builtins. The perf gate is what catches the slowdown (see
  // bench/perf_check.hpp and EXPERIMENTS.md).
  TuneStateGuard guard;
  tune::TuningTable poison;
  ASSERT_TRUE(poison.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 8));
  ASSERT_TRUE(poison.set(EnvSpec::CacheBlockM, EnvRoutine::gemm, 8));
  tune::install(poison);
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

  tune::clear();
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 256);
}

TEST(TuneVersionTest, ReportsTuningSource) {
  TuneStateGuard guard;
  tune::clear();
  EXPECT_NE(std::strstr(version(), "tune: builtin"), nullptr) << version();
  tune::TuningTable table;
  ASSERT_TRUE(table.set(EnvSpec::CacheBlockK, EnvRoutine::gemm, 192));
  tune::install(table);
  EXPECT_NE(std::strstr(version(), "tune: api"), nullptr) << version();
  ASSERT_EQ(::setenv("LAPACK90_GEMM_KC", "160", 1), 0);
  detail::refresh_env_cache();
  EXPECT_NE(std::strstr(version(), "tune: api+env"), nullptr) << version();
  ASSERT_EQ(::unsetenv("LAPACK90_GEMM_KC"), 0);
  detail::refresh_env_cache();
}

TEST(TuneSweepSmokeTest, MiniSweepProducesLegalTable) {
  // A miniature end-to-end sweep: tiny problem sizes, one repetition, a
  // few seconds of budget. Checks the engine plumbing (ladders, override
  // save/restore, deadline) rather than the quality of the values.
  TuneStateGuard guard;
  tune::SweepOptions opt;
  opt.budget_seconds = 20.0;
  opt.reps = 1;
  opt.verbose = false;
  opt.gemm_n = 96;
  opt.factor_n = 64;
  opt.tile_n = 96;
  opt.headline_n = 0;
  const tune::SweepOutcome outcome = tune::run_sweep(opt);
  EXPECT_FALSE(outcome.table.empty());
  EXPECT_EQ(outcome.table.signature, tune::machine_signature().str());
  for (int s = 1; s <= kEnvSpecCount; ++s) {
    for (int r = 0; r < kEnvRoutineCount; ++r) {
      const auto spec = static_cast<EnvSpec>(s);
      const auto routine = static_cast<EnvRoutine>(r);
      const idx v = outcome.table.get(spec, routine);
      EXPECT_GE(v, 0);
      EXPECT_LE(v, la::detail::env_spec_max(spec));
      if (spec == EnvSpec::Threads) {
        EXPECT_EQ(v, 0);  // never tuned
      }
    }
  }
  // The sweep saved and restored every override it touched.
  EXPECT_EQ(ilaenv(EnvSpec::CacheBlockK, EnvRoutine::gemm, 0), 256);
  EXPECT_EQ(ilaenv(EnvSpec::BlockSize, EnvRoutine::getrf, 0), 64);
}

}  // namespace
}  // namespace la::test
