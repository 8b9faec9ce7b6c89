#include "lapack90/version.hpp"

#include <cstdio>

#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/core/simd.hpp"
#include "lapack90/tune/tune.hpp"

namespace la {

// The ISA suffix reports what the la::simd layer lowered to for this build
// (compile-time dispatch; see core/simd.hpp). It is the library build's view:
// header-only kernels compiled into user TUs follow those TUs' flags. The
// threads suffix names the parallel_for backend the runtime dispatches to
// ("std::thread", or "serial" on single-hardware-thread hosts).
// The tune suffix reports where ilaenv's knob values come from right now:
// "builtin", "file" (loaded tuning file), "api" (tune::install), with
// "+env" appended when at least one LAPACK90_* knob variable pins a value
// above all of them — so benches and bug reports show what was in effect.
// The serve suffix confirms the async serving subsystem (la::serve) is
// compiled into this build; the net suffix does the same for the remote
// serving front end (la::net — wire protocol, listener, client).
const char* version() noexcept {
  static thread_local char buf[128];
  const char* tune_src = tune::source();
  std::snprintf(buf, sizeof buf,
                "1.7.0 (simd: %s, threads: %s, tune: %s%s, serve: on, "
                "net: on)",
                simd_isa_name(), thread_backend_name(), tune_src,
                detail::any_env_knob_set() ? "+env" : "");
  return buf;
}

}  // namespace la
