#include "lapack90/version.hpp"

#include <cstdio>

#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/core/simd.hpp"

namespace la {

// The ISA suffix reports what the la::simd layer lowered to for this build
// (compile-time dispatch; see core/simd.hpp). It is the library build's view:
// header-only kernels compiled into user TUs follow those TUs' flags. The
// threads suffix names the parallel_for backend the runtime dispatches to
// ("std::thread", or "serial" on single-hardware-thread hosts).
// The knobs suffix reads "builtin", or "builtin+env" when at least one
// LAPACK90_* knob variable pins an ilaenv value — so benches and bug
// reports show what was in effect.
// The serve suffix confirms the async serving subsystem (la::serve) is
// compiled into this build; the net suffix does the same for the remote
// serving front end (la::net — wire protocol, listener, client).
const char* version() noexcept {
  static thread_local char buf[128];
  std::snprintf(buf, sizeof buf,
                "1.7.0 (simd: %s, threads: %s, knobs: builtin%s, serve: on, "
                "net: on)",
                simd_isa_name(), thread_backend_name(),
                detail::any_env_knob_set() ? "+env" : "");
  return buf;
}

}  // namespace la
