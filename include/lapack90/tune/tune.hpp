// lapack90/tune/tune.hpp
//
// The machine signature: the ISA the library lowered to, the L1d/L2/L3
// data cache sizes and the default worker count, in one canonical string.
// Bench reports stamp it into their JSON context, and the perf gate
// (bench/perf_check.hpp) compares a baseline's ISA and worker count
// against it before gating; the cache sizes are recorded as information.
//
// ilaenv's knob values are not tuned per machine: they resolve env var >
// set_env_override > builtin (see core/env.hpp).
#pragma once

#include <string>

#include "lapack90/core/types.hpp"

namespace la::tune {

/// What the deployment machine looks like. Cache sizes are bytes, 0 when
/// the platform does not report a level.
struct MachineSignature {
  const char* isa;  ///< la::simd_isa_name() of the library build
  long l1d;         ///< L1 data cache size in bytes
  long l2;          ///< L2 cache size in bytes
  long l3;          ///< L3 cache size in bytes
  idx threads;      ///< detail::default_thread_count()

  /// Canonical form: "<isa>-l1:<b>-l2:<b>-l3:<b>-nt:<k>".
  [[nodiscard]] std::string str() const;
};

/// Probe the current machine (ISA + sysconf cache geometry + workers).
[[nodiscard]] MachineSignature machine_signature() noexcept;

/// Always "": no tuning file is read. Kept for callers that report which
/// file was in effect; an empty path reads as "off".
[[nodiscard]] std::string default_tune_file();

}  // namespace la::tune
