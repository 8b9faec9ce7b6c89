// la::tune — the machine signature. See include/lapack90/tune/tune.hpp.

#include "lapack90/tune/tune.hpp"

#include <cstdio>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "lapack90/core/parallel.hpp"
#include "lapack90/core/simd.hpp"

namespace la::tune {

namespace {

long cache_size_bytes(int level) noexcept {
#if defined(_SC_LEVEL1_DCACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE) && \
    defined(_SC_LEVEL3_CACHE_SIZE)
  long v = -1;
  switch (level) {
    case 1:
      v = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
      break;
    case 2:
      v = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
      break;
    case 3:
      v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
      break;
    default:
      break;
  }
  return v > 0 ? v : 0;
#else
  (void)level;
  return 0;
#endif
}

}  // namespace

std::string MachineSignature::str() const {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s-l1:%ld-l2:%ld-l3:%ld-nt:%ld", isa, l1d,
                l2, l3, static_cast<long>(threads));
  return buf;
}

MachineSignature machine_signature() noexcept {
  return MachineSignature{simd_isa_name(), cache_size_bytes(1),
                          cache_size_bytes(2), cache_size_bytes(3),
                          la::detail::default_thread_count()};
}

std::string default_tune_file() { return {}; }

}  // namespace la::tune
