// lapack90/core/workspace.hpp
//
// The library's one scratch-memory helper: a per-thread, grow-only buffer
// keyed by (element type, tag). Every routine that needs scratch names its
// own tag for each buffer it takes, so a nested call (gels -> geqrf ->
// gemm, orgtr -> orgqr, a batch worker -> the driver it runs) never
// aliases its caller's buffer. The buffer never shrinks, so a steady-state
// loop over same-sized problems performs no heap allocation.
#pragma once

#include <cstddef>
#include <vector>

namespace la::detail {

/// At least `n` elements of per-thread scratch for the buffer `Tag`; the
/// contents are whatever the previous user on this thread left there.
template <class T, class Tag>
[[nodiscard]] inline T* work_buffer(std::size_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < n) {
    buf.resize(n);
  }
  return buf.data();
}

}  // namespace la::detail
