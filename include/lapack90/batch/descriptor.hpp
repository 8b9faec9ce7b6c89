// lapack90/batch/descriptor.hpp
//
// Batch descriptors for the many-small-problem drivers (la::batch). A
// MatrixBatch names `count` matrices without owning them, in one of two
// layouts:
//
//   * strided  — one contiguous allocation, entry i at base + i*stride
//                (uniform dimensions; the layout an inference stack's
//                activation buffers already have);
//   * ragged   — an array of entry base pointers with per-entry
//                dimension arrays (variable-size batches).
//
// The descriptor is a trivially-copyable view bundle: the batch drivers
// read it from every worker thread concurrently, so it carries no state
// beyond the layout description. Entry access compiles down to the same
// pointer + leading-dimension pair the computational layer consumes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>

#include "lapack90/core/types.hpp"

namespace la::batch {

/// Non-owning description of `count` matrices in one of the batched
/// layouts (strided / ragged). See file comment.
template <Scalar T>
class MatrixBatch {
 public:
  MatrixBatch() = default;

  /// Uniform batch in one allocation: entry i is the rows x cols matrix at
  /// `base + i * stride` with leading dimension ld (stride in elements,
  /// stride >= ld * cols so entries do not overlap).
  [[nodiscard]] static MatrixBatch strided(T* base, idx rows, idx cols,
                                           idx ld, std::ptrdiff_t stride,
                                           idx count) noexcept {
    assert(count >= 0 && rows >= 0 && cols >= 0 && ld >= std::max<idx>(rows, 1));
    assert(count <= 1 ||
           stride >= static_cast<std::ptrdiff_t>(ld) * cols);
    MatrixBatch b;
    b.base_ = base;
    b.stride_ = stride;
    b.rows_ = rows;
    b.cols_ = cols;
    b.ld_ = ld;
    b.count_ = count;
    return b;
  }

  /// Variable-size batch: entry i is the rows[i] x cols[i] matrix at
  /// ptrs[i]. `lds` may be nullptr, meaning ld(i) == max(rows[i], 1)
  /// (freshly allocated storage).
  [[nodiscard]] static MatrixBatch ragged(T* const* ptrs, const idx* rows,
                                          const idx* cols, const idx* lds,
                                          idx count) noexcept {
    MatrixBatch b;
    b.ptrs_ = ptrs;
    b.rows_v_ = rows;
    b.cols_v_ = cols;
    b.lds_v_ = lds;
    b.count_ = count;
    for (idx i = 0; i < count; ++i) {
      b.rows_ = std::max(b.rows_, rows[i]);
      b.cols_ = std::max(b.cols_, cols[i]);
    }
    return b;
  }

  [[nodiscard]] idx count() const noexcept { return count_; }

  [[nodiscard]] idx rows(idx i) const noexcept {
    assert(i >= 0 && i < count_);
    return rows_v_ != nullptr ? rows_v_[i] : rows_;
  }
  [[nodiscard]] idx cols(idx i) const noexcept {
    assert(i >= 0 && i < count_);
    return cols_v_ != nullptr ? cols_v_[i] : cols_;
  }
  [[nodiscard]] idx ld(idx i) const noexcept {
    assert(i >= 0 && i < count_);
    if (lds_v_ != nullptr) {
      return lds_v_[i];
    }
    if (rows_v_ != nullptr) {
      return std::max<idx>(rows_v_[i], 1);
    }
    return ld_;
  }
  [[nodiscard]] T* ptr(idx i) const noexcept {
    assert(i >= 0 && i < count_);
    return ptrs_ != nullptr
               ? ptrs_[i]
               : base_ + static_cast<std::ptrdiff_t>(i) * stride_;
  }

  /// Largest row / column count over the batch (O(1): precomputed for
  /// ragged batches). The scheduler's grain decision keys off these.
  [[nodiscard]] idx max_rows() const noexcept { return rows_; }
  [[nodiscard]] idx max_cols() const noexcept { return cols_; }

 private:
  T* base_ = nullptr;            // strided layout
  std::ptrdiff_t stride_ = 0;
  T* const* ptrs_ = nullptr;     // ragged layout
  const idx* rows_v_ = nullptr;  // ragged dimension arrays (else uniform)
  const idx* cols_v_ = nullptr;
  const idx* lds_v_ = nullptr;
  idx rows_ = 0;  // uniform dims; max dims for ragged
  idx cols_ = 0;
  idx ld_ = 1;
  idx count_ = 0;
};

}  // namespace la::batch
