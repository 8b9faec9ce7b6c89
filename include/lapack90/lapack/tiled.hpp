// lapack90/lapack/tiled.hpp
//
// Task-DAG tiled factorizations: the tile structs and graph builders behind
// lapack::getrf / potrf / geqrf. Each recasts its factorization onto square
// tile kernels (getrf_tile, trsm_tile, gemm_tile, herk_tile, geqrf_tile,
// larfb_tile) scheduled by core/dag.hpp with panel lookahead — panel k+1
// factors as soon as the tiles feeding it drain, while step-k trailing
// updates are still in flight. The QR panel task also applies the previous
// step's update to its own column tile, so no other task sits between two
// QR panels. The tile edge is ilaenv's NB (EnvSpec::BlockSize); the drivers
// in lu.hpp, cholesky.hpp and qr.hpp gate on it (tiled_fwd.hpp,
// detail::tile_edge).
//
// Each factorization is split into a build step (detail::build declares
// every tile task with the tiles it reads and writes; TaskGraph derives the
// edges) and a run step (TaskGraph::run, in the driver). Tiles are keyed by
// (row tile, column tile) for LU and Cholesky and by column tile for QR.
//
// Determinism: a tile's value is produced by a fixed chain of kernel calls
// (ordered by panel step), and every pair of tasks that touch the same
// tile is ordered by a derived edge — so any topological execution order,
// hence any worker count, yields identical bits per fixed tile schedule.
// tests/test_dag.cpp drains the built graphs in seeded random orders to
// check it. See DESIGN.md section 14 for the full argument.
//
// Include order: the family headers (lu.hpp, cholesky.hpp, qr.hpp) include
// lapack/tiled_fwd.hpp at the top (dispatch gate + forward declarations)
// and this header at the bottom; this header includes all three families
// so the tile kernels resolve regardless of which header a TU pulls first.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <vector>

#include "lapack90/blas/level3.hpp"
#include "lapack90/core/dag.hpp"
#include "lapack90/core/error.hpp"
#include "lapack90/core/types.hpp"
#include "lapack90/lapack/aux.hpp"
#include "lapack90/lapack/cholesky.hpp"
#include "lapack90/lapack/lu.hpp"
#include "lapack90/lapack/qr.hpp"
#include "lapack90/lapack/tiled_fwd.hpp"

namespace la::lapack::tiled::detail {

/// Half-open index range [lo, hi) — one tile edge.
struct Range {
  idx lo;
  idx hi;
  [[nodiscard]] idx len() const noexcept { return hi - lo; }
};

/// Split [lo, hi) at multiples of nb. The first range may be a fragment
/// (when lo is unaligned); all later ranges start on tile boundaries, so
/// `r.lo / nb` is a stable global tile index across panel steps.
[[nodiscard]] inline std::vector<Range> tile_ranges(idx lo, idx hi, idx nb) {
  std::vector<Range> r;
  for (idx p = lo; p < hi;) {
    const idx e = std::min<idx>(hi, (p / nb + 1) * nb);
    r.push_back({p, e});
    p = e;
  }
  return r;
}

struct LarfbWorkTag {};  // larfb scratch inside tiled QR panel and update tasks

using Key = TaskGraph::Key;
constexpr auto kHigh = TaskGraph::Priority::High;
constexpr auto kNormal = TaskGraph::Priority::Normal;

// ---------------------------------------------------------------------------
// LU: PA = LU with partial pivoting across the full trailing rows.
//
// Tasks per panel step s (panel columns [j0, j0+jb) of k = min(m,n)):
//   P_s           getrf_tile: recursive getrf2 on rows [j0, m), absolute
//                 pivots
//   S_{s,c}       trsm_tile:  row swaps + L11^{-1} solve on column range c
//   G_{s,r,c}     gemm_tile:  A(r,c) -= L(r,s) U(s,c)
// Pivot row swaps left of each panel are applied serially after the graph
// drains (finish) — those columns are never read by any task, so deferring
// them is arithmetically identical to LAPACK's interleaved scheme. Unlike
// QR's, the panel does not fold in step s-1's update of its own column
// tile: the fold measured level at n = 1024 (DESIGN.md section 14, "LU
// panel").
// ---------------------------------------------------------------------------
template <Scalar T>
struct LuTiles {
  idx m, n, k, nb;
  T* a;
  idx lda;
  idx* ipiv;
  std::atomic<idx> info{0};

  [[nodiscard]] T* at(idx i, idx j) const noexcept {
    return a + static_cast<std::size_t>(j) * lda + i;
  }
  [[nodiscard]] idx j0(idx s) const noexcept { return s * nb; }
  [[nodiscard]] idx jb(idx s) const noexcept {
    return std::min<idx>(nb, k - s * nb);
  }

  /// Panel factorization (getrf2 over the full remaining rows). The first
  /// singular pivot wins the INFO race; panels are chain-ordered by the
  /// schedule, so the winner is deterministic.
  void getrf_tile(idx s) noexcept {
    const idx j = j0(s), w = jb(s);
    const idx pinfo = getrf2(m - j, w, at(j, j), lda, ipiv + j);
    if (pinfo != 0) {
      idx expected = 0;
      info.compare_exchange_strong(expected, pinfo + j,
                                   std::memory_order_relaxed);
    }
    for (idx i = j; i < j + w; ++i) {
      ipiv[i] += j;
    }
  }

  /// Apply step-s row interchanges to column range c, then U := L11^{-1} U.
  void trsm_tile(idx s, Range c) noexcept {
    const idx j = j0(s), w = jb(s);
    laswp(c.len(), at(0, c.lo), lda, j, j + w, ipiv);
    blas::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, w,
               c.len(), T(1), at(j, j), lda, at(j, c.lo), lda);
  }

  /// Rank-jb trailing update of the (r, c) tile.
  void gemm_tile(idx s, Range r, Range c) noexcept {
    const idx j = j0(s), w = jb(s);
    blas::gemm(Trans::NoTrans, Trans::NoTrans, r.len(), c.len(), w, T(-1),
               at(r.lo, j), lda, at(j, c.lo), lda, T(1), at(r.lo, c.lo), lda);
  }

  /// After the graph drains: the deferred interchanges left of each panel
  /// (columns [0, j0(s))). Returns INFO.
  idx finish() noexcept {
    const idx steps = (k + nb - 1) / nb;
    for (idx s = 1; s < steps; ++s) {
      laswp(j0(s), a, lda, j0(s), j0(s) + jb(s), ipiv);
    }
    return info.load(std::memory_order_relaxed);
  }
};

/// P_s writes the panel's column tile from row tile s down; S_{s,c} reads
/// the L11 tile (and the step's pivots with it) and writes column tile c
/// from row tile s down (its row swaps reach any row below the panel);
/// G_{s,r,c} reads L(r,s) and U(s,c) and writes tile (r,c).
template <Scalar T>
void build(TaskGraph& g, LuTiles<T>& t) {
  const idx nb = t.nb;
  const idx steps = (t.k + nb - 1) / nb;
  const idx mt = (t.m + nb - 1) / nb;
  const idx nt = (t.n + nb - 1) / nb;
  const auto tile = [nt](idx r, idx c) -> Key { return r * nt + c; };
  std::vector<Key> below;  // tiles of one column tile from row tile s down
  const auto column = [&](idx s, idx c) -> const std::vector<Key>& {
    below.clear();
    for (idx r = s; r < mt; ++r) {
      below.push_back(tile(r, c));
    }
    return below;
  };
  for (idx s = 0; s < steps; ++s) {
    g.add([&t, s] { t.getrf_tile(s); }, {}, column(s, s), kHigh);
    const idx j = t.j0(s) + t.jb(s);
    const auto cols = tile_ranges(j, t.n, nb);
    const auto rows = tile_ranges(j, t.m, nb);
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      const Range c = cols[ci];
      const idx ct = c.lo / nb;
      // The first trailing range feeds panel s+1: keep it on the critical
      // path so the lookahead panel can start early.
      const auto pr = ci == 0 ? kHigh : kNormal;
      g.add([&t, s, c] { t.trsm_tile(s, c); }, std::array{tile(s, s)},
            column(s, ct), pr);
      for (const Range r : rows) {
        const idx rt = r.lo / nb;
        g.add([&t, s, r, c] { t.gemm_tile(s, r, c); },
              std::array{tile(rt, s), tile(s, ct)}, std::array{tile(rt, ct)},
              pr);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cholesky: right-looking tiled A = L L^H / U^H U over the n x n grid.
//
// Tasks per step k: F_k (potf2 on the diagonal tile), T_{k,i} (triangular
// solve of the off-diagonal tiles against F_k), Y_{k,i} (herk onto the
// (i,i) diagonal), Z_{k,i,j} (gemm onto the strictly off-diagonal (i,j)).
// Tiles are keyed by their Lower-triangle coordinates for both uplo values.
// Updates onto the same tile are chained by step, pinning the accumulation
// order; a non-positive-definite diagonal cancels the graph with the
// 1-based leading-minor index.
// ---------------------------------------------------------------------------
template <Scalar T>
struct CholTiles {
  using R = real_t<T>;
  Uplo uplo;
  idx n, nb;
  T* a;
  idx lda;

  [[nodiscard]] T* at(idx i, idx j) const noexcept {
    return a + static_cast<std::size_t>(j) * lda + i;
  }
  [[nodiscard]] idx d0(idx i) const noexcept { return i * nb; }
  [[nodiscard]] idx db(idx i) const noexcept {
    return std::min<idx>(nb, n - i * nb);
  }

  /// Diagonal factorization; returns 0 or the 1-based global minor index.
  [[nodiscard]] idx potrf_tile(idx kk) noexcept {
    const idx fi = potf2(uplo, db(kk), at(d0(kk), d0(kk)), lda);
    return fi == 0 ? 0 : fi + d0(kk);
  }

  /// Off-diagonal tile solve against the step-k diagonal factor.
  void trsm_tile(idx kk, idx i) noexcept {
    if (uplo == Uplo::Lower) {
      blas::trsm(Side::Right, Uplo::Lower, conj_trans_for<T>(),
                 Diag::NonUnit, db(i), db(kk), T(1), at(d0(kk), d0(kk)), lda,
                 at(d0(i), d0(kk)), lda);
    } else {
      blas::trsm(Side::Left, Uplo::Upper, conj_trans_for<T>(), Diag::NonUnit,
                 db(kk), db(i), T(1), at(d0(kk), d0(kk)), lda,
                 at(d0(kk), d0(i)), lda);
    }
  }

  /// Rank-nb Hermitian update of the (i,i) diagonal tile.
  void herk_tile(idx kk, idx i) noexcept {
    if (uplo == Uplo::Lower) {
      blas::herk(Uplo::Lower, Trans::NoTrans, db(i), db(kk), R(-1),
                 at(d0(i), d0(kk)), lda, R(1), at(d0(i), d0(i)), lda);
    } else {
      blas::herk(Uplo::Upper, conj_trans_for<T>(), db(i), db(kk), R(-1),
                 at(d0(kk), d0(i)), lda, R(1), at(d0(i), d0(i)), lda);
    }
  }

  /// Off-diagonal gemm update: tile (i,j), i > j > kk (Lower; mirrored for
  /// Upper where the stored tile is (j,i)).
  void gemm_tile(idx kk, idx i, idx j) noexcept {
    if (uplo == Uplo::Lower) {
      blas::gemm(Trans::NoTrans, conj_trans_for<T>(), db(i), db(j), db(kk),
                 T(-1), at(d0(i), d0(kk)), lda, at(d0(j), d0(kk)), lda, T(1),
                 at(d0(i), d0(j)), lda);
    } else {
      blas::gemm(conj_trans_for<T>(), Trans::NoTrans, db(j), db(i), db(kk),
                 T(-1), at(d0(kk), d0(j)), lda, at(d0(kk), d0(i)), lda, T(1),
                 at(d0(j), d0(i)), lda);
    }
  }
};

/// F_k writes tile (k,k); T_{k,i} reads (k,k) and writes (i,k); Y_{k,i}
/// reads (i,k) and writes (i,i); Z_{k,i,j} reads (i,k) and (j,k) and
/// writes (i,j).
template <Scalar T>
void build(TaskGraph& g, CholTiles<T>& t) {
  const idx nt = (t.n + t.nb - 1) / t.nb;
  const auto tile = [nt](idx i, idx j) -> Key { return i * nt + j; };
  for (idx kk = 0; kk < nt; ++kk) {
    g.add(
        [&t, &g, kk] {
          if (const idx fi = t.potrf_tile(kk)) {
            g.cancel(fi);
          }
        },
        {}, std::array{tile(kk, kk)}, kHigh);
    for (idx i = kk + 1; i < nt; ++i) {
      g.add([&t, kk, i] { t.trsm_tile(kk, i); }, std::array{tile(kk, kk)},
            std::array{tile(i, kk)}, kHigh);
    }
    for (idx i = kk + 1; i < nt; ++i) {
      // The (k+1, k+1) diagonal update feeds the next panel: high priority
      // is what lets F_{k+1} factor while step-k gemm tiles still drain.
      g.add([&t, kk, i] { t.herk_tile(kk, i); }, std::array{tile(i, kk)},
            std::array{tile(i, i)}, i == kk + 1 ? kHigh : kNormal);
      for (idx j = kk + 1; j < i; ++j) {
        g.add([&t, kk, i, j] { t.gemm_tile(kk, i, j); },
              std::array{tile(i, kk), tile(j, kk)}, std::array{tile(i, j)},
              kNormal);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QR: tiled blocked Householder, one chain task per step.
//
// Tasks per panel step s (panel columns [j0, j0+jb) of k = min(m,n)):
//   P_s       geqrf_tile: apply step s-1's block reflector to column tile s
//             (larfb), then factor the panel's columns with the recursive
//             geqrt3, which returns V, tau and this step's T together
//   U_{s,c}   larfb_tile: apply step s's block reflector to column range c,
//             for every trailing range but column tile s+1, which P_{s+1}
//             updates itself and then factors while it is still in cache
// So the critical path is the chain P_0 -> P_1 -> ... with no task between
// two panels. The T factors live in driver storage, one nb x nb slot per
// step. Per-task workspaces come from thread-local buffers guarded by the
// alloc_should_fail probe: a failed probe cancels the remaining graph and
// surfaces INFO = -100.
// ---------------------------------------------------------------------------
template <Scalar T>
struct QrTiles {
  idx m, n, k, nb;
  T* a;
  idx lda;
  T* tau;
  T* tstore;  // steps * nb * nb, T factor of step s at tstore + s*nb*nb

  [[nodiscard]] T* at(idx i, idx j) const noexcept {
    return a + static_cast<std::size_t>(j) * lda + i;
  }
  [[nodiscard]] idx j0(idx s) const noexcept { return s * nb; }
  [[nodiscard]] idx jb(idx s) const noexcept {
    return std::min<idx>(nb, k - s * nb);
  }
  [[nodiscard]] T* tslot(idx s) const noexcept {
    return tstore + static_cast<std::size_t>(s) * nb * nb;
  }

  /// Panel P_s: step s-1's update of column tile s, then geqrt3 over the
  /// remaining rows into tau and this step's T slot. Returns false, having
  /// done nothing, when the update's workspace probe fails.
  [[nodiscard]] bool geqrf_tile(idx s) noexcept {
    const idx j = j0(s), w = jb(s);
    if (s > 0 && !larfb_tile(s - 1, {j, std::min<idx>(n, j + nb)})) {
      return false;
    }
    geqrt3(m - j, w, at(j, j), lda, tau + j, tslot(s), w);
    return true;
  }

  /// Apply the step-s compact-WY block to column range c. Returns false,
  /// having done nothing, when the workspace probe fails.
  [[nodiscard]] bool larfb_tile(idx s, Range c) noexcept {
    if (alloc_should_fail()) {
      return false;
    }
    const idx j = j0(s), w = jb(s);
    T* const work = la::detail::work_buffer<T, LarfbWorkTag>(
        static_cast<std::size_t>(c.len()) * nb);
    larfb(Side::Left, conj_trans_for<T>(), m - j, c.len(), w, at(j, j), lda,
          tslot(s), w, at(j, c.lo), lda, work, std::max<idx>(c.len(), 1));
    return true;
  }
};

/// P_s reads column tile s-1 (V and T of step s-1) and writes column tile
/// s (and the step's tau and T slot with it); U_{s,c} reads column tile s
/// and writes column tile c. P_s is added before the updates of step s-1,
/// so it leads them in the High FIFO. The first update of each step feeds
/// the panel two steps on and runs High with the panels. A failed
/// workspace probe cancels the graph with INFO = -100.
template <Scalar T>
void build(TaskGraph& g, QrTiles<T>& t) {
  const idx nb = t.nb;
  const idx steps = (t.k + nb - 1) / nb;
  // U_{s,c} for every column range c of [from, n).
  const auto updates = [&](idx s, idx from) {
    const auto cols = tile_ranges(from, t.n, nb);
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      const Range c = cols[ci];
      g.add(
          [&t, &g, s, c] {
            if (!t.larfb_tile(s, c)) {
              g.cancel(-100);
            }
          },
          std::array{s}, std::array{c.lo / nb}, ci == 0 ? kHigh : kNormal);
    }
  };
  for (idx s = 0; s < steps; ++s) {
    const auto panel = [&t, &g, s] {
      if (!t.geqrf_tile(s)) {
        g.cancel(-100);
      }
    };
    if (s == 0) {
      g.add(panel, {}, std::array{s}, kHigh);
    } else {
      g.add(panel, std::array{s - 1}, std::array{s}, kHigh);
      updates(s - 1, t.j0(s) + nb);  // column tile s went to P_s
    }
  }
  updates(steps - 1, t.j0(steps - 1) + t.jb(steps - 1));
}

}  // namespace la::lapack::tiled::detail
