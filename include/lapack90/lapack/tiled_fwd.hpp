// lapack90/lapack/tiled_fwd.hpp
//
// Light-weight front door for the tiled factorizations: the scheduler
// switch, the tile-size query, the dispatch gate, and forward declarations
// of the tiled drivers. The legacy family headers (lu.hpp, cholesky.hpp,
// qr.hpp) include THIS at the top so their blocked drivers can dispatch,
// and include lapack/tiled.hpp (the definitions, which in turn use getf2 /
// potf2 / geqr2 / larft / larfb) at the bottom — breaking the cycle
// without a separate compilation unit.
#pragma once

#include <algorithm>

#include "lapack90/core/env.hpp"
#include "lapack90/core/types.hpp"

namespace la {

/// Which runtime drives getrf/potrf/geqrf past the blocking crossover.
/// Backed by EnvSpec::TileScheduler (LAPACK90_TILE_SCHEDULER): 1 selects
/// the legacy fork-join path, any other value the DAG.
enum class TileScheduler : int {
  ForkJoin = 1,  ///< legacy blocked loops, parallel_for inside each BLAS
  TiledDag = 3,  ///< tile kernels on the task-DAG with panel lookahead
};

/// Current scheduler selection.
[[nodiscard]] inline TileScheduler tile_scheduler() noexcept {
  return ilaenv(EnvSpec::TileScheduler, EnvRoutine::getrf, 0) <= 1
             ? TileScheduler::ForkJoin
             : TileScheduler::TiledDag;
}

/// Process-wide scheduler override; returns the previous selection (the
/// effective one — an explicit override if set, else the environment
/// default — so a save/set/restore round trip always lands back on the
/// selection that was live before the set).
inline TileScheduler set_tile_scheduler(TileScheduler s) noexcept {
  const TileScheduler prev = tile_scheduler();
  set_env_override(EnvSpec::TileScheduler, EnvRoutine::getrf,
                   static_cast<idx>(s));
  return prev;
}

namespace lapack::tiled {

/// Tile edge for `routine` at problem size k (EnvSpec::TileSize,
/// LAPACK90_TILE_NB; per-routine overridable via set_env_override).
[[nodiscard]] inline idx tile_nb(EnvRoutine routine, idx k) noexcept {
  return ilaenv(EnvSpec::TileSize, routine, k);
}

/// Dispatch gate shared by the three drivers: the tiled path engages only
/// past the legacy blocking crossover AND when the problem spans at least
/// two tiles. Degenerate shapes (k <= 0, single tile, nb >= k) stay on the
/// legacy path and never build a task graph (see DESIGN.md section 14).
[[nodiscard]] inline bool enabled(EnvRoutine routine, idx m, idx n) noexcept {
  if (tile_scheduler() == TileScheduler::ForkJoin) {
    return false;
  }
  const idx k = std::min(m, n);
  if (k <= 0) {
    return false;
  }
  const idx nb = tile_nb(routine, k);
  if (nb <= 1 || k <= nb) {
    return false;  // single tile: the blocked/unblocked path is strictly
                   // better and degenerate shapes must not touch the DAG
  }
  return block_size(routine, k) > 1;  // below the crossover: stay unblocked
}

// Tiled drivers (definitions in lapack/tiled.hpp). Contracts match the
// blocked originals; geqrf additionally returns 0 or -100 (workspace).
template <Scalar T>
idx getrf(idx m, idx n, T* a, idx lda, idx* ipiv);
template <Scalar T>
idx potrf(Uplo uplo, idx n, T* a, idx lda);
template <Scalar T>
idx geqrf(idx m, idx n, T* a, idx lda, T* tau);

}  // namespace lapack::tiled
}  // namespace la
