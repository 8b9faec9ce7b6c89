// lapack90/lapack/tiled_fwd.hpp
//
// Light-weight front door for the tiled factorizations: the dispatch gate
// and forward declarations of the tile structs and their graph builders.
// The family headers (lu.hpp, cholesky.hpp, qr.hpp) include THIS at the
// top so their drivers can name the tile pieces, and include
// lapack/tiled.hpp (the definitions, which in turn use getrf2 / potf2 /
// geqrt3 / larfb) at the bottom — breaking the cycle without a
// separate compilation unit.
#pragma once

#include "lapack90/core/dag.hpp"
#include "lapack90/core/env.hpp"
#include "lapack90/core/types.hpp"

namespace la::lapack::tiled::detail {

/// The one dispatch gate of getrf/potrf/geqrf: the tile edge for a problem
/// whose smaller dimension is k, or 0 when the unblocked kernel runs.
/// The edge is NB = block_size(routine, k), which is 1 below the blocking
/// crossover; NB >= k would be a single tile. Neither case, nor k <= 0,
/// builds a task graph (see DESIGN.md section 14).
[[nodiscard]] inline idx tile_edge(EnvRoutine routine, idx k) noexcept {
  const idx nb = block_size(routine, k);
  return nb > 1 && nb < k ? nb : 0;
}

// Tile structs and graph builders (definitions in lapack/tiled.hpp).
template <Scalar T>
struct LuTiles;
template <Scalar T>
struct CholTiles;
template <Scalar T>
struct QrTiles;
template <Scalar T>
void build(TaskGraph& g, LuTiles<T>& t);
template <Scalar T>
void build(TaskGraph& g, CholTiles<T>& t);
template <Scalar T>
void build(TaskGraph& g, QrTiles<T>& t);

}  // namespace la::lapack::tiled::detail
