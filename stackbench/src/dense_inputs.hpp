// stackbench/src/dense_inputs.hpp — the seeded operands of dense_solve,
// shared with the ladder, which times the computational routines on the
// same matrices.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common.hpp"
#include "lapack90/lapack90.hpp"

namespace stackbench {

using la::idx;

/// The paper's Appendix F acceptance threshold for scaled residuals.
inline constexpr double kAppendixFThreshold = 30.0;

struct DenseSizes {
  idx n = 1024;     ///< gesv / posv order
  idx ls_m = 2048;  ///< gels rows (columns = n)

  static DenseSizes for_options(const Options& opt) {
    return opt.tiny ? DenseSizes{96, 192} : DenseSizes{};
  }
};

enum class DenseKind { gesv = 0, posv = 1, gels = 2 };

/// One pristine problem: column-major A (m x n), right-hand side b (m).
struct DenseProblem {
  idx m = 0, n = 0;
  std::vector<double> a, b;
  double anorm = 0.0;  ///< ||A||_inf
  double flops = 0.0;  ///< nominal LAPACK flop count of one solve
};

class DenseInputs {
 public:
  static constexpr std::uint64_t kVariants = 2;

  DenseInputs() = default;
  DenseInputs(const DenseSizes& sz, std::uint64_t seed) {
    Rng rng(seed);
    const double n = static_cast<double>(sz.n);
    const double m = static_cast<double>(sz.ls_m);
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      // gesv: a dense random matrix.
      DenseProblem ge = random_problem(rng, sz.n, sz.n);
      ge.flops = 2.0 / 3.0 * n * n * n + 2.0 * n * n;
      // posv: symmetric and diagonally dominant, hence positive definite.
      DenseProblem po = random_problem(rng, sz.n, sz.n);
      const auto nn = static_cast<std::size_t>(sz.n);
      for (std::size_t j = 0; j < nn; ++j) {
        for (std::size_t i = j + 1; i < nn; ++i) {
          po.a[j * nn + i] = po.a[i * nn + j];
        }
        po.a[j * nn + j] += n;
      }
      po.flops = 1.0 / 3.0 * n * n * n + 2.0 * n * n;
      // gels: an overdetermined but consistent system b = A x0, so the
      // least-squares residual is pure rounding and the backward-error
      // test applies unchanged.
      DenseProblem ls = random_problem(rng, sz.ls_m, sz.n);
      std::vector<double> x0(nn);
      for (auto& x : x0) {
        x = rng.sym();
      }
      std::fill(ls.b.begin(), ls.b.end(), 0.0);
      const auto mm = static_cast<std::size_t>(sz.ls_m);
      for (std::size_t j = 0; j < nn; ++j) {
        for (std::size_t i = 0; i < mm; ++i) {
          ls.b[i] += ls.a[j * mm + i] * x0[j];
        }
      }
      ls.flops = 2.0 * m * n * n - 2.0 / 3.0 * n * n * n + 4.0 * m * n -
                 2.0 * n * n + n * n;
      for (DenseProblem* p : {&ge, &po, &ls}) {
        p->anorm = inf_norm(*p);
      }
      probs_[0].push_back(std::move(ge));
      probs_[1].push_back(std::move(po));
      probs_[2].push_back(std::move(ls));
    }
    warm_pool();
  }

  [[nodiscard]] const DenseProblem& pick(DenseKind k, std::uint64_t v) const {
    return probs_[static_cast<int>(k)][v];
  }

 private:
  static DenseProblem random_problem(Rng& rng, idx m, idx n) {
    DenseProblem p;
    p.m = m;
    p.n = n;
    p.a.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    p.b.resize(static_cast<std::size_t>(m));
    for (auto& v : p.a) {
      v = rng.sym();
    }
    for (auto& v : p.b) {
      v = rng.sym();
    }
    return p;
  }

  static double inf_norm(const DenseProblem& p) {
    const auto m = static_cast<std::size_t>(p.m);
    std::vector<double> rows(m, 0.0);
    for (std::size_t j = 0; j < static_cast<std::size_t>(p.n); ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        rows[i] += std::abs(p.a[j * m + i]);
      }
    }
    return *std::max_element(rows.begin(), rows.end());
  }

  /// One small parallel solve so the worker team exists before timing.
  static void warm_pool() {
    const idx n = 256;
    la::Matrix<double> a(n, n);
    la::Vector<double> b(n);
    for (idx i = 0; i < n; ++i) {
      a(i, i) = 1.0;
      b.data()[i] = 1.0;
    }
    idx info = 0;
    la::gesv(a, b, {}, &info);
  }

  std::vector<DenseProblem> probs_[3];
};

}  // namespace stackbench
