#include "linalg/jacobi.h"
#include "kernels/kernels.h"

#include <stdexcept>
#include <utility>

#include "parallel/primitives.h"

namespace parsdd {

IterStats jacobi(const CsrMatrix& a, const Vec& b, Vec& x,
                 const JacobiOptions& opts) {
  std::uint32_t n = a.dimension();
  Vec d = a.diagonal();
  for (double v : d) {
    if (!(v > 0.0)) throw std::domain_error("jacobi: non-positive diagonal");
  }
  IterStats stats;
  double bnorm = kernels::norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    stats.converged = true;
    return stats;
  }
  Vec r(n), ax(n);
  for (std::uint32_t it = 0; it < opts.max_iterations; ++it) {
    a.multiply(x, ax);
    parallel_for(0, n, [&](std::size_t i) { r[i] = b[i] - ax[i]; });
    if (opts.project_constant) kernels::project_out_constant(r);
    stats.relative_residual = kernels::norm2(r) / bnorm;
    if (stats.relative_residual <= opts.tolerance) {
      stats.converged = true;
      return stats;
    }
    ++stats.iterations;
    parallel_for(0, n,
                 [&](std::size_t i) { x[i] += opts.damping * r[i] / d[i]; });
  }
  stats.converged = false;
  return stats;
}

std::optional<Vec> inverse_diagonal(const CsrMatrix& a) {
  Vec d = a.diagonal();
  for (double& v : d) {
    if (!(v > 0.0)) return std::nullopt;
    v = 1.0 / v;
  }
  return d;
}

BlockLinOp diagonal_scaling_block(Vec inv_d) {
  return [inv_d = std::move(inv_d)](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    std::size_t k = in.cols();
    parallel_for(0, in.rows(), [&](std::size_t i) {
      const double* ir = in.row(i);
      double* orow = out.row(i);
      for (std::size_t c = 0; c < k; ++c) orow[c] = ir[c] * inv_d[i];
    });
  };
}

BlockLinOp jacobi_preconditioner_block(const CsrMatrix& a) {
  std::optional<Vec> inv_d = inverse_diagonal(a);
  if (!inv_d) throw std::domain_error("jacobi: non-positive diagonal");
  return diagonal_scaling_block(std::move(*inv_d));
}

}  // namespace parsdd
