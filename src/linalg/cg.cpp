#include "linalg/cg.h"
#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>

namespace parsdd {

std::vector<IterStats> block_conjugate_gradient(const BlockLinOp& a,
                                                const MultiVec& b, MultiVec& x,
                                                const CgOptions& opts,
                                                const BlockLinOp* precond,
                                                BlockScratch* scratch,
                                                const std::vector<IterStats>*
                                                    resume) {
  std::size_t n = b.rows(), k = b.cols();
  std::vector<IterStats> stats = resume ? *resume : std::vector<IterStats>(k);
  if (k == 0) return stats;
  BlockScratch local;
  BlockScratch& s = scratch ? *scratch : local;
  ensure_shape(s.r, n, k);
  ensure_shape(s.z, n, k);
  ensure_shape(s.p, n, k);
  ensure_shape(s.ap, n, k);
  if (opts.flexible) ensure_shape(s.r_prev, n, k);
  ensure_shape(x, n, k);

  const ColScalars minus_one(k, -1.0);
  // r = b - A x
  a(x, s.ap);
  kernels::copy_cols(b, s.r);
  kernels::axpy_cols(minus_one, s.ap, s.r);
  if (opts.project_constant) kernels::project_out_constant_cols(s.r);

  ColScalars bnorm = kernels::norm2_cols(b);
  ColMask alive(k, 1);
  std::size_t remaining = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (bnorm[c] == 0.0) {
      for (std::size_t i = 0; i < n; ++i) x.at(i, c) = 0.0;
      stats[c].converged = true;
    }
    if (stats[c].converged) {
      alive[c] = 0;
      --remaining;
    }
  }
  std::uint32_t cap = opts.max_iterations;
  if (opts.rate_budget > 0) cap = std::min(cap, opts.rate_budget);
  // The rate check of a run with budget J at checkpoint s = 4, 8, 16, ….
  auto leaves = [&opts](std::uint32_t step, double relative_residual) {
    if (opts.rate_budget == 0 || step < 4 || (step & (step - 1)) != 0) {
      return false;
    }
    double exponent = static_cast<double>(step) / opts.rate_budget;
    return relative_residual > std::pow(opts.tolerance, exponent);
  };

  auto apply_precond = [&](const MultiVec& in, MultiVec& out) {
    if (precond) {
      (*precond)(in, out);
      if (opts.project_constant) kernels::project_out_constant_cols(out);
    } else {
      ensure_shape(out, in.rows(), in.cols());
      kernels::copy_cols(in, out);
    }
  };
  ColScalars rz(k, 0.0), alpha(k, 0.0), beta(k, 0.0);

  // Each pass tests the current r before preconditioning it, so the loop
  // never computes a z that no later step reads: the last pass stops on the
  // tolerance, the iteration cap or the rate check without a preconditioner
  // application.
  for (std::uint32_t it = 0;; ++it) {
    ColScalars rnorm = kernels::norm2_cols(s.r);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      stats[c].relative_residual = rnorm[c] / bnorm[c];
      if (stats[c].relative_residual <= opts.tolerance) {
        stats[c].converged = true;
        alive[c] = 0;
        --remaining;
      } else if (stats[c].iterations >= cap ||
                 leaves(stats[c].iterations, stats[c].relative_residual)) {
        alive[c] = 0;
        --remaining;
      }
    }
    if (remaining == 0) break;
    apply_precond(s.r, s.z);
    if (it == 0) {
      kernels::copy_cols(s.z, s.p);
      rz = kernels::dot_cols(s.r, s.z);
    } else {
      ColScalars rz_next = kernels::dot_cols(s.r, s.z);
      if (opts.flexible) {
        // Polak–Ribière per column, tolerant of the varying preconditioner.
        ColScalars num = kernels::dot_diff_cols(s.z, s.r, s.r_prev);
        for (std::size_t c = 0; c < k; ++c) beta[c] = num[c] / rz[c];
      } else {
        for (std::size_t c = 0; c < k; ++c) beta[c] = rz_next[c] / rz[c];
      }
      for (std::size_t c = 0; c < k; ++c) {
        if (!alive[c]) continue;
        if (!std::isfinite(beta[c])) {
          alive[c] = 0;
          --remaining;
          continue;
        }
        if (beta[c] < 0.0) beta[c] = 0.0;  // restart direction
        rz[c] = rz_next[c];
      }
      kernels::xpay_cols(s.z, beta, s.p, &alive);
      if (remaining == 0) break;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (alive[c]) ++stats[c].iterations;
    }
    a(s.p, s.ap);
    ColScalars pap = kernels::dot_cols(s.p, s.ap);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      if (!(pap[c] > 0.0)) {  // numerical breakdown on this column
        alive[c] = 0;
        --remaining;
        alpha[c] = 0.0;
      } else {
        alpha[c] = rz[c] / pap[c];
      }
    }
    if (remaining == 0) break;
    kernels::axpy_cols(alpha, s.p, x, &alive);
    if (opts.flexible) kernels::copy_cols(s.r, s.r_prev, &alive);
    ColScalars neg_alpha(k);
    for (std::size_t c = 0; c < k; ++c) neg_alpha[c] = -alpha[c];
    kernels::axpy_cols(neg_alpha, s.ap, s.r, &alive);
    if (opts.project_constant) kernels::project_out_constant_cols(s.r, &alive);
  }

  // Columns that hit the cap, left on the rate check or broke down: their r
  // froze with them, so the exit residual matches what a single solve would
  // have reported.
  ColScalars rnorm = kernels::norm2_cols(s.r);
  for (std::size_t c = 0; c < k; ++c) {
    if (stats[c].converged) continue;
    if (bnorm[c] == 0.0) continue;
    stats[c].relative_residual = rnorm[c] / bnorm[c];
    stats[c].converged = stats[c].relative_residual <= opts.tolerance;
  }
  return stats;
}

}  // namespace parsdd
