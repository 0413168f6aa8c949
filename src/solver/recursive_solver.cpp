#include "solver/recursive_solver.h"
#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/jacobi.h"
#include "linalg/laplacian.h"

namespace parsdd {

RecursiveSolver::RecursiveSolver(const SolverChain& chain,
                                 const RecursiveSolverOptions& opts)
    : chain_(chain), opts_(opts) {
  if (opts_.inner != InnerMethod::kChebyshev) return;
  // Measure λmax(B_i⁺ A_i) per level, deepest first, so each level's power
  // iteration runs with the deeper levels' bounds already in place.
  // The iterate is a 1-column block, whose row-major storage is exactly the
  // Vec the single-vector kernels below take.
  level_bounds_.assign(chain_.levels.size(), {0.0, 0.0});
  Workspace ws = make_workspace();
  for (std::size_t i = chain_.levels.size(); i-- > 0;) {
    const ChainLevel& lvl = chain_.levels[i];
    if (!lvl.has_preconditioner) continue;
    MultiVec y(lvl.n, 1), ay(lvl.n, 1), z(lvl.n, 1);
    y.data() = random_unit_like(lvl.n, opts_.seed + i);
    double lmax = 1.0;
    for (std::uint32_t it = 0; it < opts_.power_iterations; ++it) {
      lvl.laplacian.multiply(y.data(), ay.data());
      apply_preconditioner_block(i, ay, z, ws);
      double nrm = kernels::norm2(z.data());
      if (!(nrm > 0.0)) break;
      kernels::scale(1.0 / nrm, z.data());
      std::swap(y, z);
      lvl.laplacian.multiply(y.data(), ay.data());
      double num = kernels::dot(y.data(), ay.data());
      double den = laplacian_quadratic_form(lvl.b_edges, y.data());
      if (den > 0.0) lmax = std::max(lmax, num / den);
    }
    double upper = lmax * opts_.lambda_max_margin;
    double lower = upper / std::max(2.0, lvl.kappa);
    level_bounds_[i] = {lower, upper};
  }
}

std::uint32_t RecursiveSolver::level_iterations(std::size_t i) const {
  if (opts_.inner_iterations > 0) return opts_.inner_iterations;
  double k = std::min(std::max(chain_.levels[i].kappa, 1.0), opts_.kappa_cap);
  return static_cast<std::uint32_t>(std::ceil(std::sqrt(k)));
}

void RecursiveSolver::apply_preconditioner_block(std::size_t i,
                                                 const MultiVec& r,
                                                 MultiVec& z,
                                                 Workspace& ws) const {
  const ChainLevel& lvl = chain_.levels[i];
  Workspace::Level& sc = ws.levels[i];
  lvl.elimination.fold_rhs_block(r, sc.folded, sc.reduced_rhs);
  if (lvl.elimination.reduced_n > 0) {
    apply_level_block(i + 1, sc.reduced_rhs, sc.x_reduced, ws);
  } else {
    sc.x_reduced.assign(0, r.cols(), 0.0);
  }
  lvl.elimination.back_substitute_block(sc.folded, sc.x_reduced, z);
  kernels::project_out_constant_cols(z);
}

void RecursiveSolver::apply_level_block(std::size_t i, const MultiVec& b,
                                        MultiVec& x, Workspace& ws) const {
  const ChainLevel& lvl = chain_.levels[i];
  std::size_t k = b.cols();
  x.assign(lvl.n, k, 0.0);
  if (!lvl.has_preconditioner) {
    // Bottom level: one dense block solve serves every column.
    bottom_visits_.fetch_add(1, std::memory_order_relaxed);
    if (chain_.bottom) {
      MultiVec& rhs = ws.levels[i].folded;  // unused by this level otherwise
      ensure_shape(rhs, b.rows(), k);
      kernels::copy_cols(b, rhs);
      kernels::project_out_constant_cols(rhs);
      chain_.bottom->solve_block(rhs, x);
    }
    return;
  }

  BlockLinOp a_op = [&lvl](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    lvl.laplacian.multiply(in, out);
  };
  BlockLinOp precond = [this, i, &ws](const MultiVec& in, MultiVec& out) {
    apply_preconditioner_block(i, in, out, ws);
  };

  std::uint32_t iters = level_iterations(i);

  if (opts_.inner == InnerMethod::kChebyshev) {
    ChebyshevOptions copts;
    copts.lambda_min = level_bounds_[i].first;
    copts.lambda_max = level_bounds_[i].second;
    // During bounds estimation the level's own bounds are still unset; run
    // with wide provisional bounds (overestimating λmax is safe).
    if (!(copts.lambda_max > 0.0)) {
      copts.lambda_min = 1.0 / std::max(lvl.kappa, 2.0);
      copts.lambda_max = 8.0;
    }
    copts.iterations = iters;
    copts.project_constant = true;
    chebyshev_block(a_op, b, x, copts, &precond, &ws.levels[i].iter);
  } else {
    CgOptions copts;
    copts.tolerance = opts_.inner_tolerance;
    copts.max_iterations = opts_.inner_max_iterations;
    copts.project_constant = true;
    copts.flexible = true;
    block_conjugate_gradient(a_op, b, x, copts, &precond, &ws.levels[i].iter);
  }
}

void RecursiveSolver::apply_block(const MultiVec& b, MultiVec& x,
                                  Workspace& ws) const {
  apply_level_block(0, b, x, ws);
}

std::uint32_t RecursiveSolver::lead_in_budget(const CsrMatrix& amat) const {
  const ChainLevel& top = chain_.levels.front();
  if (chain_.levels.size() != 1 || !top.has_preconditioner) return 0;
  // Counted work per iteration: SpMV plus six vector passes for
  // Jacobi-PCG, and six more per elimination step (fold and
  // back-substitution) for the chain.
  double w_jac = static_cast<double>(amat.num_nonzeros()) + 6.0 * top.n;
  double w_chain =
      w_jac + 6.0 * static_cast<double>(top.elimination.steps.size());
  double j = std::floor(std::sqrt(top.kappa) * w_chain / (8.0 * w_jac));
  if (!(j >= 4.0)) return 0;
  return static_cast<std::uint32_t>(
      std::min(j, double{std::numeric_limits<std::uint32_t>::max()}));
}

std::vector<IterStats> RecursiveSolver::solve_batch(
    const MultiVec& b, MultiVec& x, double tolerance,
    std::uint32_t max_iterations, Workspace& ws, const CsrMatrix* a_top,
    std::vector<std::uint32_t>* lead_in_iterations) const {
  const ChainLevel& top = chain_.levels.front();
  std::size_t k = b.cols();
  // Outer operator: the caller's override (stale-chain update tier) or the
  // chain's own top Laplacian.  A mismatched override cannot be honored
  // safely; fall back to the chain so the solve stays well-defined.
  const CsrMatrix& amat =
      (a_top != nullptr && a_top->dimension() == top.n) ? *a_top
                                                        : top.laplacian;
  BlockLinOp a_op = [&amat](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    amat.multiply(in, out);
  };
  if (x.rows() != top.n || x.cols() != k) x.assign(top.n, k, 0.0);
  if (lead_in_iterations) lead_in_iterations->assign(k, 0);
  // The top-level CGs can safely borrow level 0's iteration scratch: the
  // preconditioner recursion starts at the fold of level 0 (or the bottom
  // solve), neither of which touches levels[0].iter.
  BlockScratch& scratch = ws.levels.front().iter;
  std::vector<IterStats> lead_in;
  std::uint32_t budget = lead_in_budget(amat);
  std::optional<Vec> inv_d;
  if (budget > 0) inv_d = inverse_diagonal(amat);
  if (chain_.levels.size() == 1 && !top.has_preconditioner) {
    // Bottom-only chain: warm-start x with the dense direct solve.
    apply_block(b, x, ws);
  } else if (inv_d) {
    // Jacobi-PCG lead-in, rate-checked against its budget J: columns it
    // converges are done, the others go on to the chain from its iterate.
    BlockLinOp jacobi = diagonal_scaling_block(std::move(*inv_d));
    CgOptions lopts;
    lopts.tolerance = tolerance;
    lopts.max_iterations = max_iterations;
    lopts.project_constant = true;
    lopts.rate_budget = budget;
    lead_in = block_conjugate_gradient(a_op, b, x, lopts, &jacobi, &scratch);
    bool all_converged = true;
    for (std::size_t c = 0; c < k; ++c) {
      if (lead_in_iterations) (*lead_in_iterations)[c] = lead_in[c].iterations;
      all_converged = all_converged && lead_in[c].converged;
    }
    if (all_converged) return lead_in;
  }
  // Precondition the top-level Krylov method with the *B₁ solve* directly
  // (fold through the elimination, recursively solve A₂, back-substitute);
  // apply_block would re-iterate on A₁ redundantly.
  BlockLinOp precond;
  if (top.has_preconditioner) {
    precond = [this, &ws](const MultiVec& in, MultiVec& out) {
      apply_preconditioner_block(0, in, out, ws);
    };
  } else {
    precond = [this, &ws](const MultiVec& in, MultiVec& out) {
      apply_block(in, out, ws);
    };
  }
  CgOptions copts;
  copts.tolerance = tolerance;
  copts.max_iterations = max_iterations;
  copts.project_constant = true;
  copts.flexible = true;
  return block_conjugate_gradient(a_op, b, x, copts, &precond, &scratch,
                                  lead_in.empty() ? nullptr : &lead_in);
}

std::vector<IterStats> RecursiveSolver::solve_rpch_batch(
    const MultiVec& b, MultiVec& x, double tolerance,
    std::uint32_t max_passes, Workspace& ws,
    const CsrMatrix* a_top) const {
  const ChainLevel& top = chain_.levels.front();
  const CsrMatrix& amat =
      (a_top != nullptr && a_top->dimension() == top.n) ? *a_top
                                                        : top.laplacian;
  std::size_t k = b.cols();
  std::vector<IterStats> stats(k);
  if (x.rows() != top.n || x.cols() != k) x.assign(top.n, k, 0.0);
  ColScalars bnorm = kernels::norm2_cols(b);
  ColMask alive(k, 1);
  std::size_t remaining = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (bnorm[c] == 0.0) {
      stats[c].converged = true;
      alive[c] = 0;
      --remaining;
    }
  }
  const ColScalars minus_one(k, -1.0), one(k, 1.0);
  MultiVec r(top.n, k), ax(top.n, k), dx;
  auto refresh_residual = [&] {
    amat.multiply(x, ax);
    kernels::copy_cols(b, r);
    kernels::axpy_cols(minus_one, ax, r);
    kernels::project_out_constant_cols(r);
  };
  for (std::uint32_t pass = 0; pass < max_passes && remaining > 0; ++pass) {
    refresh_residual();
    ColScalars rnorm = kernels::norm2_cols(r);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      stats[c].relative_residual = rnorm[c] / bnorm[c];
      if (stats[c].relative_residual <= tolerance) {
        stats[c].converged = true;
        alive[c] = 0;
        --remaining;
      }
    }
    if (remaining == 0) return stats;
    for (std::size_t c = 0; c < k; ++c) {
      if (alive[c]) ++stats[c].iterations;
    }
    apply_block(r, dx, ws);
    kernels::axpy_cols(one, dx, x, &alive);
  }
  refresh_residual();
  ColScalars rnorm = kernels::norm2_cols(r);
  for (std::size_t c = 0; c < k; ++c) {
    if (stats[c].converged || bnorm[c] == 0.0) continue;
    stats[c].relative_residual = rnorm[c] / bnorm[c];
    stats[c].converged = stats[c].relative_residual <= tolerance;
  }
  return stats;
}

}  // namespace parsdd
