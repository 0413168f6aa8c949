// Conjugate gradient and flexible (variable-preconditioner) PCG.
//
// CG is the classical baseline the near-linear solvers are measured against,
// and flexible PCG is the floating-point-robust wrapper we put around the
// paper's preconditioner chain (see DESIGN.md, "Substitutions"): the chain's
// recursive solve is a slightly nonlinear operator, which plain PCG does not
// tolerate but Polak–Ribière FCG does.
#pragma once

#include "linalg/iterative.h"

namespace parsdd {

struct CgOptions {
  double tolerance = 1e-8;       // relative residual target
  std::uint32_t max_iterations = 10000;
  /// Re-project iterates onto mean-zero after every step; required when A is
  /// a connected Laplacian (singular with null space span{1}).
  bool project_constant = false;
  /// Use the flexible (Polak–Ribière) beta; required when the preconditioner
  /// is itself an inexact/iterative solver.
  bool flexible = false;
};

/// Solves A X = B for all columns in lockstep, starting from the given X
/// (commonly zero); `precond`, if non-null, applies an approximation of A⁺.
/// Every iteration streams A (and the preconditioner chain) once for the
/// whole block, while alpha, beta, and the convergence test stay
/// per-column, so column c runs the exact iteration sequence of a k=1 call
/// on B[:,c].  Columns freeze (no further updates) the moment they converge or
/// break down; the loop exits when every column is frozen.  The residual is
/// tested before it is preconditioned, so a k=1 solve that stops on the
/// tolerance or the iteration cap after t iterations applies the
/// preconditioner t times, not t+1.  Returns one IterStats per column.
std::vector<IterStats> block_conjugate_gradient(
    const BlockLinOp& a, const MultiVec& b, MultiVec& x, const CgOptions& opts,
    const BlockLinOp* precond = nullptr, BlockScratch* scratch = nullptr);

}  // namespace parsdd
