// Damped Jacobi iteration — the simplest classical baseline (E8).
#pragma once

#include <optional>

#include "linalg/csr_matrix.h"
#include "linalg/iterative.h"

namespace parsdd {

struct JacobiOptions {
  double damping = 2.0 / 3.0;  // classical smoothing factor
  double tolerance = 1e-8;
  std::uint32_t max_iterations = 100000;
  bool project_constant = false;
};

/// Damped Jacobi on A x = b (A's diagonal must be positive).
IterStats jacobi(const CsrMatrix& a, const Vec& b, Vec& x,
                 const JacobiOptions& opts);

/// The entrywise inverse of A's diagonal; nullopt when an entry is not
/// positive, where the Jacobi preconditioner is undefined.
std::optional<Vec> inverse_diagonal(const CsrMatrix& a);

/// Scales row i of every column of the block by inv_d[i].
BlockLinOp diagonal_scaling_block(Vec inv_d);

/// The diagonal (Jacobi) preconditioner of A: scales every column of the
/// block by the inverse diagonal.  Throws on a non-positive diagonal.
BlockLinOp jacobi_preconditioner_block(const CsrMatrix& a);

}  // namespace parsdd
