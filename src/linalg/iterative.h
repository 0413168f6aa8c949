// Shared types for iterative solvers.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>

#include "linalg/multivec.h"
#include "linalg/vector_ops.h"

namespace parsdd {

/// A linear operator: out = Op(in).  Out is pre-sized by the caller.
using LinOp = std::function<void(const Vec&, Vec&)>;

/// A linear operator applied column-wise to a block of k vectors; the block
/// form lets implementations (SpMM, batched elimination folds) stream their
/// structure once for all k columns.
using BlockLinOp = std::function<void(const MultiVec&, MultiVec&)>;

struct IterStats {
  std::uint32_t iterations = 0;
  /// ||b - A x|| / ||b|| at exit.
  double relative_residual = 0.0;
  bool converged = false;
};

/// Worst-of merge of two runs over the same column (one per graph
/// component): converged only if both converged, the larger relative
/// residual (NaN counts as the worst) and the larger iteration count.
inline IterStats merge_worst(const IterStats& a, const IterStats& b) {
  IterStats out;
  out.iterations = a.iterations > b.iterations ? a.iterations : b.iterations;
  out.relative_residual = std::isnan(b.relative_residual) ||
                                  b.relative_residual > a.relative_residual
                              ? b.relative_residual
                              : a.relative_residual;
  out.converged = a.converged && b.converged;
  return out;
}

/// Reusable iteration buffers for the block solvers.  A caller that solves
/// repeatedly (the recursive chain visits each level once per outer
/// iteration) passes the same scratch back in so steady-state solves do no
/// allocation; each concurrent solve owns its own scratch.
struct BlockScratch {
  MultiVec r, z, p, ap, r_prev;
};

}  // namespace parsdd
