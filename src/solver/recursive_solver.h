// The recursive solve over a preconditioner chain (Section 6.2).
//
// Lemma 6.7/6.8: level i applies a fixed number of preconditioned iterations
// on A_i, where each preconditioner application solves B_i by folding through
// GreedyElimination and recursing on A_{i+1}; the bottom level uses the dense
// factorization.  The paper's method is preconditioned Chebyshev (rPCh) —
// a *linear* operator, which lets the whole recursion act as a single fixed
// polynomial preconditioner.  A flexible-CG inner mode is provided as the
// floating-point-robust alternative (see DESIGN.md).
//
// There is one recursion, over k-column blocks (a single right-hand side
// is a k=1 block), with two top-level drivers:
//   * solve_batch():      top-level flexible PCG to tolerance ε (production).
//   * solve_rpch_batch(): pure recursive Chebyshev — iterative refinement
//                         with the one-pass chain operator, O(log 1/ε)
//                         passes, matching Theorem 1.1's log(1/ε)
//                         dependence.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/iterative.h"
#include "solver/chain.h"

namespace parsdd {

enum class InnerMethod {
  kChebyshev,   // paper-faithful rPCh recursion (linear operator)
  kFlexibleCg,  // adaptive inner Krylov (nonlinear; needs flexible top)
};

struct RecursiveSolverOptions {
  /// Default is the flexible inner Krylov method: it needs no spectral
  /// bounds, so it is robust to the constant-factor slack in the sampled
  /// sandwich A_i ≼ B_i ≼ κ_i A_i.  kChebyshev reproduces the paper's rPCh;
  /// for it the constructor *measures* λmax(B_i⁺A_i) per level bottom-up by
  /// power iteration (Chebyshev diverges if its upper bound is exceeded,
  /// and the sampling guarantees constants only in expectation).
  InnerMethod inner = InnerMethod::kFlexibleCg;
  /// Flexible-CG mode: per-visit relative-residual target and iteration
  /// budget for the inner solve of A_{i}.  The inner solve must be fairly
  /// accurate — an ultra-sparse B_i is an excellent preconditioner only
  /// when actually *solved*; a sloppy inner solve degrades the whole chain
  /// (DESIGN.md section 2).
  double inner_tolerance = 0.1;
  std::uint32_t inner_max_iterations = 40;
  /// Chebyshev mode: iterations per level visit;
  /// 0 = ceil(sqrt(min(κ_i, kappa_cap))).
  std::uint32_t inner_iterations = 0;
  /// Cap on the κ used to derive the per-level iteration count.
  double kappa_cap = 36.0;
  /// Power-iteration steps for the per-level λmax estimate (Chebyshev mode).
  std::uint32_t power_iterations = 12;
  /// Safety margin multiplied onto the measured λmax.
  double lambda_max_margin = 1.25;
  std::uint64_t seed = 99;
};

class RecursiveSolver {
 public:
  RecursiveSolver(const SolverChain& chain,
                  const RecursiveSolverOptions& opts = {});

  /// Restores a solver from snapshot state: adopts the spectral bounds
  /// measured when the chain was first built instead of re-running the
  /// per-level power iteration, so a loaded setup is both cheap to
  /// reconstruct and bitwise-faithful to the saved one (the bounds feed the
  /// Chebyshev coefficients directly).  `bounds` must be level_bounds()
  /// from the solver being restored — empty in flexible-CG mode.
  RecursiveSolver(const SolverChain& chain, const RecursiveSolverOptions& opts,
                  std::vector<std::pair<double, double>> bounds)
      : chain_(chain), opts_(opts), level_bounds_(std::move(bounds)) {}

  /// Per-call scratch for the solvers: one slot per chain level, reused
  /// across outer iterations so a steady-state solve allocates nothing
  /// inside the recursion.  The solver itself is immutable after
  /// construction; each concurrent solve owns a private Workspace, which is
  /// what makes simultaneous solve_batch calls against one solver safe.
  struct Workspace {
    struct Level {
      MultiVec folded, reduced_rhs, x_reduced;  // elimination fold scratch
      BlockScratch iter;                        // inner Chebyshev/FCG buffers
    };
    std::vector<Level> levels;
  };
  Workspace make_workspace() const {
    return Workspace{std::vector<Workspace::Level>(chain_.levels.size())};
  }

  /// One pass of the chain over all columns of b: x ≈ A₁⁺ b
  /// (constant-factor error reduction).
  void apply_block(const MultiVec& b, MultiVec& x, Workspace& ws) const;

  /// Batched top-level flexible PCG: all columns advance in lockstep, each
  /// SpMM / elimination fold / bottom solve is shared by the whole block,
  /// and per-column convergence freezes finished columns.  Column c of x
  /// is bitwise the k=1 solve of b[:,c] alone.  Thread-safe given a
  /// private workspace.
  ///
  /// `a_top` overrides the outer-CG operator (default: the chain's own
  /// level-0 Laplacian).  This is the stale-chain update tier
  /// (solver_setup.h): after a small weight perturbation the caller passes
  /// the *current* Laplacian while the preconditioner recursion keeps using
  /// the chain built for the old weights — convergence is still measured
  /// against the true fp64 residual, the stale chain merely preconditions.
  /// Must have the same dimension as the chain's top level.
  std::vector<IterStats> solve_batch(const MultiVec& b, MultiVec& x,
                                     double tolerance,
                                     std::uint32_t max_iterations,
                                     Workspace& ws,
                                     const CsrMatrix* a_top = nullptr) const;

  /// Pure rPCh: iterative refinement with the chain operator until each
  /// column's relative residual reaches `tolerance` (or max_passes).
  /// `a_top` as in solve_batch: residual refreshes use it, the chain pass
  /// stays as built.
  std::vector<IterStats> solve_rpch_batch(const MultiVec& b, MultiVec& x,
                                          double tolerance,
                                          std::uint32_t max_passes,
                                          Workspace& ws,
                                          const CsrMatrix* a_top =
                                              nullptr) const;

  /// Number of bottom-level (dense) solves since construction — the
  /// quantity the paper's depth analysis counts ("the total number of times
  /// the algorithm reaches the last level A_d").  Cumulative and monotone:
  /// callers wanting per-solve counts take before/after deltas (see
  /// solver_setup.cpp), which stays consistent under concurrent solves.
  std::uint64_t bottom_visits() const {
    return bottom_visits_.load(std::memory_order_relaxed);
  }

  /// Measured spectral bounds of the preconditioned operator per level
  /// (Chebyshev mode); empty in flexible-CG mode.
  const std::vector<std::pair<double, double>>& level_bounds() const {
    return level_bounds_;
  }

 private:
  void apply_level_block(std::size_t i, const MultiVec& b, MultiVec& x,
                         Workspace& ws) const;
  void apply_preconditioner_block(std::size_t i, const MultiVec& r,
                                  MultiVec& z, Workspace& ws) const;
  std::uint32_t level_iterations(std::size_t i) const;

  const SolverChain& chain_;
  RecursiveSolverOptions opts_;
  std::vector<std::pair<double, double>> level_bounds_;  // (lmin, lmax)
  mutable std::atomic<std::uint64_t> bottom_visits_{0};
};

}  // namespace parsdd
