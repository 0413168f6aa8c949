// Lemma 6.5: parallel GreedyElimination — partial Cholesky factorization on
// vertices of degree at most 2.
//
// Graph-theoretically: repeatedly remove degree-1 vertices and splice out
// degree-2 vertices (series resistors: eliminating v on the path u1—v—u2
// with weights w1, w2 adds the fill edge {u1,u2} of weight w1·w2/(w1+w2)),
// "a slight generalization of parallel tree contraction [MR89]".  The
// parallel version eliminates, per round, an independent set of degree-≤2
// vertices chosen by random priorities — a constant fraction of the "extra"
// vertices in expectation, so O(log n) rounds whp (checked by
// GreedyElimination.RoundsLogarithmic).  The output graph has at most
// 2·(m-n+1)-ish vertices left, i.e. no vertices of degree <= 2 remain.
//
// Each elimination is recorded so linear systems factor through the
// reduction exactly: forward-substitution folds the RHS onto the kept
// vertices (Schur complement RHS), and back-substitution recovers eliminated
// entries from the reduced solution.  An input that is entirely a tree
// eliminates to nothing and is solved exactly by the recorded steps alone.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "kernels/kernels.h"
#include "linalg/multivec.h"
#include "linalg/vector_ops.h"

namespace parsdd {

/// The step record lives in kernels/kernels.h so the fold/backsub backend
/// kernels can walk it; this alias keeps the historic solver-layer name.
using EliminationStep = kernels::ElimStep;

class GreedyEliminationResult {
 public:
  /// Elimination record in order.
  std::vector<EliminationStep> steps;
  /// Parallel rounds used (Lemma 6.5: O(log n) whp).
  std::uint32_t rounds = 0;

  /// Reduced graph on relabeled vertices [0, reduced_n); may be empty if
  /// the input was a forest.
  std::uint32_t reduced_n = 0;
  EdgeList reduced_edges;
  /// reduced id -> original id.
  std::vector<std::uint32_t> orig_of_reduced;
  /// original id -> reduced id (UINT32_MAX if eliminated).
  std::vector<std::uint32_t> reduced_of_orig;

  /// Folds an original-space RHS through the eliminations; returns the
  /// full-length folded vector (needed again by back_substitute) and writes
  /// the reduced-space RHS to `reduced_rhs`.
  Vec fold_rhs(const Vec& b, Vec* reduced_rhs) const;

  /// Reconstructs the full solution from the reduced solve and the folded
  /// RHS returned by fold_rhs.
  Vec back_substitute(const Vec& folded_b, const Vec& x_reduced) const;

  /// Batched fold: one walk of the elimination record serves all columns of
  /// `b` (the step decode is amortized and the per-step update vectorizes
  /// over the row).  Column c matches fold_rhs(b[:,c]) exactly.  Output
  /// blocks are resized in place so steady-state calls do not allocate.
  void fold_rhs_block(const MultiVec& b, MultiVec& folded,
                      MultiVec& reduced_rhs) const;

  /// Batched back-substitution; column c matches back_substitute on that
  /// column.
  void back_substitute_block(const MultiVec& folded_b,
                             const MultiVec& x_reduced, MultiVec& x) const;

  /// Snapshot encoding (util/serialize.h): the step record as parallel
  /// field arrays (EliminationStep has padding), plus the reduced graph and
  /// both relabeling maps, so fold/back-substitute replay bitwise.  `n` is
  /// the caller's vertex count for the eliminated graph; load bounds-checks
  /// every stored index against it so a checksum-valid but forged snapshot
  /// cannot drive fold/back-substitute out of bounds.
  void save(serialize::Writer& w) const;
  static GreedyEliminationResult load(serialize::Reader& r, std::uint32_t n);
};

/// Eliminates all degree-<=2 vertices of the Laplacian graph (V=[0,n),
/// edges).  Deterministic for a fixed seed.
GreedyEliminationResult greedy_eliminate(std::uint32_t n,
                                         const EdgeList& edges,
                                         std::uint64_t seed = 1);

}  // namespace parsdd
