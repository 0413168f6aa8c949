// Definition 6.3: the preconditioning chain  C = <A1, B1, A2, ..., Ad>.
//
//   B_i     = IncrementalSparsify(A_i)        (Lemma 6.1/6.2)
//   A_{i+1} = GreedyElimination(B_i)          (Lemma 6.5)
//   A_i ≼ B_i ≼ κ_i A_i                       (spectral sandwich)
//
// terminated at dimension ~ m^{1/3} (Section 6.3: "if we terminate the chain
// earlier, i.e. adjusting the dimension A_d to roughly O(m^{1/3} log ε⁻¹),
// we can obtain good parallel performance") and closed with a dense LDLᵀ
// factorization (Fact 6.4).
//
// Parameter notes (see DESIGN.md): κ_i is configurable with an automatic
// mode tying it to the measured average stretch of the level's spanning
// tree (the theory's κ = Θ(S log n / edge budget) relation from
// Lemma 6.2); §6.3's geometrically growing κ_i schedule is available via
// kappa_growth.
//
// Each level's Ĝ_i is the maximum-conductance spanning tree of A_i (see
// incremental_sparsify.h), built once per level.  The default kUltrasparse
// chain therefore has B_1 = that tree, which GreedyElimination removes
// completely: one level, and the solve is tree-preconditioned CG.
//
// Edge weights in a chain (A_i, B_i) are conductances, the Laplacian's
// off-diagonal magnitudes.  incremental_sparsify converts them to
// resistance lengths once for the tree; avg_stretch is therefore the
// spectral stretch w_e · Σ_path 1/w_f.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/edge_list.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_ldlt.h"
#include "solver/greedy_elimination.h"
#include "solver/incremental_sparsify.h"

namespace parsdd {

/// How each level's preconditioner B_i is built.
enum class ChainMode {
  /// B_i = Ĝ_i, the maximum-conductance spanning tree, with no
  /// off-tree sampling.  GreedyElimination eliminates it completely, so the
  /// chain is one level and the solve is tree-PCG; this is the production
  /// default (see DESIGN.md on the theory-practice gap of
  /// stretch-proportional sampling at laptop scale).
  kUltrasparse,
  /// B_i = IncrementalSparsify(A_i, κ_i): the paper's Lemma 6.1 chain.
  kSampled,
};

struct ChainOptions {
  std::uint64_t seed = 1;
  ChainMode mode = ChainMode::kUltrasparse;
  /// Per-level condition target κ_i (kSampled); 0 = automatic from measured
  /// stretch.
  double kappa = 0.0;
  /// κ_{i+1} = κ_i * kappa_growth (§6.3 uses a geometric schedule; 1.0
  /// reproduces the uniform setting of Lemma 6.9).
  double kappa_growth = 1.0;
  /// Stop and factor densely once a level has at most this many vertices;
  /// 0 = max(24, m^{1/3}).
  std::uint32_t bottom_size = 0;
  std::uint32_t max_levels = 48;
  /// Sampling oversampling constant (Lemma 6.1's c_IS).
  double oversample = 1.0;
  /// Sampling probability floor / subgraph scaling; see SparsifyOptions.
  double p_floor = 0.2;
  double subgraph_scale = 1.0;
  /// LSSubgraph parameters.  Unread by build_chain, whose Ĝ is the
  /// maximum-conductance tree; kept in the snapshot format, and for callers
  /// that hand them to ls_subgraph themselves.
  std::uint32_t lambda = 2;
  double theta = 0.05;
  double subgraph_y = 0.0;
  double subgraph_z = 0.0;
};

struct ChainLevel {
  std::uint32_t n = 0;
  EdgeList edges;                        // A_i as a graph
  CsrMatrix laplacian;                   // assembled A_i
  /// True when this level carries B_i/elimination data; the final level of
  /// a chain either has none (dense bottom) or eliminates to an empty graph
  /// (tree-like inputs).
  bool has_preconditioner = false;
  EdgeList b_edges;                      // B_i
  GreedyEliminationResult elimination;   // folds B_i -> A_{i+1}
  double kappa = 0.0;                    // the κ_i used for sampling
  double avg_stretch = 0.0;              // measured S of the level
};

struct SolverChain {
  std::vector<ChainLevel> levels;
  /// Dense factorization of the bottom level (absent when the bottom has
  /// fewer than 2 vertices).
  std::optional<DenseLdlt> bottom;

  std::size_t total_edges() const;
  std::uint32_t depth() const {
    return static_cast<std::uint32_t>(levels.size());
  }
};

/// Builds the chain for the connected Laplacian graph (V=[0,n), edges).
SolverChain build_chain(std::uint32_t n, const EdgeList& edges,
                        const ChainOptions& opts = {});

/// Snapshot encoding (util/serialize.h): every level's graphs, assembled
/// Laplacian, elimination record, and the dense bottom factor verbatim —
/// the complete RHS-independent state, so a loaded chain drives the
/// recursive solver bitwise-identically to the chain that was saved.
void save_chain(serialize::Writer& w, const SolverChain& chain);
SolverChain load_chain(serialize::Reader& r);

}  // namespace parsdd
