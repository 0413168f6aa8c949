// Theorem 5.9 (LSSubgraph): the full low-stretch spanning subgraph pipeline.
//
// Combines the well-spacing surgery of Lemma 5.7 with SparseAKPW:
//   1. bucket edges by weight, delete a θ-fraction F to make the class
//      structure (4τ/θ, τ)-well-spaced;
//   2. run SparseAKPW(G', λ, β) on the remainder;
//   3. output Ĝ = Ĝ' ∪ F  (Fact 5.6: F's edges have stretch 1).
// Guarantees: |E(Ĝ)| <= n - 1 + m (c_LS log³n/β)^λ and total stretch
// <= m β² log^{3λ+3} n; O~(m) work and polylog depth.
//
// Edge weights are *lengths* (Section 2's convention).  A Laplacian's
// weights are conductances; pass their resistances 1/w, as
// incremental_sparsify does, so stretch is w_e · Σ_path 1/w_f.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "lsst/sparse_akpw.h"

namespace parsdd {

struct LsSubgraphOptions {
  std::uint64_t seed = 1;
  std::uint32_t lambda = 2;
  /// Fraction of edges the well-spacing step may delete (theory:
  /// θ = (log³n/β)^λ).  Deleted edges join the output, so θ also bounds the
  /// extra edges contributed by this step.
  double theta = 0.05;
  /// Decay/bucket parameters forwarded to SparseAKPW (0 = practical auto).
  double y = 0.0;
  double z = 0.0;
  double center_constant = 2.0;
  /// Disable the surgery (for ablation benches).
  bool apply_well_spacing = true;
  /// Lemma 5.8 execution: run SparseAKPW independently per special-bucket
  /// segment, bootstrapping each segment's vertex set by contracting the
  /// MST restricted to earlier buckets ("we can just take the MST on the
  /// entire graph, retain only the edges from buckets E_{i-tau} and lower,
  /// and contract the connected components").  This breaks the iteration
  /// dependency chain, removing the log Δ factor from the critical path;
  /// the output guarantees are unchanged.  Requires apply_well_spacing.
  bool segmented = false;
};

struct LsSubgraphResult {
  /// Indices into the input edge list: the complete subgraph Ĝ.
  std::vector<std::uint32_t> subgraph_edges;
  /// Breakdown: spanning-tree part, promoted survivors, well-spacing F.
  std::size_t tree_count = 0;
  std::size_t extra_count = 0;
  std::size_t removed_count = 0;
  std::uint32_t iterations = 0;
  double y = 0.0;
  double z = 0.0;
};

/// Computes the low-stretch spanning subgraph of (V=[0,n), edges); the input
/// must be connected for Ĝ to be spanning-connected.
LsSubgraphResult ls_subgraph(std::uint32_t n, const EdgeList& edges,
                             const LsSubgraphOptions& opts = {});

}  // namespace parsdd
