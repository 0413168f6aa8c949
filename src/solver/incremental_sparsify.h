// Lemma 6.1: incremental sparsification by stretch-proportional sampling.
//
// Given G and a low-stretch subgraph Ĝ with total stretch m·S, builds H with
// G ≼ H ≼ κ·G (whp, up to the sampling constants) and
// |E(H)| = |E(Ĝ)| + O(S·m·log n / κ).  Following [KMP10] (whose proof "works
// without changes for an arbitrary subgraph", as the paper observes — this
// observation is the key to the parallel solver), every off-subgraph edge e
// is kept independently with probability p_e = min(1, c·str(e)·log n / κ)
// and reweighted to w_e/p_e, which keeps E[L_H] = L_G while concentrating by
// matrix Chernoff because stretch upper-bounds relative leverage.
//
// Input and output weights are conductances.  The low-stretch subgraph,
// its spanning trees and every str(e) are computed once on the
// resistances 1/w, so str(e) = w_e · Σ_path 1/w_f, the stretch that
// bounds leverage.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "lsst/ls_subgraph.h"

namespace parsdd {

struct SparsifyOptions {
  std::uint64_t seed = 1;
  /// Condition-number target κ of the sandwich G ≼ H ≼ κG.
  double kappa = 64.0;
  /// Oversampling multiplier c (the paper's c_IS); higher = better
  /// concentration, more edges.
  double oversample = 1.0;
  /// Floor on the keep probability.  Reweighting by 1/p_e with unbounded
  /// 1/p_e plants huge-weight outlier edges in H, which stretches the
  /// H ≽ ... side of the pencil and stalls Krylov convergence in floating
  /// point; flooring p bounds the reweighting at 1/p_floor at the cost of
  /// keeping a few more edges.  Set to 0 for the unfloored textbook rule.
  double p_floor = 0.2;
  /// If > 1, multiply the Ĝ part of H by this factor (the [KMP10] scaled-
  /// tree construction): guarantees A ≼ 2H-style upper bounds by letting
  /// the scaled subgraph dominate every sampled term, at the cost of a
  /// weaker lower bound (H ≼ (scale+2)·A).
  double subgraph_scale = 1.0;
  /// Also consider the maximum-conductance spanning tree (the MST in
  /// resistance lengths) as Ĝ: keep whichever of it and the LSSubgraph
  /// output has the lower measured stretch.  AKPW bounds stretch only on
  /// average up to polylog factors; on high-contrast weights the MST is
  /// nearly stretch-1 (a 20² two-level grid at contrast 1e4: average 1.2
  /// against ~160).  Costs one Kruskal and one stretch pass.
  bool include_mst = true;
  /// Options for the inner LSSubgraph call.
  LsSubgraphOptions subgraph;
};

struct SparsifyResult {
  /// The preconditioner H (on the same vertex set as G).
  EdgeList h_edges;
  /// Edges of H that came from the low-stretch subgraph Ĝ.
  std::size_t subgraph_count = 0;
  /// Off-subgraph edges sampled in (reweighted by 1/p_e).
  std::size_t sampled_count = 0;
  /// Total stretch of G w.r.t. Ĝ (the m·S of Lemma 6.1).
  double total_stretch = 0.0;
};

/// Builds the incremental sparsifier of (V=[0,n), edges); input must be
/// connected.
SparsifyResult incremental_sparsify(std::uint32_t n, const EdgeList& edges,
                                    const SparsifyOptions& opts = {});

}  // namespace parsdd
