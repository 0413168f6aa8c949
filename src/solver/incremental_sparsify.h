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
// Ĝ is the maximum-conductance spanning tree: the MST in resistance lengths
// 1/w.  Its measured total stretch was lower than that of Theorem 5.9's
// LSSubgraph on every weighted input and every benchmark graph tried, so
// the LSSubgraph is not built here; src/lsst/ keeps it for the Section 4–5
// experiments.  Input and output weights are conductances; the tree and
// every str(e) = w_e · Σ_path 1/w_f are computed once on the resistances.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/stretch.h"
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
  /// Unread: Ĝ is the maximum-conductance tree.  Kept so that callers
  /// which still set it, such as perfbench's traced replay, compile.
  LsSubgraphOptions subgraph;
};

/// Ĝ and the stretch of every input edge over it, in resistance lengths.
struct SparsifyTree {
  std::vector<std::uint8_t> in_tree;  // per input edge
  StretchStats stretch;
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

/// The maximum-conductance spanning tree of (V=[0,n), edges) and every
/// edge's stretch over it; input must be connected.
SparsifyTree max_conductance_tree(std::uint32_t n, const EdgeList& edges);

/// Samples H against a tree built by max_conductance_tree on the same
/// edges, so a caller that samples at several κ builds the tree once.
SparsifyResult incremental_sparsify(std::uint32_t n, const EdgeList& edges,
                                    const SparsifyTree& tree,
                                    const SparsifyOptions& opts);

/// Builds the incremental sparsifier of (V=[0,n), edges); input must be
/// connected.
SparsifyResult incremental_sparsify(std::uint32_t n, const EdgeList& edges,
                                    const SparsifyOptions& opts = {});

}  // namespace parsdd
