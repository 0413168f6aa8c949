// Minimum spanning tree / forest.
//
// Lemma 5.8 bootstraps each special bucket of SparseAKPW from "the MST on the
// entire graph": the vertex set V^(i) is obtained by contracting the MST
// restricted to buckets < i-τ.  Two implementations are provided: Kruskal
// (radix sort + union-find; the work-efficient default) and Borůvka
// (parallel hook rounds; O(log n) rounds, matching the PRAM flavor of the
// paper).  Both return indices into the input edge list.
//
// Both order edges by (w, index) with a stable LSD radix sort of each
// weight's order-preserving bit pattern (radix_sort_indices): -0.0 ties
// +0.0, +inf follows every finite weight, and NaN follows +inf.  Equal
// weights — every weight of a unit-weight graph — keep index order, and
// all-equal weights need no sorting pass at all.
//
// Weights are *lengths*: the tree minimizes total weight.  Given a
// Laplacian's resistances 1/w, it is the maximum-conductance spanning tree.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"

namespace parsdd {

/// Kruskal MST/forest; returns indices of chosen edges (n-1 per component
/// tree) in the order Kruskal takes them.  Ties are broken by edge index, so
/// the result is deterministic.  Work O(m) for the sort plus union-find.
std::vector<std::uint32_t> mst_kruskal(std::uint32_t n, const EdgeList& edges);

/// Borůvka MST/forest via parallel min-edge hooking; deterministic
/// (ties broken by edge index).
std::vector<std::uint32_t> mst_boruvka(std::uint32_t n, const EdgeList& edges);

/// Total weight of the edges selected by an MST routine.
double forest_weight(const EdgeList& edges,
                     const std::vector<std::uint32_t>& chosen);

}  // namespace parsdd
