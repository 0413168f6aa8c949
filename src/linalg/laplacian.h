// Graph Laplacians (Section 2 of the paper).
//
// L_G(i,j) = -w_ij for i != j, and the weighted degree on the diagonal.
// Laplacians of connected graphs are singular with null space span{1}; all
// solve routines work on the image (mean-zero vectors).
#pragma once

#include <cstdint>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "linalg/csr_matrix.h"

namespace parsdd {

/// Laplacian of (V=[0,n), edges).  Parallel edges merge; every entry,
/// diagonal included, sums its edges' weights in edge-input order, so the
/// bits are a function of the edge list alone.
CsrMatrix laplacian_from_edges(std::uint32_t n, const EdgeList& edges);

/// Laplacian of a CSR graph.
CsrMatrix laplacian_from_graph(const Graph& g);

/// Inverse direction: extracts the underlying weighted graph of a Laplacian
/// (off-diagonal entries negated).  Requires is_laplacian().
EdgeList edges_from_laplacian(const CsrMatrix& lap);

/// Laplacian quadratic form computed edge-wise:
/// xᵀLx = Σ_e w_e (x_u - x_v)².  Cheaper and more numerically benign than
/// assembling L when only the form is needed.
double laplacian_quadratic_form(const EdgeList& edges, const Vec& x);

/// ||x||_A = sqrt(xᵀAx) with clamping of tiny negative round-off.
double a_norm(const CsrMatrix& a, const Vec& x);

}  // namespace parsdd
