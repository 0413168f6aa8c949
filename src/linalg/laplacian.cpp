#include "linalg/laplacian.h"
#include "kernels/kernels.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "parallel/primitives.h"

namespace parsdd {

CsrMatrix laplacian_from_edges(std::uint32_t n, const EdgeList& edges) {
  // Triplets in edge order, so from_triplets sums each diagonal entry and
  // each group of parallel edges in edge-input order.
  std::vector<Triplet> ts(4 * edges.size());
  parallel_for(0, edges.size(), [&](std::size_t i) {
    const Edge& e = edges[i];
    assert(e.u != e.v && e.w > 0.0);
    ts[4 * i] = Triplet{e.u, e.v, -e.w};
    ts[4 * i + 1] = Triplet{e.v, e.u, -e.w};
    ts[4 * i + 2] = Triplet{e.u, e.u, e.w};
    ts[4 * i + 3] = Triplet{e.v, e.v, e.w};
  });
  return CsrMatrix::from_triplets(n, std::move(ts));
}

CsrMatrix laplacian_from_graph(const Graph& g) {
  return laplacian_from_edges(g.num_vertices(), g.to_edges());
}

EdgeList edges_from_laplacian(const CsrMatrix& lap) {
  EdgeList edges;
  for (std::uint32_t i = 0; i < lap.dimension(); ++i) {
    auto cols = lap.row_cols(i);
    auto vals = lap.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] > i && vals[k] < 0.0) {
        edges.push_back(Edge{i, cols[k], -vals[k]});
      }
    }
  }
  return edges;
}

double laplacian_quadratic_form(const EdgeList& edges, const Vec& x) {
  return parallel_reduce(
      0, edges.size(), 0.0,
      [&](std::size_t i) {
        double d = x[edges[i].u] - x[edges[i].v];
        return edges[i].w * d * d;
      },
      [](double a, double b) { return a + b; });
}

double a_norm(const CsrMatrix& a, const Vec& x) {
  double q = a.quadratic_form(x);
  if (q < 0.0) {
    if (q < -1e-8 * (1.0 + kernels::norm2(x))) {
      throw std::domain_error("a_norm: matrix is not PSD");
    }
    q = 0.0;
  }
  return std::sqrt(q);
}

}  // namespace parsdd
