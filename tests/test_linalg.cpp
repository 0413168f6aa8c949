// CsrMatrix, vector ops, Laplacian assembly, Gremban reduction, dense LDLT.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>

#include "graph/generators.h"
#include "kernels/kernels.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_ldlt.h"
#include "linalg/gremban.h"
#include "linalg/laplacian.h"
#include "linalg/vector_ops.h"
#include "parallel/rng.h"

namespace parsdd {
namespace {

TEST(VectorOps, BasicIdentities) {
  Vec x = {1, 2, 3};
  EXPECT_DOUBLE_EQ(kernels::dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(kernels::norm2({3, 4}), 5.0);
  Vec z = kernels::subtract(x, x);
  EXPECT_DOUBLE_EQ(kernels::norm2(z), 0.0);
  EXPECT_DOUBLE_EQ(kernels::sum(x), 6.0);
}

TEST(VectorOps, ProjectOutConstant) {
  Vec x = {1, 2, 3, 6};
  kernels::project_out_constant(x);
  EXPECT_NEAR(kernels::sum(x), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
}

TEST(VectorOps, RandomUnitLikeIsMeanZeroUnit) {
  Vec v = random_unit_like(1000, 5);
  EXPECT_NEAR(kernels::sum(v), 0.0, 1e-9);
  EXPECT_NEAR(kernels::norm2(v), 1.0, 1e-12);
}

TEST(CsrMatrix, FromTripletsMergesDuplicates) {
  std::vector<Triplet> ts = {{0, 1, 1.0}, {0, 1, 2.0}, {1, 0, 3.0},
                             {0, 0, 4.0}, {1, 1, 5.0}};
  CsrMatrix a = CsrMatrix::from_triplets(2, std::move(ts));
  EXPECT_EQ(a.num_nonzeros(), 4u);
  Vec y = a.apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 8.0);
}

// The entry at (row, col) of a built matrix, or NaN if it is not stored.
double stored(const CsrMatrix& a, std::uint32_t row, std::uint32_t col) {
  auto cols = a.row_cols(row);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == col) return a.row_vals(row)[k];
  }
  return std::nan("");
}

// Floating-point addition is not associative, so only one summation order
// reproduces these sums: 1e16 + 1 rounds back to 1e16, so the fold
// (1e16 + 1) - 1e16 gives 0, while (1e16 - 1e16) + 1 gives 1.
TEST(CsrMatrix, FromTripletsSumsDuplicatesInInputOrder) {
  std::vector<Triplet> ts = {{0, 0, 1e16}, {1, 1, 1e16},  {0, 0, 1.0},
                             {1, 1, -1e16}, {0, 0, -1e16}, {1, 1, 1.0}};
  CsrMatrix a = CsrMatrix::from_triplets(2, std::move(ts));
  ASSERT_EQ(a.num_nonzeros(), 2u);
  EXPECT_EQ(stored(a, 0, 0), 0.0);
  EXPECT_EQ(stored(a, 1, 1), 1.0);
}

// The same contract on an input large enough to span many scheduling
// blocks: every coordinate equals a plain loop summing in input order.
TEST(CsrMatrix, FromTripletsMatchesInputOrderLoopOnLargeInput) {
  const std::uint32_t n = 300;
  const std::size_t m = 20000;
  Rng rng(11);
  std::vector<Triplet> ts(m);
  for (std::size_t i = 0; i < m; ++i) {
    // Few distinct coordinates per row, so most triplets are duplicates;
    // magnitudes spread over 32 binades so the order shows in the bits.
    ts[i].row = static_cast<std::uint32_t>(rng.below(3 * i, n));
    ts[i].col = static_cast<std::uint32_t>(rng.below(3 * i + 1, 8));
    ts[i].value = std::ldexp(rng.uniform(3 * i + 2) - 0.5,
                             static_cast<int>(rng.below(3 * i + 2, 32)));
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> ref;
  for (const Triplet& t : ts) {
    auto [it, fresh] = ref.emplace(std::pair{t.row, t.col}, t.value);
    if (!fresh) it->second += t.value;
  }
  CsrMatrix a = CsrMatrix::from_triplets(n, ts);
  ASSERT_EQ(a.num_nonzeros(), ref.size());
  auto it = ref.begin();
  for (std::uint32_t r = 0; r < n; ++r) {
    auto cols = a.row_cols(r);
    auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k, ++it) {
      EXPECT_EQ(it->first, std::pair(r, cols[k]));
      EXPECT_EQ(it->second, vals[k]) << "row " << r << " col " << cols[k];
    }
  }
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  Rng rng(3);
  std::uint32_t n = 12;
  std::vector<Triplet> ts;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j <= i; ++j) {
      if (rng.uniform(i * n + j) < 0.4) {
        double v = rng.uniform(1000 + i * n + j) - 0.5;
        ts.push_back({i, j, v});
        if (i != j) ts.push_back({j, i, v});
      }
    }
  }
  CsrMatrix a = CsrMatrix::from_triplets(n, ts);
  auto dense = a.to_dense();
  Vec x(n);
  for (std::uint32_t i = 0; i < n; ++i) x[i] = rng.uniform(i) * 2 - 1;
  Vec y = a.apply(x);
  for (std::uint32_t i = 0; i < n; ++i) {
    double expect = 0;
    for (std::uint32_t j = 0; j < n; ++j) expect += dense[i * n + j] * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
  EXPECT_NEAR(a.quadratic_form(x), kernels::dot(x, y), 1e-12);
}

TEST(CsrMatrix, DiagonalExtraction) {
  std::vector<Triplet> ts = {{0, 0, 2.0}, {1, 1, 3.0}, {0, 1, -1.0},
                             {1, 0, -1.0}};
  CsrMatrix a = CsrMatrix::from_triplets(2, std::move(ts));
  Vec d = a.diagonal();
  EXPECT_EQ(d, (Vec{2.0, 3.0}));
}

TEST(CsrMatrix, SddChecks) {
  // Laplacian: SDD and Laplacian.
  CsrMatrix lap = laplacian_from_edges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  EXPECT_TRUE(lap.is_sdd());
  EXPECT_TRUE(lap.is_laplacian());
  // SDD but not Laplacian (positive off-diagonal).
  std::vector<Triplet> ts = {{0, 0, 2.0}, {1, 1, 2.0}, {0, 1, 1.0},
                             {1, 0, 1.0}};
  CsrMatrix sdd = CsrMatrix::from_triplets(2, std::move(ts));
  EXPECT_TRUE(sdd.is_sdd());
  EXPECT_FALSE(sdd.is_laplacian());
  // Not SDD.
  std::vector<Triplet> bad = {{0, 0, 1.0}, {1, 1, 1.0}, {0, 1, -2.0},
                              {1, 0, -2.0}};
  CsrMatrix nb = CsrMatrix::from_triplets(2, std::move(bad));
  EXPECT_FALSE(nb.is_sdd());
  // Asymmetric.
  std::vector<Triplet> asym = {{0, 0, 3.0}, {1, 1, 3.0}, {0, 1, -1.0}};
  CsrMatrix na = CsrMatrix::from_triplets(2, std::move(asym));
  EXPECT_FALSE(na.is_sdd());
}

TEST(Laplacian, AssemblyAndRoundTrip) {
  EdgeList e = {{0, 1, 2.0}, {1, 2, 3.0}};
  CsrMatrix lap = laplacian_from_edges(3, e);
  Vec ones(3, 1.0);
  Vec y = lap.apply(ones);
  EXPECT_NEAR(kernels::norm2(y), 0.0, 1e-12);  // null space
  EdgeList back = edges_from_laplacian(lap);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].w, 2.0);
  EXPECT_DOUBLE_EQ(back[1].w, 3.0);
}

// A multigraph's Laplacian equals, bit for bit, a plain loop over the edges
// in input order, with parallel edges merged; each row lists its columns in
// strictly increasing order and stores the diagonal.
TEST(Laplacian, MultigraphMatchesEdgeOrderLoop) {
  const std::uint32_t n = 200;
  const std::size_t m = 3000;
  Rng rng(5);
  EdgeList edges;
  for (std::size_t i = 0; edges.size() < m; ++i) {
    // Endpoints from a small window, so many edges are parallel.
    std::uint32_t u = static_cast<std::uint32_t>(rng.below(3 * i, n));
    std::uint32_t v = (u + 1 + static_cast<std::uint32_t>(
                                   rng.below(3 * i + 1, 4))) % n;
    edges.push_back(Edge{u, v, std::exp(20.0 * rng.uniform(3 * i + 2))});
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> ref;
  auto add = [&](std::uint32_t r, std::uint32_t c, double w) {
    auto [it, fresh] = ref.emplace(std::pair{r, c}, w);
    if (!fresh) it->second += w;
  };
  for (const Edge& e : edges) {
    add(e.u, e.v, -e.w);
    add(e.v, e.u, -e.w);
    add(e.u, e.u, e.w);
    add(e.v, e.v, e.w);
  }
  CsrMatrix lap = laplacian_from_edges(n, edges);
  ASSERT_EQ(lap.num_nonzeros(), ref.size());
  auto it = ref.begin();
  for (std::uint32_t r = 0; r < n; ++r) {
    auto cols = lap.row_cols(r);
    auto vals = lap.row_vals(r);
    bool has_diagonal = false;
    for (std::size_t k = 0; k < cols.size(); ++k, ++it) {
      if (k > 0) {
        EXPECT_LT(cols[k - 1], cols[k]) << "row " << r;
      }
      has_diagonal |= cols[k] == r;
      EXPECT_EQ(it->first, std::pair(r, cols[k]));
      EXPECT_EQ(it->second, vals[k]) << "row " << r << " col " << cols[k];
    }
    EXPECT_TRUE(has_diagonal) << "row " << r;
  }
}

TEST(Laplacian, QuadraticFormMatchesEdgeFormula) {
  GeneratedGraph g = erdos_renyi(40, 120, 8);
  randomize_weights_log_uniform(g.edges, 5.0, 1);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  Vec x = random_unit_like(g.n, 2);
  EXPECT_NEAR(lap.quadratic_form(x), laplacian_quadratic_form(g.edges, x),
              1e-10);
  EXPECT_NEAR(a_norm(lap, x), std::sqrt(lap.quadratic_form(x)), 1e-10);
}

TEST(DenseLdlt, SolvesSpdSystem) {
  // A = M^T M + I (SPD).
  std::uint32_t n = 8;
  Rng rng(4);
  std::vector<double> msrc(n * n);
  for (auto& v : msrc) v = rng.uniform(&v - msrc.data()) - 0.5;
  std::vector<double> a(n * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      for (std::uint32_t k = 0; k < n; ++k) {
        a[i * n + j] += msrc[k * n + i] * msrc[k * n + j];
      }
    }
    a[i * n + i] += 1.0;
  }
  auto a_copy = a;
  DenseLdlt f = DenseLdlt::factor_spd(std::move(a), n);
  Vec b(n);
  for (std::uint32_t i = 0; i < n; ++i) b[i] = rng.uniform(100 + i) - 0.5;
  Vec x = f.solve(b);
  for (std::uint32_t i = 0; i < n; ++i) {
    double ax = 0;
    for (std::uint32_t j = 0; j < n; ++j) ax += a_copy[i * n + j] * x[j];
    EXPECT_NEAR(ax, b[i], 1e-9);
  }
}

TEST(DenseLdlt, ThrowsOnIndefinite) {
  std::vector<double> a = {0.0, 1.0, 1.0, 0.0};  // indefinite
  EXPECT_THROW(DenseLdlt::factor_spd(std::move(a), 2), std::domain_error);
}

TEST(DenseLdlt, LaplacianGroundedSolve) {
  GeneratedGraph g = grid2d(6, 5);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  DenseLdlt f = DenseLdlt::factor_laplacian(lap);
  Vec b = random_unit_like(g.n, 6);
  Vec x = f.solve(b);
  EXPECT_NEAR(kernels::sum(x), 0.0, 1e-9);  // pseudo-inverse solution is mean-zero
  Vec ax = lap.apply(x);
  EXPECT_NEAR(kernels::norm2(kernels::subtract(ax, b)) / kernels::norm2(b), 0.0, 1e-10);
}

TEST(Gremban, LaplacianInputDetected) {
  CsrMatrix lap = laplacian_from_edges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  GrembanReduction r = gremban_reduce(lap);
  EXPECT_TRUE(r.was_laplacian);
}

TEST(Gremban, RejectsNonSdd) {
  std::vector<Triplet> bad = {{0, 0, 1.0}, {1, 1, 1.0}, {0, 1, -2.0},
                              {1, 0, -2.0}};
  CsrMatrix nb = CsrMatrix::from_triplets(2, std::move(bad));
  EXPECT_THROW(gremban_reduce(nb), std::invalid_argument);
}

// Property: solving the double cover reproduces the direct solution of A,
// across random SDD matrices with positive off-diagonals and excess.
class GrembanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrembanProperty, DoubleCoverSolveMatchesDirect) {
  std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::uint32_t n = 10;
  // Random SDD: start from a connected Laplacian, flip some signs, add
  // excess.
  GeneratedGraph g = erdos_renyi(n, 24, seed);
  std::vector<Triplet> ts;
  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const Edge& e = g.edges[i];
    double w = 0.5 + rng.uniform(i);
    double sign = rng.u64(1000 + i) & 1 ? 1.0 : -1.0;
    ts.push_back({e.u, e.v, sign * w});
    ts.push_back({e.v, e.u, sign * w});
    diag[e.u] += w;
    diag[e.v] += w;
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    ts.push_back({v, v, diag[v] + 0.1 + rng.uniform(5000 + v)});
  }
  CsrMatrix a = CsrMatrix::from_triplets(n, std::move(ts));
  ASSERT_TRUE(a.is_sdd());

  // Direct dense solve of A x = b (A is PD thanks to the excess).
  Vec b(n);
  for (std::uint32_t i = 0; i < n; ++i) b[i] = rng.uniform(7000 + i) - 0.5;
  DenseLdlt direct = DenseLdlt::factor_spd(a.to_dense(), n);
  Vec x_direct = direct.solve(b);

  // Gremban route: dense-solve the grounded 2n Laplacian.
  GrembanReduction red = gremban_reduce(a);
  ASSERT_FALSE(red.was_laplacian);
  CsrMatrix big = laplacian_from_edges(2 * n, red.edges);
  DenseLdlt lift = DenseLdlt::factor_laplacian(big);
  Vec y = lift.solve(red.lift_rhs(b));
  Vec x = red.project_solution(y);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_direct[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrembanProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace parsdd
