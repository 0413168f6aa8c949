// The setup/solve split and batched multi-RHS solving.
//
// Contract under test (multivec.h "determinism contract"): column c of a
// solve_batch runs the exact arithmetic of an independent k=1 solve of that
// column, so batched and single results agree to ~machine precision; and a
// SolverSetup is immutable after construction, so concurrent solves against
// one shared setup are safe.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "apps/effective_resistance.h"
#include "kernels/kernels.h"
#include "apps/harmonic.h"
#include "graph/generators.h"
#include "linalg/dense_ldlt.h"
#include "linalg/laplacian.h"
#include "solver/sdd_solver.h"
#include "solver/solver_setup.h"

namespace parsdd {
namespace {

double max_col_diff(const MultiVec& batch, std::size_t c, const Vec& single) {
  double worst = 0.0;
  for (std::size_t i = 0; i < single.size(); ++i) {
    worst = std::max(worst, std::fabs(batch.at(i, c) - single[i]));
  }
  return worst;
}

double rel_residual(const CsrMatrix& lap, const Vec& x, const Vec& b) {
  return kernels::norm2(kernels::subtract(lap.apply(x), b)) / kernels::norm2(b);
}

TEST(BatchSolve, MatchesIndependentSingleSolves) {
  GeneratedGraph g = grid2d(20, 20);
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges);
  constexpr std::size_t k = 8;
  std::vector<Vec> cols;
  for (std::size_t c = 0; c < k; ++c) {
    cols.push_back(random_unit_like(g.n, 100 + c));
  }
  MultiVec b = MultiVec::from_columns(cols);
  BatchSolveReport report;
  MultiVec x = solver.solve_batch(b, &report).value();
  ASSERT_EQ(report.column_stats.size(), k);
  // Independent oracle (solve() itself routes through the batch path, so a
  // same-path comparison alone would be circular): a dense pseudo-inverse
  // factorization that shares no code with the batch machinery.
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  DenseLdlt ref = DenseLdlt::factor_laplacian(lap);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_TRUE(report.column_stats[c].converged);
    Vec xs = solver.solve(cols[c]).value();
    EXPECT_LT(max_col_diff(x, c, xs), 1e-10) << "column " << c;
    Vec x_ref = ref.solve(cols[c]);
    Vec diff = kernels::subtract(x.column(c), x_ref);
    EXPECT_LT(a_norm(lap, diff) / std::max(a_norm(lap, x_ref), 1e-30), 1e-6)
        << "column " << c << " vs dense reference";
  }
}

class BatchMethods : public ::testing::TestWithParam<SolveMethod> {};

TEST_P(BatchMethods, EveryMethodBatchesExactly) {
  GeneratedGraph g = grid2d(12, 12);
  randomize_weights_log_uniform(g.edges, 50.0, 3);
  SddSolverOptions opts;
  opts.method = GetParam();
  opts.max_iterations = 20000;
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges, opts);
  constexpr std::size_t k = 4;
  std::vector<Vec> cols;
  for (std::size_t c = 0; c < k; ++c) {
    cols.push_back(random_unit_like(g.n, 7 + 3 * c));
  }
  MultiVec x = solver.solve_batch(MultiVec::from_columns(cols)).value();
  for (std::size_t c = 0; c < k; ++c) {
    Vec xs = solver.solve(cols[c]).value();
    EXPECT_LT(max_col_diff(x, c, xs), 1e-10) << "column " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, BatchMethods,
                         ::testing::Values(SolveMethod::kChainPcg,
                                           SolveMethod::kChainRpch,
                                           SolveMethod::kCg,
                                           SolveMethod::kJacobiPcg));

TEST(BatchSolve, GrembanSddBatchMatchesSingle) {
  // SDD input with positive off-diagonals: the batch must ride the double
  // cover column-wise.
  std::vector<Triplet> ts = {
      {0, 0, 3.0},  {0, 1, 1.0},  {1, 0, 1.0},  {1, 1, 4.0},
      {1, 2, -2.0}, {2, 1, -2.0}, {2, 2, 3.0},
  };
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  SddSolverOptions opts;
  opts.tolerance = 1e-10;
  SddSolver solver = SddSolver::for_sdd(a, opts);
  std::vector<Vec> cols = {{1.0, 0.0, -1.0}, {0.5, -2.0, 1.5}, {0.0, 1.0, 0.0}};
  MultiVec x = solver.solve_batch(MultiVec::from_columns(cols)).value();
  for (std::size_t c = 0; c < cols.size(); ++c) {
    Vec xs = solver.solve(cols[c]).value();
    EXPECT_LT(max_col_diff(x, c, xs), 1e-10) << "column " << c;
  }
  // Wrong-sized batch must be rejected before the Gremban lift reads past
  // it: the lifted block is always 2n rows, so only a pre-lift check can
  // catch this.
  EXPECT_EQ(solver.solve_batch(MultiVec(2, 1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchSolve, DisconnectedGraphBatch) {
  // Two paths + isolated vertex; per-component projection must act
  // column-wise.
  EdgeList e;
  for (std::uint32_t i = 0; i + 1 < 10; ++i) e.push_back(Edge{i, i + 1, 1.0});
  for (std::uint32_t i = 10; i + 1 < 20; ++i) e.push_back(Edge{i, i + 1, 2.0});
  std::uint32_t n = 21;
  SddSolver solver = SddSolver::for_laplacian(n, e);
  std::vector<Vec> cols(3, Vec(n, 0.0));
  cols[0][0] = 1.0;
  cols[0][9] = -1.0;
  cols[1][10] = 2.0;
  cols[1][19] = -2.0;
  cols[2][3] = 1.0;
  cols[2][6] = -1.0;
  BatchSolveReport report;
  MultiVec x =
      solver.solve_batch(MultiVec::from_columns(cols), &report).value();
  EXPECT_EQ(report.components, 3u);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    Vec xs = solver.solve(cols[c]).value();
    EXPECT_LT(max_col_diff(x, c, xs), 1e-10) << "column " << c;
    EXPECT_DOUBLE_EQ(x.at(20, c), 0.0);  // isolated vertex grounded
  }
}

TEST(BatchSolve, ConcurrentSolvesAgainstSharedSetup) {
  GeneratedGraph g = grid2d(16, 16);
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  constexpr int kThreads = 2;
  std::vector<double> residuals(kThreads, 1.0);
  std::vector<double> diffs(kThreads, 1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread answers its own queries against the one shared setup:
      // a 4-column batch plus a single solve, repeated.
      std::vector<Vec> cols;
      for (std::size_t c = 0; c < 4; ++c) {
        cols.push_back(random_unit_like(g.n, 1000 * (t + 1) + c));
      }
      MultiVec x = solver.solve_batch(MultiVec::from_columns(cols)).value();
      double worst_res = 0.0, worst_diff = 0.0;
      for (std::size_t c = 0; c < cols.size(); ++c) {
        Vec xc = x.column(c);
        worst_res = std::max(worst_res, rel_residual(lap, xc, cols[c]));
        Vec xs = solver.solve(cols[c]).value();
        worst_diff = std::max(worst_diff, max_col_diff(x, c, xs));
      }
      residuals[t] = worst_res;
      diffs[t] = worst_diff;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LT(residuals[t], 1e-6) << "thread " << t;
    EXPECT_LT(diffs[t], 1e-10) << "thread " << t;
  }
}

TEST(SolverSetup, DirectApiReportsSetupShape) {
  GeneratedGraph g = grid2d(16, 16);
  SddSolverOptions opts;
  opts.chain.mode = ChainMode::kSampled;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
  EXPECT_EQ(setup.dimension(), g.n);
  EXPECT_EQ(setup.num_components(), 1u);
  EXPECT_GE(setup.chain_levels(), 2u);
  EXPECT_GT(setup.chain_edges(), 0u);
  Vec b = random_unit_like(g.n, 5);
  SddSolveReport report;
  Vec x = setup.solve(b, &report).value();
  EXPECT_TRUE(report.stats.converged);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  EXPECT_LT(rel_residual(lap, x, b), 1e-6);
}

TEST(BatchSolve, DegenerateInputsReturnInvalidArgument) {
  // Regression: k=0 blocks and wrong-dimension blocks used to fall through
  // to the kernels (assert/UB territory); they must come back as clean
  // InvalidArgument results on every entry point.
  GeneratedGraph g = grid2d(6, 6);
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges);

  StatusOr<MultiVec> empty = solver.solve_batch(MultiVec(g.n, 0));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  StatusOr<MultiVec> zero = solver.solve_batch(MultiVec());
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  StatusOr<MultiVec> short_rows = solver.solve_batch(MultiVec(g.n - 1, 3));
  ASSERT_FALSE(short_rows.ok());
  EXPECT_EQ(short_rows.status().code(), StatusCode::kInvalidArgument);

  StatusOr<MultiVec> long_rows = solver.solve_batch(MultiVec(g.n + 5, 3));
  ASSERT_FALSE(long_rows.ok());
  EXPECT_EQ(long_rows.status().code(), StatusCode::kInvalidArgument);

  StatusOr<Vec> wrong_vec = solver.solve(Vec(g.n + 1, 0.0));
  ASSERT_FALSE(wrong_vec.ok());
  EXPECT_EQ(wrong_vec.status().code(), StatusCode::kInvalidArgument);

  // The error message should name both dimensions so a serving log is
  // actionable.
  EXPECT_NE(short_rows.status().message().find("dimension"), std::string::npos);

  // The same setup still answers well-formed requests afterwards: a
  // rejected request must not poison shared state.
  Vec b = random_unit_like(g.n, 3);
  StatusOr<Vec> ok = solver.solve(b);
  ASSERT_TRUE(ok.ok());
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  EXPECT_LT(rel_residual(lap, *ok, b), 1e-6);
}

TEST(BatchSolve, GrembanDegenerateInputsRejected) {
  // k=0 through the SDD (double cover) path as well.
  std::vector<Triplet> ts = {
      {0, 0, 3.0},  {0, 1, 1.0},  {1, 0, 1.0},  {1, 1, 4.0},
      {1, 2, -2.0}, {2, 1, -2.0}, {2, 2, 3.0},
  };
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  SddSolver solver = SddSolver::for_sdd(a);
  EXPECT_EQ(solver.solve_batch(MultiVec(3, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(solver.solve_batch(MultiVec(6, 1)).status().code(),
            StatusCode::kInvalidArgument);  // lifted size must not be accepted
}

TEST(BatchSolve, PairResistancesMatchSingleQueries) {
  GeneratedGraph g = grid2d(8, 8);
  SddSolverOptions opts;
  opts.tolerance = 1e-10;
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges, opts);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {0, 1}, {0, 63}, {10, 53}, {7, 56}};
  std::vector<double> batched = pair_resistances(solver, g.n, pairs).value();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double single =
        effective_resistance(solver, pairs[i].first, pairs[i].second, g.n)
            .value();
    EXPECT_NEAR(batched[i], single, 1e-10) << "pair " << i;
  }
}

TEST(BatchSolve, MultiChannelHarmonicMatchesPerChannel) {
  GeneratedGraph g = grid2d(10, 10);
  std::vector<std::uint32_t> boundary = {0, 9, 90, 99};
  std::vector<std::vector<double>> channels = {
      {1.0, 0.0, 0.0, 1.0}, {0.0, 2.0, -1.0, 0.5}, {3.0, 3.0, 3.0, 3.0}};
  std::vector<Vec> multi =
      harmonic_extension_multi(g.n, g.edges, boundary, channels).value();
  ASSERT_EQ(multi.size(), channels.size());
  for (std::size_t c = 0; c < channels.size(); ++c) {
    Vec single =
        harmonic_extension(g.n, g.edges, boundary, channels[c]).value();
    double worst = 0.0;
    for (std::size_t i = 0; i < single.size(); ++i) {
      worst = std::max(worst, std::fabs(multi[c][i] - single[i]));
    }
    EXPECT_LT(worst, 1e-10) << "channel " << c;
  }
}

}  // namespace
}  // namespace parsdd
