// CG, flexible PCG, Chebyshev, Jacobi, and pencil eigenvalue estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "graph/generators.h"
#include "kernels/kernels.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/dense_ldlt.h"
#include "linalg/eig.h"
#include "linalg/jacobi.h"
#include "linalg/laplacian.h"

namespace parsdd {
namespace {

LinOp op_of(const CsrMatrix& a) {
  return [&a](const Vec& in, Vec& out) {
    out.resize(in.size());
    a.multiply(in, out);
  };
}

BlockLinOp block_op_of(const CsrMatrix& a) {
  return [&a](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    a.multiply(in, out);
  };
}

// Exact pseudo-inverse preconditioner through a dense factorization.
BlockLinOp dense_solve_of(const DenseLdlt& f) {
  return [&f](const MultiVec& in, MultiVec& out) {
    MultiVec t = in;
    kernels::project_out_constant_cols(t);
    ensure_shape(out, in.rows(), in.cols());
    f.solve_block(t, out);
  };
}

// A single right-hand side is a 1-column block.
MultiVec col(const Vec& v) { return MultiVec::from_columns({v}); }

TEST(Cg, SolvesDiagonalSystem) {
  std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 4.0}};
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  MultiVec b = col({1.0, 1.0, 1.0});
  MultiVec x(3, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-12;
  IterStats st = block_conjugate_gradient(block_op_of(a), b, x, o)[0];
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(x.at(1, 0), 0.5, 1e-9);
  EXPECT_NEAR(x.at(2, 0), 0.25, 1e-9);
}

TEST(Cg, ZeroRhsGivesZero) {
  CsrMatrix a = laplacian_from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  MultiVec b(3, 1, 0.0);
  MultiVec x = col({5.0, 5.0, 5.0});
  CgOptions o;
  IterStats st = block_conjugate_gradient(block_op_of(a), b, x, o)[0];
  EXPECT_TRUE(st.converged);
  EXPECT_DOUBLE_EQ(kernels::norm2(x.data()), 0.0);
}

TEST(Cg, LaplacianWithProjection) {
  GeneratedGraph g = grid2d(10, 10);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  Vec b = random_unit_like(g.n, 3);
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-10;
  o.project_constant = true;
  IterStats st = block_conjugate_gradient(block_op_of(lap), col(b), x, o)[0];
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(kernels::norm2(kernels::subtract(lap.apply(x.column(0)), b)) /
                  kernels::norm2(b),
              0.0, 1e-8);
}

TEST(Cg, ExactPreconditionerConvergesInFewIterations) {
  GeneratedGraph g = grid2d(8, 8);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  DenseLdlt f = DenseLdlt::factor_laplacian(lap);
  BlockLinOp pre = dense_solve_of(f);
  MultiVec b = col(random_unit_like(g.n, 4));
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-10;
  o.project_constant = true;
  IterStats st = block_conjugate_gradient(block_op_of(lap), b, x, o, &pre)[0];
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.iterations, 3u);
}

TEST(Cg, FlexibleModeHandlesVariablePreconditioner) {
  GeneratedGraph g = grid2d(12, 12);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  Vec d = lap.diagonal();
  int call_count = 0;
  // Preconditioner whose scaling drifts between calls.
  BlockLinOp pre = [&](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    double s = 1.0 + 0.05 * ((call_count++) % 3);
    for (std::size_t i = 0; i < in.rows(); ++i) {
      out.at(i, 0) = s * in.at(i, 0) / d[i];
    }
  };
  MultiVec b = col(random_unit_like(g.n, 5));
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-8;
  o.project_constant = true;
  o.flexible = true;
  o.max_iterations = 2000;
  IterStats st = block_conjugate_gradient(block_op_of(lap), b, x, o, &pre)[0];
  EXPECT_TRUE(st.converged);
}

// The loop block_conjugate_gradient ran before it tested the residual
// ahead of preconditioning it: every pass ends with a preconditioner
// application, including the last, whose z no step reads.  Kept verbatim
// as the reference for the bitwise comparison below.
std::vector<IterStats> reference_block_cg(const BlockLinOp& a,
                                          const MultiVec& b, MultiVec& x,
                                          const CgOptions& opts,
                                          const BlockLinOp* precond) {
  std::size_t n = b.rows(), k = b.cols();
  std::vector<IterStats> stats(k);
  BlockScratch s;
  ensure_shape(s.r, n, k);
  ensure_shape(s.z, n, k);
  ensure_shape(s.p, n, k);
  ensure_shape(s.ap, n, k);
  if (opts.flexible) ensure_shape(s.r_prev, n, k);
  ensure_shape(x, n, k);
  const ColScalars minus_one(k, -1.0);
  a(x, s.ap);
  kernels::copy_cols(b, s.r);
  kernels::axpy_cols(minus_one, s.ap, s.r);
  if (opts.project_constant) kernels::project_out_constant_cols(s.r);
  ColScalars bnorm = kernels::norm2_cols(b);
  ColMask alive(k, 1);
  std::size_t remaining = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (bnorm[c] == 0.0) {
      for (std::size_t i = 0; i < n; ++i) x.at(i, c) = 0.0;
      stats[c].converged = true;
      alive[c] = 0;
      --remaining;
    }
  }
  auto apply_precond = [&](const MultiVec& in, MultiVec& out) {
    if (precond) {
      (*precond)(in, out);
      if (opts.project_constant) kernels::project_out_constant_cols(out);
    } else {
      ensure_shape(out, in.rows(), in.cols());
      kernels::copy_cols(in, out);
    }
  };
  apply_precond(s.r, s.z);
  kernels::copy_cols(s.z, s.p);
  ColScalars rz = kernels::dot_cols(s.r, s.z);
  ColScalars alpha(k, 0.0), beta(k, 0.0);
  for (std::uint32_t it = 0; it < opts.max_iterations && remaining > 0; ++it) {
    ColScalars rnorm = kernels::norm2_cols(s.r);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      stats[c].relative_residual = rnorm[c] / bnorm[c];
      if (stats[c].relative_residual <= opts.tolerance) {
        stats[c].converged = true;
        alive[c] = 0;
        --remaining;
      }
    }
    if (remaining == 0) break;
    for (std::size_t c = 0; c < k; ++c) {
      if (alive[c]) ++stats[c].iterations;
    }
    a(s.p, s.ap);
    ColScalars pap = kernels::dot_cols(s.p, s.ap);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      if (!(pap[c] > 0.0)) {
        alive[c] = 0;
        --remaining;
        alpha[c] = 0.0;
      } else {
        alpha[c] = rz[c] / pap[c];
      }
    }
    if (remaining == 0) break;
    kernels::axpy_cols(alpha, s.p, x, &alive);
    if (opts.flexible) kernels::copy_cols(s.r, s.r_prev, &alive);
    ColScalars neg_alpha(k);
    for (std::size_t c = 0; c < k; ++c) neg_alpha[c] = -alpha[c];
    kernels::axpy_cols(neg_alpha, s.ap, s.r, &alive);
    if (opts.project_constant) kernels::project_out_constant_cols(s.r, &alive);
    apply_precond(s.r, s.z);
    ColScalars rz_next;
    if (opts.flexible) {
      ColScalars num = kernels::dot_diff_cols(s.z, s.r, s.r_prev);
      rz_next = kernels::dot_cols(s.r, s.z);
      for (std::size_t c = 0; c < k; ++c) beta[c] = num[c] / rz[c];
    } else {
      rz_next = kernels::dot_cols(s.r, s.z);
      for (std::size_t c = 0; c < k; ++c) beta[c] = rz_next[c] / rz[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      if (!std::isfinite(beta[c])) {
        alive[c] = 0;
        --remaining;
        continue;
      }
      if (beta[c] < 0.0) beta[c] = 0.0;
      rz[c] = rz_next[c];
    }
    kernels::xpay_cols(s.z, beta, s.p, &alive);
  }
  ColScalars rnorm = kernels::norm2_cols(s.r);
  for (std::size_t c = 0; c < k; ++c) {
    if (stats[c].converged) continue;
    if (bnorm[c] == 0.0) continue;
    stats[c].relative_residual = rnorm[c] / bnorm[c];
    stats[c].converged = stats[c].relative_residual <= opts.tolerance;
  }
  return stats;
}

// Testing the residual before preconditioning it changes no bit of x or of
// the stats, and saves exactly one preconditioner application per solve
// that stops on the tolerance or the cap: with no preconditioner, a fixed
// one (Jacobi) and a varying one (three inner CG steps), plain and
// flexible, at a cap of 4 and at convergence, on a block with a zero
// column and columns that converge at different iterations.
TEST(Cg, MatchesPreconditionEveryIterationReferenceBitwise) {
  GeneratedGraph g = grid2d(12, 12);
  randomize_weights_log_uniform(g.edges, 100.0, 4);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  BlockLinOp a = block_op_of(lap);
  Vec dipole(g.n, 0.0);
  dipole[0] = 1.0;
  dipole[g.n - 1] = -1.0;
  MultiVec b = MultiVec::from_columns(
      {random_unit_like(g.n, 21), Vec(g.n, 0.0), dipole});
  BlockLinOp jacobi = jacobi_preconditioner_block(lap);
  BlockLinOp inner_cg = [&](const MultiVec& in, MultiVec& out) {
    CgOptions io;
    io.max_iterations = 3;
    io.tolerance = 0.0;
    io.project_constant = true;
    out.assign(in.rows(), in.cols(), 0.0);
    block_conjugate_gradient(a, in, out, io, &jacobi);
  };
  const BlockLinOp* precs[] = {nullptr, &jacobi, &inner_cg};
  for (int pi = 0; pi < 3; ++pi) {
    for (bool flexible : {false, true}) {
      for (std::uint32_t cap : {4u, 5000u}) {
        SCOPED_TRACE("precond " + std::to_string(pi) + " flexible " +
                     std::to_string(flexible) + " cap " + std::to_string(cap));
        CgOptions o;
        o.tolerance = 1e-9;
        o.project_constant = true;
        o.flexible = flexible;
        o.max_iterations = cap;
        int calls = 0, ref_calls = 0;
        BlockLinOp counted = [&](const MultiVec& in, MultiVec& out) {
          ++calls;
          (*precs[pi])(in, out);
        };
        BlockLinOp ref_counted = [&](const MultiVec& in, MultiVec& out) {
          ++ref_calls;
          (*precs[pi])(in, out);
        };
        MultiVec x(g.n, 3, 0.0), x_ref(g.n, 3, 0.0);
        std::vector<IterStats> st = block_conjugate_gradient(
            a, b, x, o, precs[pi] ? &counted : nullptr);
        std::vector<IterStats> ref = reference_block_cg(
            a, b, x_ref, o, precs[pi] ? &ref_counted : nullptr);
        ASSERT_EQ(x.data().size(), x_ref.data().size());
        EXPECT_EQ(0, std::memcmp(x.data().data(), x_ref.data().data(),
                                 x.data().size() * sizeof(double)));
        std::uint32_t most = 0;
        for (std::size_t c = 0; c < 3; ++c) {
          EXPECT_EQ(st[c].iterations, ref[c].iterations) << "column " << c;
          EXPECT_EQ(st[c].converged, ref[c].converged) << "column " << c;
          EXPECT_EQ(0, std::memcmp(&st[c].relative_residual,
                                   &ref[c].relative_residual, sizeof(double)))
              << "column " << c;
          most = std::max(most, st[c].iterations);
        }
        if (cap == 5000) {
          EXPECT_TRUE(st[0].converged && st[1].converged && st[2].converged);
          EXPECT_NE(st[0].iterations, st[2].iterations);
        }
        if (precs[pi]) {
          EXPECT_EQ(static_cast<std::uint32_t>(calls), most);
          EXPECT_EQ(ref_calls, calls + 1);
        }
      }
    }
  }
}

// ---- rate-checked runs (CgOptions::rate_budget) ----

// A clique K_12 on [0, 12) with a 60-vertex path hanging off vertex 0: a
// dipole inside the clique is an eigenvector of the Jacobi-preconditioned
// operator, so Jacobi-PCG solves it in one step, while dipoles and random
// right-hand sides that reach into the path converge slowly or stall.
struct CliquePath {
  static constexpr std::uint32_t kClique = 12, kPath = 60;
  std::uint32_t n = kClique + kPath;
  CsrMatrix lap;
  CliquePath() {
    EdgeList e;
    for (std::uint32_t i = 0; i < kClique; ++i) {
      for (std::uint32_t j = i + 1; j < kClique; ++j) e.push_back({i, j, 1.0});
    }
    e.push_back({0, kClique, 1.0});
    for (std::uint32_t i = kClique; i + 1 < n; ++i) {
      e.push_back({i, i + 1, 1.0});
    }
    lap = laplacian_from_edges(n, e);
  }
  Vec dipole(std::uint32_t u, std::uint32_t v) const {
    Vec b(n, 0.0);
    b[u] = 1.0;
    b[v] = -1.0;
    return b;
  }
};

struct RateExit {
  std::uint32_t iterations = 0;
  bool converged = false;
  MultiVec x;
};

// The rate rule, spelled out on a single column: walk s = 0, 1, …, J, take
// the iterate and relative residual of the plain run capped at s (the
// reference loop above), and stop at the first s that converges, is a
// checkpoint 4, 8, 16, … whose residual exceeds tolerance^{s/J}, or is J.
RateExit reference_rate_exit(const BlockLinOp& a, const Vec& b,
                             const BlockLinOp& precond, double tolerance,
                             std::uint32_t budget) {
  for (std::uint32_t s = 0;; ++s) {
    CgOptions o;
    o.tolerance = tolerance;
    o.project_constant = true;
    o.max_iterations = s;
    RateExit e;
    e.x.assign(b.size(), 1, 0.0);
    IterStats st = reference_block_cg(a, MultiVec::from_columns({b}), e.x, o,
                                      &precond)[0];
    e.iterations = st.iterations;
    e.converged = st.converged;
    bool checkpoint = s >= 4 && (s & (s - 1)) == 0;
    if (st.converged || s == budget ||
        (checkpoint &&
         st.relative_residual >
             std::pow(tolerance, static_cast<double>(s) / budget))) {
      return e;
    }
  }
}

// True when some iteration s before `exit` that is not a checkpoint has a
// residual over tolerance^{s/J}: a rule tested at every iteration would
// leave there instead.
bool leaves_earlier_off_checkpoints(const BlockLinOp& a, const Vec& b,
                                    const BlockLinOp& precond,
                                    double tolerance, std::uint32_t budget,
                                    std::uint32_t exit) {
  for (std::uint32_t s = 1; s < exit; ++s) {
    if (s >= 4 && (s & (s - 1)) == 0) continue;
    CgOptions o;
    o.tolerance = tolerance;
    o.project_constant = true;
    o.max_iterations = s;
    MultiVec x(b.size(), 1, 0.0);
    IterStats st =
        reference_block_cg(a, MultiVec::from_columns({b}), x, o, &precond)[0];
    if (st.relative_residual >
        std::pow(tolerance, static_cast<double>(s) / budget)) {
      return true;
    }
  }
  return false;
}

void expect_bitwise_column(const MultiVec& block, std::size_t c,
                           const MultiVec& single) {
  ASSERT_EQ(block.rows(), single.rows());
  for (std::size_t i = 0; i < block.rows(); ++i) {
    double u = block.at(i, c), v = single.at(i, 0);
    ASSERT_EQ(0, std::memcmp(&u, &v, sizeof(double))) << "row " << i;
  }
}

// Each column of a rate-checked block leaves exactly where the reference
// rule says: it converges, leaves at the first checkpoint whose residual
// exceeds tolerance^{s/J}, or stops at J.  The block mixes all three (and a
// zero column), and every column equals its k=1 run bitwise.
TEST(CgRateBudget, ColumnsExitWhereTheReferenceRuleSays) {
  CliquePath g;
  BlockLinOp a = block_op_of(g.lap);
  BlockLinOp jacobi = jacobi_preconditioner_block(g.lap);
  const double tol = 1e-2;
  const std::uint32_t budget = 40;
  const std::uint32_t c0 = CliquePath::kClique;
  // Converges at 1, leaves at 4, runs to J, leaves at 4, is zero.
  std::vector<Vec> cols = {g.dipole(1, 2), random_unit_like(g.n, 3),
                           g.dipole(c0 + 30, c0 + 31),
                           g.dipole(c0 + 10, c0 + 50), Vec(g.n, 0.0)};
  for (Vec& b : cols) kernels::project_out_constant(b);
  CgOptions o;
  o.tolerance = tol;
  o.project_constant = true;
  o.max_iterations = 5000;
  o.rate_budget = budget;
  MultiVec b = MultiVec::from_columns(cols);
  MultiVec x(g.n, cols.size(), 0.0);
  std::vector<IterStats> st = block_conjugate_gradient(a, b, x, o, &jacobi);

  std::vector<std::uint32_t> exits;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    EXPECT_LE(st[c].iterations, budget);
    RateExit ref = reference_rate_exit(a, cols[c], jacobi, tol, budget);
    EXPECT_EQ(st[c].iterations, ref.iterations);
    EXPECT_EQ(st[c].converged, ref.converged);
    expect_bitwise_column(x, c, ref.x);
    MultiVec xs(g.n, 1, 0.0);
    IterStats single = block_conjugate_gradient(
        a, MultiVec::from_columns({cols[c]}), xs, o, &jacobi)[0];
    EXPECT_EQ(single.iterations, st[c].iterations);
    EXPECT_EQ(single.converged, st[c].converged);
    EXPECT_EQ(0, std::memcmp(&single.relative_residual,
                             &st[c].relative_residual, sizeof(double)));
    expect_bitwise_column(x, c, xs);
    exits.push_back(st[c].iterations);
  }
  // The block covers every way out of the run.
  EXPECT_TRUE(st[0].converged);
  EXPECT_EQ(exits[0], 1u);
  EXPECT_FALSE(st[1].converged);
  EXPECT_EQ(exits[1], 4u);
  EXPECT_FALSE(st[2].converged);
  EXPECT_EQ(exits[2], budget);
  EXPECT_EQ(exits[3], 4u);
  EXPECT_TRUE(st[4].converged);
  EXPECT_EQ(exits[4], 0u);
  // Column 1 is a case the checkpoints decide: tested at every iteration,
  // the rule would have let it leave before s = 4.
  EXPECT_TRUE(leaves_earlier_off_checkpoints(a, cols[1], jacobi, tol, budget,
                                             exits[1]));
}

// A residual exactly at tolerance^{s/J} does not leave: the rule is strict.
// The tolerance is chosen so that pow(tolerance, 4/8) is bit-equal to the
// column's relative residual after 4 steps.
TEST(CgRateBudget, ResidualAtTheThresholdStays) {
  CliquePath g;
  BlockLinOp a = block_op_of(g.lap);
  BlockLinOp jacobi = jacobi_preconditioner_block(g.lap);
  Vec b = random_unit_like(g.n, 3);
  kernels::project_out_constant(b);
  const std::uint32_t budget = 8;
  CgOptions capped;
  capped.project_constant = true;
  capped.max_iterations = 4;
  MultiVec x4(g.n, 1, 0.0);
  double rho4 = block_conjugate_gradient(a, MultiVec::from_columns({b}), x4,
                                         capped, &jacobi)[0]
                    .relative_residual;
  double tol = rho4 * rho4;
  for (int step = 0; step < 64 && std::pow(tol, 0.5) != rho4; ++step) {
    tol = std::nextafter(tol, std::pow(tol, 0.5) < rho4 ? 1.0 : 0.0);
  }
  ASSERT_EQ(std::pow(tol, 4.0 / budget), rho4);
  ASSERT_GT(rho4, tol);

  CgOptions o;
  o.tolerance = tol;
  o.project_constant = true;
  o.rate_budget = budget;
  MultiVec x(g.n, 1, 0.0);
  IterStats st = block_conjugate_gradient(a, MultiVec::from_columns({b}), x,
                                          o, &jacobi)[0];
  RateExit ref = reference_rate_exit(a, b, jacobi, tol, budget);
  EXPECT_EQ(ref.iterations, budget);
  EXPECT_EQ(st.iterations, ref.iterations);
  EXPECT_EQ(st.converged, ref.converged);
  expect_bitwise_column(x, 0, ref.x);
}

// A resumed run counts on from the earlier one: converged columns stay
// frozen with their stats, max_iterations caps each column's total, and a
// resumed block still equals its k=1 runs bitwise.
TEST(CgRateBudget, ResumeCountsOnAndCapsTheTotal) {
  CliquePath g;
  BlockLinOp a = block_op_of(g.lap);
  BlockLinOp jacobi = jacobi_preconditioner_block(g.lap);
  const std::uint32_t c0 = CliquePath::kClique;
  std::vector<Vec> cols = {g.dipole(1, 2), random_unit_like(g.n, 3),
                           g.dipole(c0 + 30, c0 + 31)};
  for (Vec& b : cols) kernels::project_out_constant(b);
  CgOptions lead;
  lead.tolerance = 1e-2;
  lead.project_constant = true;
  lead.rate_budget = 40;
  CgOptions rest;
  rest.tolerance = 1e-2;
  rest.project_constant = true;
  rest.flexible = true;
  rest.max_iterations = 41;
  MultiVec b = MultiVec::from_columns(cols);
  MultiVec x(g.n, cols.size(), 0.0);
  std::vector<IterStats> first = block_conjugate_gradient(a, b, x, lead,
                                                          &jacobi);
  std::vector<IterStats> st =
      block_conjugate_gradient(a, b, x, rest, &jacobi, nullptr, &first);
  ASSERT_TRUE(first[0].converged);
  EXPECT_EQ(st[0].iterations, first[0].iterations);
  EXPECT_TRUE(st[0].converged);
  EXPECT_EQ(0, std::memcmp(&st[0].relative_residual,
                           &first[0].relative_residual, sizeof(double)));
  EXPECT_GT(st[1].iterations, first[1].iterations);
  // Column 2 ran 40 steps in the first run and is capped at 41 in total.
  EXPECT_EQ(first[2].iterations, 40u);
  EXPECT_EQ(st[2].iterations, 41u);
  EXPECT_FALSE(st[2].converged);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    MultiVec bs = MultiVec::from_columns({cols[c]});
    MultiVec xs(g.n, 1, 0.0);
    std::vector<IterStats> f1 = block_conjugate_gradient(a, bs, xs, lead,
                                                         &jacobi);
    IterStats s1 =
        block_conjugate_gradient(a, bs, xs, rest, &jacobi, nullptr, &f1)[0];
    EXPECT_EQ(s1.iterations, st[c].iterations);
    EXPECT_EQ(s1.converged, st[c].converged);
    expect_bitwise_column(x, c, xs);
  }
}

TEST(Chebyshev, ConvergesWithTrueBoundsOnDiagonal) {
  // Diagonal system: spectrum known exactly.
  std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}};
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  MultiVec b = col({1.0, 2.0, 3.0});
  MultiVec x(3, 1, 0.0);
  ChebyshevOptions o;
  o.lambda_min = 1.0;
  o.lambda_max = 3.0;
  o.iterations = 40;
  IterStats st = chebyshev_block(block_op_of(a), b, x, o)[0];
  EXPECT_LT(st.relative_residual, 1e-8);
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-7);
}

TEST(Chebyshev, PreconditionedLaplacian) {
  GeneratedGraph g = grid2d(9, 9);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  DenseLdlt f = DenseLdlt::factor_laplacian(lap);
  BlockLinOp pre = dense_solve_of(f);
  MultiVec b = col(random_unit_like(g.n, 6));
  MultiVec x(g.n, 1, 0.0);
  ChebyshevOptions o;
  o.lambda_min = 0.9;
  o.lambda_max = 1.1;  // exact preconditioner: spectrum is {1}
  o.iterations = 12;
  o.project_constant = true;
  IterStats st = chebyshev_block(block_op_of(lap), b, x, o, &pre)[0];
  EXPECT_LT(st.relative_residual, 1e-8);
}

TEST(Chebyshev, RejectsBadBounds) {
  CsrMatrix a = laplacian_from_edges(2, {{0, 1, 1.0}});
  MultiVec b = col({1.0, -1.0});
  MultiVec x(2, 1, 0.0);
  ChebyshevOptions o;
  o.lambda_min = 2.0;
  o.lambda_max = 1.0;
  EXPECT_THROW(chebyshev_block(block_op_of(a), b, x, o),
               std::invalid_argument);
}

TEST(Chebyshev, IterationEstimateMonotone) {
  EXPECT_GE(chebyshev_iterations_for(100.0, 1e-6),
            chebyshev_iterations_for(100.0, 1e-2));
  EXPECT_GE(chebyshev_iterations_for(400.0, 1e-4),
            chebyshev_iterations_for(100.0, 1e-4));
  EXPECT_GE(chebyshev_iterations_for(1.0, 0.5), 1u);
}

TEST(Jacobi, ConvergesOnStrictlyDominantSystem) {
  // Laplacian + identity: strictly diagonally dominant, Jacobi converges.
  GeneratedGraph g = grid2d(6, 6);
  std::vector<Triplet> ts;
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  for (std::uint32_t i = 0; i < g.n; ++i) {
    auto cols = lap.row_cols(i);
    auto vals = lap.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ts.push_back({i, cols[k], vals[k]});
    }
    ts.push_back({i, i, 1.0});
  }
  CsrMatrix a = CsrMatrix::from_triplets(g.n, std::move(ts));
  Vec b = random_unit_like(g.n, 7);
  Vec x(g.n, 0.0);
  JacobiOptions o;
  o.tolerance = 1e-8;
  IterStats st = jacobi(a, b, x, o);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(kernels::norm2(kernels::subtract(a.apply(x), b)) / kernels::norm2(b), 0.0, 1e-7);
}

TEST(Jacobi, PreconditionerDividesByDiagonal) {
  std::vector<Triplet> ts = {{0, 0, 2.0}, {1, 1, 4.0}};
  CsrMatrix a = CsrMatrix::from_triplets(2, std::move(ts));
  BlockLinOp pre = jacobi_preconditioner_block(a);
  MultiVec out;
  pre(col({2.0, 4.0}), out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 1.0);
}

TEST(Eig, PencilOfScaledMatricesIsTheScale) {
  GeneratedGraph g = grid2d(7, 7);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  EdgeList scaled = g.edges;
  for (Edge& e : scaled) e.w *= 2.0;
  CsrMatrix lap2 = laplacian_from_edges(g.n, scaled);
  DenseLdlt f2 = DenseLdlt::factor_laplacian(lap2);
  LinOp a = op_of(lap2), bop = op_of(lap);
  LinOp solve_b = [&](const Vec& in, Vec& out) {
    // solve lap (= lap2 / 2): x = 2 * lap2^+ in
    Vec t = in;
    kernels::project_out_constant(t);
    out = f2.solve(t);
    kernels::scale(2.0, out);
  };
  // pencil (2L, L): all eigenvalues are 2.
  double mx = pencil_max_eig(a, bop, solve_b, g.n, 50, 1);
  EXPECT_NEAR(mx, 2.0, 1e-6);
}

TEST(Eig, MinEigOfSandwich) {
  // A = L, B = L + 0.5*L' where L' adds extra edges: x'Bx >= x'Ax, so
  // lambda_max(B^+A) <= 1 and pencil_min of (B, A) >= 1.
  GeneratedGraph g = grid2d(6, 6);
  CsrMatrix la = laplacian_from_edges(g.n, g.edges);
  EdgeList be = g.edges;
  be.push_back(Edge{0, g.n - 1, 0.5});
  CsrMatrix lb = laplacian_from_edges(g.n, be);
  DenseLdlt fb = DenseLdlt::factor_laplacian(lb);
  LinOp aop = op_of(la), bop = op_of(lb);
  LinOp solve_b = [&](const Vec& in, Vec& out) {
    Vec t = in;
    kernels::project_out_constant(t);
    out = fb.solve(t);
  };
  double mx = pencil_max_eig(aop, bop, solve_b, g.n, 100, 3);
  EXPECT_LE(mx, 1.0 + 1e-6);
  EXPECT_GT(mx, 0.5);
}

}  // namespace
}  // namespace parsdd
