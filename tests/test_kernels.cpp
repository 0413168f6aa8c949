// Kernel backend API: dispatch, per-kernel correctness at awkward shapes,
// and the bitwise-SIMD contract (DESIGN.md §9).
//
// The correctness tests compare every layer-2 entry point against a naive
// serial reference at a prime row count (257) and at every block width in
// kWidths, which straddles the 8-column vector chunk, the 16-column SpMM
// chunk and the fold/backsub column chunk, so both the full chunks and every
// remainder width are exercised.  The contract tests re-execute this
// binary per PARSDD_SIMD value (the env var is read once per process — same
// subprocess pattern as test_granularity) and demand that a k = 1 and a
// k = 17 chain solve are byte-identical across {scalar, avx2, avx512, auto}.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "file_test_util.h"
#include "graph/generators.h"
#include "kernels/kernels.h"
#include "linalg/csr_matrix.h"
#include "linalg/laplacian.h"
#include "parallel/granularity.h"
#include "parallel/rng.h"
#include "solver/greedy_elimination.h"
#include "solver/solver_setup.h"

namespace parsdd {
namespace {

constexpr std::size_t kRows = 257;  // prime: never a vector-width multiple
constexpr std::size_t kCols = 5;    // odd k: exercises remainder columns
// Block widths for the naive-reference tests: below, at and just past each
// chunk width (8 and 16 columns), plus the odd remainders in between.
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17};

MultiVec filled(std::uint64_t seed, std::size_t rows = kRows,
                std::size_t cols = kCols) {
  Rng rng(seed);
  MultiVec m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = rng.uniform(i) - 0.5;
  }
  return m;
}

Vec filled_vec(std::uint64_t seed, std::size_t n = kRows) {
  Rng rng(seed);
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(i) - 0.5;
  return v;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const MultiVec& a, const MultiVec& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bits(a.data(), b.data());
}

// Per-column coefficients with mixed signs, a zero and an inexact fraction.
ColScalars coefficients(std::size_t k) {
  const double pool[] = {0.5, -2.0, 1.0 / 3.0, 0.0, 7.25, -0.125, 3.5};
  ColScalars a(k);
  for (std::size_t c = 0; c < k; ++c) a[c] = pool[c % 7] + 0.25 * (c / 7);
  return a;
}

TEST(BackendSelection, NameMatchesTableAndLevel) {
  const kernels::Backend& b = kernels::backend();
  std::string name = kernels::backend_name();
  EXPECT_STREQ(b.name, name.c_str());
  if (name == "scalar") {
    EXPECT_EQ(b.level, kernels::SimdLevel::kScalar);
  } else if (name == "avx2") {
    EXPECT_EQ(b.level, kernels::SimdLevel::kAvx2);
  } else if (name == "avx512") {
    EXPECT_EQ(b.level, kernels::SimdLevel::kAvx512);
  } else {
    FAIL() << "unknown backend name '" << name << "'";
  }
  // Every function pointer is populated: a partially filled table would
  // crash deep inside a solve instead of here.
  EXPECT_NE(b.scale_f64, nullptr);
  EXPECT_NE(b.spmm_rows_f64, nullptr);
  EXPECT_NE(b.backsub_cols_f64, nullptr);
}

// ---------------------------------------------------------------------------
// Vec BLAS-1 against naive references.

TEST(VecKernels, MatchNaiveReference) {
  Vec x = filled_vec(1), y0 = filled_vec(2);

  double d = 0.0, s = 0.0;
  for (std::size_t i = 0; i < kRows; ++i) {
    d += x[i] * y0[i];  // serial chain: must match exactly, any backend
    s += x[i];
  }
  EXPECT_EQ(kernels::dot(x, y0), d);
  EXPECT_EQ(kernels::sum(x), s);
  EXPECT_EQ(kernels::norm2(x), std::sqrt(kernels::dot(x, x)));

  Vec y = y0;
  kernels::scale(3.0, y);
  for (std::size_t i = 0; i < kRows; ++i) ASSERT_EQ(y[i], 3.0 * y0[i]) << i;

  Vec diff = kernels::subtract(x, y0);
  for (std::size_t i = 0; i < kRows; ++i) ASSERT_EQ(diff[i], x[i] - y0[i]);

  y = y0;
  kernels::project_out_constant(y);
  double mean = s / static_cast<double>(kRows);
  (void)mean;  // projection subtracts y's own mean, checked via sum ~ 0
  EXPECT_NEAR(kernels::sum(y), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Column kernels against naive references, with and without masks.

TEST(ColKernels, AxpyXpayScaleCopyMatchNaive) {
  for (std::size_t k : kWidths) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    MultiVec x = filled(10, kRows, k), y0 = filled(11, kRows, k);
    ColScalars a = coefficients(k);

    MultiVec y = y0;
    kernels::axpy_cols(a, x, y);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(y.at(i, c), y0.at(i, c) + a[c] * x.at(i, c))
            << i << "," << c;
      }
    }

    y = y0;
    kernels::xpay_cols(x, a, y);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(y.at(i, c), x.at(i, c) + a[c] * y0.at(i, c))
            << i << "," << c;
      }
    }

    y = y0;
    kernels::scale_cols(a, y);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(y.at(i, c), a[c] * y0.at(i, c)) << i << "," << c;
      }
    }

    y = y0;
    kernels::project_out_constant_cols(y);
    ColScalars mean(k, 0.0);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t c = 0; c < k; ++c) mean[c] += y0.at(i, c);
    }
    for (double& m : mean) m /= static_cast<double>(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(y.at(i, c), y0.at(i, c) - mean[c]) << i << "," << c;
      }
    }

    y.assign(kRows, k, 0.0);
    kernels::copy_cols(x, y);
    EXPECT_EQ(y.data(), x.data());
  }
}

TEST(ColKernels, ReductionsMatchSerialChain) {
  for (std::size_t k : kWidths) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    MultiVec x = filled(20, kRows, k), y = filled(21, kRows, k),
             z = filled(22, kRows, k);
    ColScalars dot_ref(k, 0.0), diff_ref(k, 0.0), sum_ref(k, 0.0);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        dot_ref[c] += x.at(i, c) * y.at(i, c);
        diff_ref[c] += z.at(i, c) * (x.at(i, c) - y.at(i, c));
        sum_ref[c] += x.at(i, c);
      }
    }
    // kRows < kDefaultGrain: one canonical block, so the kernel's reduction
    // chain is the serial chain and equality is exact.
    EXPECT_EQ(kernels::dot_cols(x, y), dot_ref);
    EXPECT_EQ(kernels::dot_diff_cols(z, x, y), diff_ref);
    EXPECT_EQ(kernels::sum_cols(x), sum_ref);
    ColScalars n2 = kernels::norm2_cols(x);
    ColScalars self = kernels::dot_cols(x, x);
    for (std::size_t c = 0; c < k; ++c) {
      ASSERT_EQ(n2[c], std::sqrt(self[c]));
    }
  }
}

TEST(ColKernels, MaskedColumnsBitwiseUntouched) {
  MultiVec x = filled(30), y0 = filled(31);
  ColScalars a = {1.5, 2.5, -0.5, 4.0, 0.125};
  ColMask mask = {1, 0, 1, 0, 1};

  MultiVec y = y0;
  kernels::axpy_cols(a, x, y, &mask);
  MultiVec y2 = y0;
  kernels::scale_cols(a, y2, &mask);
  MultiVec y3 = y0;
  kernels::project_out_constant_cols(y3, &mask);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      if (mask[c]) {
        ASSERT_EQ(y.at(i, c), y0.at(i, c) + a[c] * x.at(i, c));
      } else {
        // Bitwise untouched, not merely numerically equal.
        ASSERT_EQ(std::memcmp(&y.at(i, c), &y0.at(i, c), sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&y2.at(i, c), &y0.at(i, c), sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&y3.at(i, c), &y0.at(i, c), sizeof(double)), 0);
      }
    }
  }
}

TEST(ColKernels, ProjectOutConstantZeroesColumnMeans) {
  MultiVec x = filled(40);
  kernels::project_out_constant_cols(x);
  ColScalars sums = kernels::sum_cols(x);
  for (std::size_t c = 0; c < kCols; ++c) {
    EXPECT_NEAR(sums[c], 0.0, 1e-12) << c;
  }
}

// ---------------------------------------------------------------------------
// Sparse kernels against a naive triple loop.

TEST(SparseKernels, SpmvSpmmMatchNaive) {
  GeneratedGraph g = grid2d(13, 11);  // odd dims: ragged row lengths
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  const std::size_t* off = lap.offsets();
  const std::uint32_t* col = lap.cols();
  const double* val = lap.vals();

  Vec x = filled_vec(50, g.n);
  Vec y(g.n, 0.0);
  kernels::spmv(off, col, val, g.n, lap.num_nonzeros(), x, y);
  for (std::size_t i = 0; i < g.n; ++i) {
    double acc = 0.0;
    for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
      acc += val[p] * x[col[p]];
    }
    ASSERT_EQ(y[i], acc) << i;
  }

  for (std::size_t k : kWidths) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    MultiVec xm = filled(51, g.n, k);
    MultiVec ym(g.n, k, 0.0);
    kernels::spmm(off, col, val, g.n, lap.num_nonzeros(), xm, ym);
    for (std::size_t i = 0; i < g.n; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        double acc = 0.0;
        for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
          acc += val[p] * xm.at(col[p], c);
        }
        ASSERT_EQ(ym.at(i, c), acc) << i << "," << c;
      }
    }
  }
}

// Elimination fold / back-substitution against a naive walk of the step
// record, column by column, at every block width: the column chunks split
// k into full 8-column chunks plus a remainder chunk.
TEST(ElimKernels, FoldBacksubMatchNaive) {
  GeneratedGraph g = grid2d(40, 37);
  randomize_weights_log_uniform(g.edges, 100.0, 9);
  GreedyEliminationResult el = greedy_eliminate(g.n, g.edges, 3);
  const std::vector<EliminationStep>& steps = el.steps;
  ASSERT_FALSE(steps.empty());
  for (std::size_t k : kWidths) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    MultiVec folded = filled(94, g.n, k);
    MultiVec fold_ref = folded;
    kernels::fold_steps(steps.data(), steps.size(), folded);
    for (const EliminationStep& s : steps) {
      for (std::size_t c = 0; c < k; ++c) {
        double fv = fold_ref.at(s.v, c);
        if (s.degree >= 1) fold_ref.at(s.u1, c) += s.w1 / s.pivot * fv;
        if (s.degree == 2) fold_ref.at(s.u2, c) += s.w2 / s.pivot * fv;
      }
    }
    EXPECT_TRUE(same_bits(folded, fold_ref));

    MultiVec x = filled(95, g.n, k);
    MultiVec x_ref = x;
    kernels::backsub_steps(steps.data(), steps.size(), folded, x);
    for (std::size_t i = steps.size(); i-- > 0;) {
      const EliminationStep& s = steps[i];
      for (std::size_t c = 0; c < k; ++c) {
        double& xv = x_ref.at(s.v, c);
        double fb = folded.at(s.v, c);
        if (s.degree == 0) {
          xv = 0.0;
        } else if (s.degree == 1) {
          xv = fb / s.pivot + x_ref.at(s.u1, c);
        } else {
          xv = (fb + s.w1 * x_ref.at(s.u1, c) + s.w2 * x_ref.at(s.u2, c)) /
               s.pivot;
        }
      }
    }
    EXPECT_TRUE(same_bits(x, x_ref));
  }
}

TEST(RowKernels, GatherScatterRoundTrip) {
  MultiVec src = filled(60);
  // A fixed permutation: gather through it, scatter back, recover src.
  std::vector<std::uint32_t> perm(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    perm[i] = static_cast<std::uint32_t>((i * 131) % kRows);  // 131 coprime
  }
  MultiVec gathered(kRows, kCols);
  kernels::gather_rows(src, perm.data(), gathered);
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(std::memcmp(gathered.row(i), src.row(perm[i]),
                          kCols * sizeof(double)),
              0);
  }
  MultiVec back(kRows, kCols, 0.0);
  kernels::scatter_rows(gathered, perm.data(), back);
  EXPECT_EQ(back.data(), src.data());
}

// ---------------------------------------------------------------------------
// One-column blocks: the k = 1 routes (flat elementwise streams, SpMV,
// interleaved reduction chains, one-loop fold/backsub) and the all-active
// mask shortcut must reproduce the k-column arithmetic bit for bit.  The
// row counts straddle the 8-wide flat view and the canonical block size.

constexpr std::size_t kFlatRows[] = {1, 7, 8, 2047, 2049, 4097};

// The canonical block fold: a serial chain from +0.0 per kDefaultGrain-row
// block, partials combined from +0.0 in block order (one block is its own
// chain).
template <typename Term>
double canonical_fold(std::size_t n, const Term& term) {
  std::size_t nb = canonical_blocks(n, 0);
  if (nb == 1) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += term(i);
    return acc;
  }
  double total = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    double acc = 0.0;
    for (std::size_t i = b * kDefaultGrain;
         i < std::min(n, (b + 1) * kDefaultGrain); ++i) {
      acc += term(i);
    }
    total += acc;
  }
  return total;
}

TEST(ColKernelsK1, ElementwiseMatchNaiveUnderEveryMask) {
  const ColScalars a = {-0.375};
  const ColMask all_active = {1};
  const ColMask frozen = {0};
  for (std::size_t rows : kFlatRows) {
    MultiVec x = filled(70, rows, 1), y0 = filled(71, rows, 1);
    MultiVec axpy_ref = y0, xpay_ref = y0, scale_ref = y0, proj_ref = y0;
    auto y0i = [&](std::size_t i) { return y0.at(i, 0); };
    double mean = canonical_fold(rows, y0i) / static_cast<double>(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      axpy_ref.at(i, 0) += a[0] * x.at(i, 0);
      xpay_ref.at(i, 0) = x.at(i, 0) + a[0] * y0.at(i, 0);
      scale_ref.at(i, 0) *= a[0];
      proj_ref.at(i, 0) -= mean;
    }
    for (const ColMask* mask : {static_cast<const ColMask*>(nullptr),
                                &all_active, &frozen}) {
      bool live = mask != &frozen;
      SCOPED_TRACE(::testing::Message()
                   << "rows=" << rows << " mask="
                   << (mask == nullptr ? "none" : live ? "all" : "frozen"));
      MultiVec y = y0;
      kernels::axpy_cols(a, x, y, mask);
      EXPECT_TRUE(same_bits(y, live ? axpy_ref : y0));
      y = y0;
      kernels::xpay_cols(x, a, y, mask);
      EXPECT_TRUE(same_bits(y, live ? xpay_ref : y0));
      y = y0;
      kernels::scale_cols(a, y, mask);
      EXPECT_TRUE(same_bits(y, live ? scale_ref : y0));
      y = y0;
      kernels::copy_cols(x, y, mask);
      EXPECT_TRUE(same_bits(y, live ? x : y0));
      y = y0;
      kernels::project_out_constant_cols(y, mask);
      EXPECT_TRUE(same_bits(y, live ? proj_ref : y0));
    }
  }
}

TEST(ColKernels, AllActiveMaskEqualsNoMask) {
  MultiVec x = filled(72), y0 = filled(73);
  ColScalars a = {1.5, 2.5, -0.5, 4.0, 0.125};
  ColMask all_active(kCols, 1);
  MultiVec ref = y0, y = y0;
  kernels::axpy_cols(a, x, ref);
  kernels::axpy_cols(a, x, y, &all_active);
  EXPECT_TRUE(same_bits(y, ref));
  ref = y0;
  y = y0;
  kernels::xpay_cols(x, a, ref);
  kernels::xpay_cols(x, a, y, &all_active);
  EXPECT_TRUE(same_bits(y, ref));
  ref = y0;
  y = y0;
  kernels::project_out_constant_cols(ref);
  kernels::project_out_constant_cols(y, &all_active);
  EXPECT_TRUE(same_bits(y, ref));
}

TEST(ColKernelsK1, ReductionsMatchCanonicalFold) {
  // 1, 2 and 3 canonical blocks, a full group of 4 plus a short fifth, and
  // ten blocks (two groups of 4 plus 2).
  const std::size_t g = kDefaultGrain;
  const std::size_t sizes[] = {1,     7,         g - 1,     g,         g + 1,
                               2 * g, 2 * g + 5, 4 * g + 1, 9 * g + 77};
  for (std::size_t rows : sizes) {
    SCOPED_TRACE(::testing::Message() << "rows=" << rows);
    MultiVec x = filled(80, rows, 1), y = filled(81, rows, 1),
             z = filled(82, rows, 1);
    auto xi = [&](std::size_t i) { return x.at(i, 0); };
    auto xy = [&](std::size_t i) { return x.at(i, 0) * y.at(i, 0); };
    auto xx = [&](std::size_t i) { return x.at(i, 0) * x.at(i, 0); };
    auto zxy = [&](std::size_t i) {
      return z.at(i, 0) * (x.at(i, 0) - y.at(i, 0));
    };
    EXPECT_EQ(kernels::dot_cols(x, y), ColScalars{canonical_fold(rows, xy)});
    EXPECT_EQ(kernels::dot_diff_cols(z, x, y),
              ColScalars{canonical_fold(rows, zxy)});
    EXPECT_EQ(kernels::sum_cols(x), ColScalars{canonical_fold(rows, xi)});
    EXPECT_EQ(kernels::norm2_cols(x),
              ColScalars{std::sqrt(canonical_fold(rows, xx))});
    // The Vec reductions share the canonical structure.
    EXPECT_EQ(kernels::dot(x.data(), y.data()), canonical_fold(rows, xy));
    EXPECT_EQ(kernels::sum(x.data()), canonical_fold(rows, xi));
  }
}

TEST(SparseKernelsK1, SpmmMatchesSpmv) {
  GeneratedGraph g = grid2d(67, 61);  // 4087 rows: 8 row blocks of 512
  randomize_weights_log_uniform(g.edges, 100.0, 5);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  MultiVec x = filled(90, g.n, 1);
  MultiVec ym(g.n, 1, 0.0);
  Vec yv(g.n, 0.0);
  kernels::spmm(lap.offsets(), lap.cols(), lap.vals(), g.n,
                lap.num_nonzeros(), x, ym);
  kernels::spmv(lap.offsets(), lap.cols(), lap.vals(), g.n,
                lap.num_nonzeros(), x.data(), yv);
  EXPECT_TRUE(same_bits(ym.data(), yv));
}

// fold_steps/backsub_steps at k = 1 against a plain scalar walk of the
// elimination record, through the block entry points the chain uses.
void expect_elimination_k1_matches(std::uint32_t n, const EdgeList& edges) {
  GreedyEliminationResult el = greedy_eliminate(n, edges, 3);
  MultiVec b = filled(91, n, 1);
  Vec folded_ref = b.data();
  for (const EliminationStep& s : el.steps) {
    if (s.degree >= 1) folded_ref[s.u1] += (s.w1 / s.pivot) * folded_ref[s.v];
    if (s.degree == 2) folded_ref[s.u2] += (s.w2 / s.pivot) * folded_ref[s.v];
  }
  Vec reduced_ref(el.reduced_n);
  for (std::uint32_t i = 0; i < el.reduced_n; ++i) {
    reduced_ref[i] = folded_ref[el.orig_of_reduced[i]];
  }
  MultiVec folded, reduced;
  el.fold_rhs_block(b, folded, reduced);
  EXPECT_TRUE(same_bits(folded.data(), folded_ref));
  EXPECT_TRUE(same_bits(reduced.data(), reduced_ref));

  MultiVec xr = filled(92, el.reduced_n, 1);
  Vec x_ref(n, 0.0);
  for (std::uint32_t i = 0; i < el.reduced_n; ++i) {
    x_ref[el.orig_of_reduced[i]] = xr.data()[i];
  }
  for (std::size_t k = el.steps.size(); k-- > 0;) {
    const EliminationStep& s = el.steps[k];
    if (s.degree == 0) {
      x_ref[s.v] = 0.0;
    } else if (s.degree == 1) {
      x_ref[s.v] = folded_ref[s.v] / s.pivot + x_ref[s.u1];
    } else {
      x_ref[s.v] = (folded_ref[s.v] + s.w1 * x_ref[s.u1] +
                    s.w2 * x_ref[s.u2]) / s.pivot;
    }
  }
  MultiVec x;
  el.back_substitute_block(folded, xr, x);
  EXPECT_TRUE(same_bits(x.data(), x_ref));
}

TEST(ElimKernelsK1, FoldBacksubMatchSingleVectorOnTree) {
  GeneratedGraph t = path(3001);  // a tree eliminates to nothing
  randomize_weights_log_uniform(t.edges, 100.0, 6);
  GreedyEliminationResult el = greedy_eliminate(t.n, t.edges, 3);
  ASSERT_EQ(el.reduced_n, 0u);
  expect_elimination_k1_matches(t.n, t.edges);
}

TEST(ElimKernelsK1, FoldBacksubMatchSingleVectorWithReducedGraph) {
  GeneratedGraph g = grid2d(40, 37);
  randomize_weights_log_uniform(g.edges, 100.0, 7);
  GreedyEliminationResult el = greedy_eliminate(g.n, g.edges, 3);
  ASSERT_GT(el.reduced_n, 0u);
  ASSERT_FALSE(el.steps.empty());
  expect_elimination_k1_matches(g.n, g.edges);
}

// Lockstep: column c of a k = 5 block solve is bitwise the k = 1 solve of
// that column, so the k = 1 routes and the k-column kernels agree through
// a whole chain solve (every level, mask and reduction).
TEST(Kernels, BlockColumnsEqualSingleSolvesBitwise) {
  GeneratedGraph g = grid2d(48, 45);  // 2160 rows: two canonical blocks
  randomize_weights_log_uniform(g.edges, 100.0, 8);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  MultiVec b = filled(93, g.n, kCols);
  StatusOr<MultiVec> xb = setup.solve_batch(b);
  ASSERT_TRUE(xb.ok()) << xb.status().to_string();
  for (std::size_t c = 0; c < kCols; ++c) {
    StatusOr<Vec> xc = setup.solve(b.column(c));
    ASSERT_TRUE(xc.ok()) << xc.status().to_string();
    EXPECT_TRUE(same_bits(xb->column(c), *xc)) << "column " << c;
  }
}

// ---------------------------------------------------------------------------
// The bitwise-SIMD contract: a full chain solve is byte-identical under
// every PARSDD_SIMD setting.  The env var is latched on first backend()
// use, so each configuration runs in a child process.

// Child mode: chain solves, raw solution bytes dumped to the env-named
// file.  A default-options k = 1 solve on a grid runs the one-column
// routes; a k = 17 block solve on a 3-D grid whose kSampled chain has five
// levels and a dense bottom runs the 16- and 8-column vector bodies and the
// remainder column of every column kernel, SpMM, fold/backsub chunk and
// the bottom solve.  Also a smoke test under plain ctest.
TEST(KernelsChild, SolveAndDump) {
  GeneratedGraph g = grid2d(24, 24);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  Vec b = random_unit_like(g.n, 777);
  kernels::project_out_constant(b);
  StatusOr<Vec> x = setup.solve(b);
  ASSERT_TRUE(x.ok()) << x.status().to_string();

  GeneratedGraph g3 = grid3d(8, 8, 8);
  SddSolverOptions sampled;
  sampled.chain.mode = ChainMode::kSampled;
  SolverSetup setup3 = SolverSetup::for_laplacian(g3.n, g3.edges, sampled);
  ASSERT_GE(setup3.chain_levels(), 2u);
  MultiVec b3 = filled(778, g3.n, 17);
  kernels::project_out_constant_cols(b3);
  StatusOr<MultiVec> x3 = setup3.solve_batch(b3);
  ASSERT_TRUE(x3.ok()) << x3.status().to_string();

  const char* out = std::getenv("PARSDD_KERNELS_OUT");
  if (!out) return;
  std::FILE* f = std::fopen(out, "wb");
  ASSERT_NE(f, nullptr) << out;
  ASSERT_EQ(std::fwrite(x->data(), sizeof(double), x->size(), f), x->size());
  const std::vector<double>& x3d = x3->data();
  ASSERT_EQ(std::fwrite(x3d.data(), sizeof(double), x3d.size(), f),
            x3d.size());
  std::fclose(f);
}

using test_util::file_bytes;
using test_util::self_exe;

TEST(Kernels, BackendsBitwiseIdentical) {
  std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  std::string dir = ::testing::TempDir();
  // Explicit requests the CPU cannot honor fall back (with a stderr note)
  // to the best supported level, so every config runs everywhere — and the
  // contract says the bytes agree regardless of where each one lands.
  const char* configs[] = {"scalar", "avx2", "avx512", "auto"};
  std::vector<std::vector<std::uint8_t>> results;
  std::vector<std::string> paths;
  for (const char* simd : configs) {
    std::string out = dir + "parsdd_kern_" + std::to_string(::getpid()) +
                      "_" + simd + ".bin";
    paths.push_back(out);
    std::string cmd = std::string("PARSDD_SIMD=") + simd +
                      " PARSDD_KERNELS_OUT='" + out + "' '" + exe +
                      "' --gtest_filter=KernelsChild.SolveAndDump"
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    ASSERT_EQ(rc, 0) << "child PARSDD_SIMD=" << simd << " failed";
    results.push_back(file_bytes(out));
    ASSERT_FALSE(results.back().empty());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i])
        << "PARSDD_SIMD=" << configs[i]
        << " diverged bitwise from PARSDD_SIMD=scalar";
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

}  // namespace
}  // namespace parsdd
