// Backend selection + the deterministic parallel entry points.
//
// Layer-2 wrappers here reproduce the EXACT block structure the historic
// kernels in multivec.cpp / vector_ops.cpp / csr_matrix.cpp /
// greedy_elimination.cpp used: canonical_blocks partitions, per-block left
// folds combined in index order, and the same GranularitySite gating — so a
// solve is bitwise identical to the pre-backend code under every backend
// and every pool size.
//
// Block CG passes its column mask on every iteration, so the masked column
// variants check it once per call: an all-active mask takes the unmasked
// (vectorized) path, and only a partial mask runs the per-row scalar loop.
// A one-column block is a flat array, and the k = 1 routes treat it as one
// (DESIGN.md §9): elementwise kernels stream it as an (n/8) x 8 block with
// the coefficient replicated, SpMM is SpMV, fold/backsub walk the step
// record in one loop, and reductions advance several canonical blocks'
// independent serial chains per step.  Each element still sees the exact
// IEEE operation sequence of the k-column loop.
#include "kernels/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernels/backend_detail.h"
#include "parallel/primitives.h"

namespace parsdd::kernels {

namespace {

const Backend& best_supported() {
  if (detail::avx512_supported()) return detail::avx512_backend();
  if (detail::avx2_supported()) return detail::avx2_backend();
  return detail::scalar_backend();
}

const Backend& pick_backend() {
  const char* env = std::getenv("PARSDD_SIMD");
  const char* req = (env != nullptr && *env != '\0') ? env : "auto";
  if (std::strcmp(req, "scalar") == 0) return detail::scalar_backend();
  if (std::strcmp(req, "avx2") == 0) {
    if (detail::avx2_supported()) return detail::avx2_backend();
    const Backend& fb = best_supported();
    std::fprintf(stderr,
                 "parsdd: PARSDD_SIMD=avx2 not supported by this CPU; "
                 "using '%s' (results are bitwise identical)\n",
                 fb.name);
    return fb;
  }
  if (std::strcmp(req, "avx512") == 0) {
    if (detail::avx512_supported()) return detail::avx512_backend();
    const Backend& fb = best_supported();
    std::fprintf(stderr,
                 "parsdd: PARSDD_SIMD=avx512 not supported by this CPU; "
                 "using '%s' (results are bitwise identical)\n",
                 fb.name);
    return fb;
  }
  if (std::strcmp(req, "auto") != 0) {
    std::fprintf(stderr,
                 "parsdd: unknown PARSDD_SIMD value '%s' "
                 "(want scalar|avx2|avx512|auto); using auto\n",
                 req);
  }
  return best_supported();
}

// ---- serial chains: one left fold from +0.0 each.  They are the same in
//      every ISA, so they are plain functions, not Backend entries. ----

double dot_serial(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double sum_serial(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

// Kept out of line: inlined into the spmv/spmm block lambdas it ran slower
// end to end (DESIGN.md §9).
[[gnu::noinline]] void spmv_rows(const std::size_t* off,
                                 const std::uint32_t* col, const double* val,
                                 const double* x, double* y, std::size_t r0,
                                 std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    double acc = 0.0;
    for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
      acc += val[p] * x[col[p]];
    }
    y[i] = acc;
  }
}

// Column-chunk width for batched fold/backsub: a full cache line of doubles
// per chunk avoids false sharing between workers on the same row (same
// constant the pre-backend greedy_elimination.cpp used).
constexpr std::size_t kColChunk = 8;

GranularitySite& rowwise_site() {
  static GranularitySite site("multivec.rowwise");
  return site;
}
GranularitySite& reduce_site() {
  static GranularitySite site("multivec.reduce_cols");
  return site;
}
GranularitySite& vec_site() {
  static GranularitySite site("kernels.vec");
  return site;
}
GranularitySite& vec_reduce_site() {
  static GranularitySite site("kernels.vec_reduce");
  return site;
}

inline bool mask_active(const ColMask* mask, std::size_t c) {
  return mask == nullptr || (*mask)[c] != 0;
}

// An all-active mask is no mask: every column is updated either way.
bool partial_mask(const ColMask* mask) {
  return mask != nullptr &&
         std::any_of(mask->begin(), mask->end(),
                     [](std::uint8_t m) { return m == 0; });
}

// Flat views of a one-column block: [0, n) as an (n/8) x 8 row-major block
// with the coefficient replicated across the 8 columns, plus an n % 8 tail
// at k = 1.  Element i still computes y[i] += a * x[i] (resp.
// y[i] = x[i] + a * y[i]), so the bits are those of the k = 1 loop.
constexpr std::size_t kFlatWidth = 8;

void axpy_flat(const Backend& be, double a, const double* x, double* y,
               std::size_t n) {
  double av[kFlatWidth];
  std::fill_n(av, kFlatWidth, a);
  std::size_t body = n / kFlatWidth * kFlatWidth;
  be.axpy_cols_f64(av, x, y, body / kFlatWidth, kFlatWidth);
  be.axpy_cols_f64(av, x + body, y + body, n - body, 1);
}

void xpay_flat(const Backend& be, const double* x, double a, double* y,
               std::size_t n) {
  double av[kFlatWidth];
  std::fill_n(av, kFlatWidth, a);
  std::size_t body = n / kFlatWidth * kFlatWidth;
  be.xpay_cols_f64(x, av, y, body / kFlatWidth, kFlatWidth);
  be.xpay_cols_f64(x + body, av, y + body, n - body, 1);
}

// Runs fn(s, e) over the canonical blocks of [0, n) on the pool, or as one
// serial fn(0, n) call.  Legal only for partition-independent bodies
// (elementwise / per-row-independent kernels): the split cannot change bits.
template <typename Fn>
void run_elementwise(GranularitySite& site, std::size_t n, std::uint64_t work,
                     std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (work == 0) work = n;
  std::size_t nb = canonical_blocks(n, grain);
  if (nb > 1 && site.should_parallelize(work)) {
    std::size_t g = grain ? grain : kDefaultGrain;
    ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
      std::size_t s = b * g;
      std::size_t e = std::min(n, s + g);
      fn(s, e);
    });
    return;
  }
  parsdd::detail::SeqTimer timer(site, work);
  fn(0, n);
}

// Advances the serial chains of canonical blocks [b0, b0 + M) of [0, n)
// together and adds their sums to `total` in block order.  Chain j is the
// per-block fold — term(i) for i in its block, in increasing order, from
// +0.0 — so its bits do not depend on its neighbours; stepping M
// independent chains per iteration only keeps the FP adder busy instead of
// waiting on one dependency.  Only the last canonical block can be short,
// so chain M - 1 bounds the common length.
template <std::size_t M, typename Term>
void add_interleaved_chains(std::size_t n, std::size_t b0, const Term& term,
                            double& total) {
  constexpr std::size_t g = kDefaultGrain;
  const std::size_t s = b0 * g;
  const std::size_t common = std::min(g, n - (s + (M - 1) * g));
  double acc[M] = {};
  for (std::size_t i = 0; i < common; ++i) {
    for (std::size_t j = 0; j < M; ++j) acc[j] += term(s + j * g + i);
  }
  for (std::size_t j = 0; j + 1 < M; ++j) {
    for (std::size_t i = common; i < g; ++i) acc[j] += term(s + j * g + i);
  }
  for (std::size_t j = 0; j < M; ++j) total += acc[j];
}

// The k = 1 column reduction: sum of term(i) over [0, n) with the canonical
// block structure of reduce_cols_blocks (per-block chains from +0.0,
// partials combined from +0.0 in block order; a single block is its own
// chain), run inline unless the site sends the blocks to the pool.
template <typename Term>
double reduce_flat(GranularitySite& site, std::size_t n, const Term& term) {
  if (n == 0) return 0.0;
  std::size_t nb = canonical_blocks(n, 0);
  constexpr std::size_t g = kDefaultGrain;
  if (nb > 1 && site.should_parallelize(n)) {
    std::vector<double> partial(nb, 0.0);
    ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
      double acc = 0.0;
      for (std::size_t i = b * g, e = std::min(n, i + g); i < e; ++i) {
        acc += term(i);
      }
      partial[b] = acc;
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  }
  parsdd::detail::SeqTimer timer(site, n);
  if (nb == 1) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += term(i);
    return acc;
  }
  double total = 0.0;
  std::size_t b = 0;
  for (; b + 4 <= nb; b += 4) add_interleaved_chains<4>(n, b, term, total);
  switch (nb - b) {
    case 3:
      add_interleaved_chains<3>(n, b, term, total);
      break;
    case 2:
      add_interleaved_chains<2>(n, b, term, total);
      break;
    case 1:
      add_interleaved_chains<1>(n, b, term, total);
      break;
    default:
      break;
  }
  return total;
}

// Canonical per-block column reduction: per-block partials accumulated by a
// backend kernel, folded in index order — the historic reduce_cols
// structure from multivec.cpp, bit for bit.
template <typename AccFn>
ColScalars reduce_cols_blocks(GranularitySite& site, std::size_t rows,
                              std::size_t k, AccFn&& accblock) {
  ColScalars acc(k, 0.0);
  if (k == 0 || rows == 0) return acc;
  std::uint64_t work = static_cast<std::uint64_t>(rows) * k;
  std::size_t nb = canonical_blocks(rows, 0);
  if (nb == 1) {
    parsdd::detail::SeqTimer timer(site, work);
    accblock(0, rows, acc.data());
    return acc;
  }
  std::size_t g = kDefaultGrain;
  std::vector<ColScalars> partial(nb, ColScalars(k, 0.0));
  auto block_fold = [&](std::size_t b) {
    std::size_t s = b * g, e = std::min(rows, s + g);
    accblock(s, e, partial[b].data());
  };
  if (site.should_parallelize(work)) {
    ThreadPool::instance().run_blocks(nb, block_fold);
  } else {
    parsdd::detail::SeqTimer timer(site, work);
    for (std::size_t b = 0; b < nb; ++b) block_fold(b);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t c = 0; c < k; ++c) acc[c] += partial[b][c];
  }
  return acc;
}

}  // namespace

const Backend& backend() {
  static const Backend& be = pick_backend();
  return be;
}

const char* backend_name() { return backend().name; }

// ---------------------------------------------------------------------------
// Vec BLAS-1

double dot(const Vec& x, const Vec& y) {
  assert(x.size() == y.size());
  std::size_t n = x.size();
  if (n == 0) return 0.0;
  GranularitySite& site = vec_reduce_site();
  std::size_t nb = canonical_blocks(n, 0);
  if (nb == 1) {
    parsdd::detail::SeqTimer timer(site, n);
    return dot_serial(x.data(), y.data(), n);
  }
  std::vector<double> partial(nb, 0.0);
  auto block_fold = [&](std::size_t b) {
    std::size_t s = b * kDefaultGrain, e = std::min(n, s + kDefaultGrain);
    partial[b] = dot_serial(x.data() + s, y.data() + s, e - s);
  };
  if (site.should_parallelize(n)) {
    ThreadPool::instance().run_blocks(nb, block_fold);
  } else {
    parsdd::detail::SeqTimer timer(site, n);
    for (std::size_t b = 0; b < nb; ++b) block_fold(b);
  }
  double acc = 0.0;
  for (std::size_t b = 0; b < nb; ++b) acc += partial[b];
  return acc;
}

double norm2(const Vec& x) { return std::sqrt(dot(x, x)); }

void scale(double a, Vec& x) {
  const Backend& be = backend();
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    be.scale_f64(a, x.data() + s, e - s);
                  });
}

Vec subtract(const Vec& x, const Vec& y) {
  assert(x.size() == y.size());
  Vec out(x.size());
  const Backend& be = backend();
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    be.sub_f64(x.data() + s, y.data() + s, out.data() + s,
                               e - s);
                  });
  return out;
}

double sum(const Vec& x) {
  std::size_t n = x.size();
  if (n == 0) return 0.0;
  GranularitySite& site = vec_reduce_site();
  std::size_t nb = canonical_blocks(n, 0);
  if (nb == 1) {
    parsdd::detail::SeqTimer timer(site, n);
    return sum_serial(x.data(), n);
  }
  std::vector<double> partial(nb, 0.0);
  auto block_fold = [&](std::size_t b) {
    std::size_t s = b * kDefaultGrain, e = std::min(n, s + kDefaultGrain);
    partial[b] = sum_serial(x.data() + s, e - s);
  };
  if (site.should_parallelize(n)) {
    ThreadPool::instance().run_blocks(nb, block_fold);
  } else {
    parsdd::detail::SeqTimer timer(site, n);
    for (std::size_t b = 0; b < nb; ++b) block_fold(b);
  }
  double acc = 0.0;
  for (std::size_t b = 0; b < nb; ++b) acc += partial[b];
  return acc;
}

void project_out_constant(Vec& x) {
  if (x.empty()) return;
  double mean = sum(x) / static_cast<double>(x.size());
  const Backend& be = backend();
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    be.sub_scalar_f64(mean, x.data() + s, e - s);
                  });
}

// ---------------------------------------------------------------------------
// MultiVec column kernels

void axpy_cols(const ColScalars& a, const MultiVec& x, MultiVec& y,
               const ColMask* mask) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  assert(a.size() == x.cols());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (partial_mask(mask)) {
    parallel_for(rowwise_site(), 0, x.rows(), [&](std::size_t i) {
      const double* xr = x.row(i);
      double* yr = y.row(i);
      for (std::size_t c = 0; c < k; ++c) {
        if (mask_active(mask, c)) yr[c] += a[c] * xr[c];
      }
    }, 0, work);
    return;
  }
  const Backend& be = backend();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    if (k == 1) {
                      axpy_flat(be, a[0], x.row(s), y.row(s), e - s);
                    } else {
                      be.axpy_cols_f64(a.data(), x.row(s), y.row(s), e - s,
                                       k);
                    }
                  });
}

void xpay_cols(const MultiVec& x, const ColScalars& a, MultiVec& y,
               const ColMask* mask) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  assert(a.size() == x.cols());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (partial_mask(mask)) {
    parallel_for(rowwise_site(), 0, x.rows(), [&](std::size_t i) {
      const double* xr = x.row(i);
      double* yr = y.row(i);
      for (std::size_t c = 0; c < k; ++c) {
        if (mask_active(mask, c)) yr[c] = xr[c] + a[c] * yr[c];
      }
    }, 0, work);
    return;
  }
  const Backend& be = backend();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    if (k == 1) {
                      xpay_flat(be, x.row(s), a[0], y.row(s), e - s);
                    } else {
                      be.xpay_cols_f64(x.row(s), a.data(), y.row(s), e - s,
                                       k);
                    }
                  });
}

ColScalars dot_cols(const MultiVec& x, const MultiVec& y) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  std::size_t k = x.cols();
  if (k == 1) {
    const double* xp = x.row(0);
    const double* yp = y.row(0);
    return {reduce_flat(reduce_site(), x.rows(),
                        [=](std::size_t i) { return xp[i] * yp[i]; })};
  }
  const Backend& be = backend();
  return reduce_cols_blocks(
      reduce_site(), x.rows(), k,
      [&](std::size_t s, std::size_t e, double* acc) {
        be.dot_cols_acc_f64(x.row(s), y.row(s), e - s, k, acc);
      });
}

ColScalars dot_diff_cols(const MultiVec& z, const MultiVec& x,
                         const MultiVec& y) {
  assert(z.rows() == x.rows() && x.rows() == y.rows());
  assert(z.cols() == x.cols() && x.cols() == y.cols());
  std::size_t k = x.cols();
  if (k == 1) {
    const double* zp = z.row(0);
    const double* xp = x.row(0);
    const double* yp = y.row(0);
    return {reduce_flat(reduce_site(), x.rows(), [=](std::size_t i) {
      return zp[i] * (xp[i] - yp[i]);
    })};
  }
  const Backend& be = backend();
  return reduce_cols_blocks(
      reduce_site(), x.rows(), k,
      [&](std::size_t s, std::size_t e, double* acc) {
        be.dot_diff_cols_acc_f64(z.row(s), x.row(s), y.row(s), e - s, k, acc);
      });
}

ColScalars norm2_cols(const MultiVec& x) {
  ColScalars n = kernels::dot_cols(x, x);
  for (double& v : n) v = std::sqrt(v);
  return n;
}

ColScalars sum_cols(const MultiVec& x) {
  std::size_t k = x.cols();
  if (k == 1) {
    const double* xp = x.row(0);
    return {reduce_flat(reduce_site(), x.rows(),
                        [=](std::size_t i) { return xp[i]; })};
  }
  const Backend& be = backend();
  return reduce_cols_blocks(
      reduce_site(), x.rows(), k,
      [&](std::size_t s, std::size_t e, double* acc) {
        be.sum_cols_acc_f64(x.row(s), e - s, k, acc);
      });
}

void scale_cols(const ColScalars& a, MultiVec& x, const ColMask* mask) {
  assert(a.size() == x.cols());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (partial_mask(mask)) {
    parallel_for(rowwise_site(), 0, x.rows(), [&](std::size_t i) {
      double* xr = x.row(i);
      for (std::size_t c = 0; c < k; ++c) {
        if (mask_active(mask, c)) xr[c] *= a[c];
      }
    }, 0, work);
    return;
  }
  const Backend& be = backend();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    if (k == 1) {
                      be.scale_f64(a[0], x.row(s), e - s);
                    } else {
                      be.scale_cols_f64(a.data(), x.row(s), e - s, k);
                    }
                  });
}

void copy_cols(const MultiVec& src, MultiVec& dst, const ColMask* mask) {
  assert(src.rows() == dst.rows() && src.cols() == dst.cols());
  std::size_t k = src.cols();
  std::uint64_t work = static_cast<std::uint64_t>(src.rows()) * k;
  if (partial_mask(mask)) {
    parallel_for(rowwise_site(), 0, src.rows(), [&](std::size_t i) {
      const double* sr = src.row(i);
      double* dr = dst.row(i);
      for (std::size_t c = 0; c < k; ++c) {
        if (mask_active(mask, c)) dr[c] = sr[c];
      }
    }, 0, work);
    return;
  }
  const Backend& be = backend();
  run_elementwise(rowwise_site(), src.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    be.copy_cols_f64(src.row(s), dst.row(s), e - s, k);
                  });
}

void project_out_constant_cols(MultiVec& x, const ColMask* mask) {
  if (x.empty()) return;
  ColScalars mean = kernels::sum_cols(x);
  // Divide (not multiply by a reciprocal): bitwise-matches the single-column
  // project_out_constant so batched and single solves stay in lockstep.
  for (double& m : mean) m /= static_cast<double>(x.rows());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (partial_mask(mask)) {
    parallel_for(rowwise_site(), 0, x.rows(), [&](std::size_t i) {
      double* xr = x.row(i);
      for (std::size_t c = 0; c < k; ++c) {
        if (mask_active(mask, c)) xr[c] -= mean[c];
      }
    }, 0, work);
    return;
  }
  const Backend& be = backend();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    if (k == 1) {
                      be.sub_scalar_f64(mean[0], x.row(s), e - s);
                    } else {
                      be.sub_cols_f64(mean.data(), x.row(s), e - s, k);
                    }
                  });
}

// ---------------------------------------------------------------------------
// CSR

void spmv(const std::size_t* off, const std::uint32_t* col, const double* val,
          std::size_t n, std::size_t nnz, const Vec& x, Vec& y) {
  assert(x.size() == n && y.size() == n);
  static GranularitySite site("csr.spmv", /*init_ns_per_unit=*/2.0);
  run_elementwise(site, n, nnz, /*grain=*/512,
                  [&](std::size_t s, std::size_t e) {
                    spmv_rows(off, col, val, x.data(), y.data(), s, e);
                  });
}

void spmm(const std::size_t* off, const std::uint32_t* col, const double* val,
          std::size_t n, std::size_t nnz, const MultiVec& x, MultiVec& y) {
  assert(x.rows() == n && y.rows() == n && x.cols() == y.cols());
  std::size_t k = x.cols();
  static GranularitySite site("csr.spmm", /*init_ns_per_unit=*/2.0);
  const Backend& be = backend();
  run_elementwise(site, n, nnz * k, /*grain=*/512,
                  [&](std::size_t s, std::size_t e) {
                    if (k == 1) {  // same per-row chain from +0.0 as SpMM
                      spmv_rows(off, col, val, x.data().data(),
                                y.data().data(), s, e);
                    } else {
                      be.spmm_rows_f64(off, col, val, x.data().data(),
                                       y.data().data(), s, e, k);
                    }
                  });
}

// ---------------------------------------------------------------------------
// Elimination fold / back-substitution

void fold_steps(const ElimStep* steps, std::size_t nsteps, MultiVec& folded) {
  std::size_t k = folded.cols();
  static GranularitySite site("greedy.fold_block", /*init_ns_per_unit=*/3.0);
  std::size_t nchunks = (k + kColChunk - 1) / kColChunk;
  const Backend& be = backend();
  double* data = folded.data().data();
  if (k == 1) {  // one chunk: always inline, as run_elementwise would
    parsdd::detail::SeqTimer timer(site, nsteps > 0 ? nsteps : 1);
    for (std::size_t i = 0; i < nsteps; ++i) {
      const ElimStep& s = steps[i];
      double fv = data[s.v];
      if (s.degree >= 1) data[s.u1] += s.w1 / s.pivot * fv;
      if (s.degree == 2) data[s.u2] += s.w2 / s.pivot * fv;
    }
    return;
  }
  run_elementwise(site, nchunks, nsteps * k, /*grain=*/1,
                  [&](std::size_t s, std::size_t e) {
                    for (std::size_t ch = s; ch < e; ++ch) {
                      std::size_t c0 = ch * kColChunk;
                      std::size_t c1 = std::min(k, c0 + kColChunk);
                      be.fold_cols_f64(steps, nsteps, data, k, c0, c1);
                    }
                  });
}

void backsub_steps(const ElimStep* steps, std::size_t nsteps,
                   const MultiVec& folded, MultiVec& x) {
  std::size_t k = folded.cols();
  static GranularitySite site("greedy.backsub_block",
                              /*init_ns_per_unit=*/3.0);
  std::size_t nchunks = (k + kColChunk - 1) / kColChunk;
  const Backend& be = backend();
  const double* fdata = folded.data().data();
  double* xdata = x.data().data();
  if (k == 1) {  // one chunk: always inline, as run_elementwise would
    parsdd::detail::SeqTimer timer(site, nsteps > 0 ? nsteps : 1);
    for (std::size_t i = nsteps; i-- > 0;) {
      const ElimStep& s = steps[i];
      if (s.degree == 0) {
        xdata[s.v] = 0.0;
      } else if (s.degree == 1) {
        xdata[s.v] = fdata[s.v] / s.pivot + xdata[s.u1];
      } else {
        xdata[s.v] =
            (fdata[s.v] + s.w1 * xdata[s.u1] + s.w2 * xdata[s.u2]) / s.pivot;
      }
    }
    return;
  }
  run_elementwise(site, nchunks, nsteps * k, /*grain=*/1,
                  [&](std::size_t s, std::size_t e) {
                    for (std::size_t ch = s; ch < e; ++ch) {
                      std::size_t c0 = ch * kColChunk;
                      std::size_t c1 = std::min(k, c0 + kColChunk);
                      be.backsub_cols_f64(steps, nsteps, fdata, xdata, k, c0,
                                          c1);
                    }
                  });
}

// ---------------------------------------------------------------------------
// Row gather/scatter

void gather_rows(const MultiVec& src, const std::uint32_t* index,
                 MultiVec& dst) {
  assert(src.cols() == dst.cols());
  std::size_t k = dst.cols();
  static GranularitySite site("kernels.gather");
  parallel_for(
      site, 0, dst.rows(),
      [&](std::size_t i) {
        const double* s = src.row(index[i]);
        double* d = dst.row(i);
        for (std::size_t c = 0; c < k; ++c) d[c] = s[c];
      },
      0, static_cast<std::uint64_t>(dst.rows()) * k);
}

void scatter_rows(const MultiVec& src, const std::uint32_t* index,
                  MultiVec& dst) {
  assert(src.cols() == dst.cols());
  std::size_t k = src.cols();
  static GranularitySite site("kernels.scatter");
  parallel_for(
      site, 0, src.rows(),
      [&](std::size_t i) {
        const double* s = src.row(i);
        double* d = dst.row(index[i]);
        for (std::size_t c = 0; c < k; ++c) d[c] = s[c];
      },
      0, static_cast<std::uint64_t>(src.rows()) * k);
}

}  // namespace parsdd::kernels
