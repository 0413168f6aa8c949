// The kernel source, compiled once per instruction set.  backends.cpp
// includes this file three times, each time inside its own namespace and
// with PARSDD_ISA_TARGET defined as that copy's target attribute (empty,
// target("avx2"), target("avx512f")), and takes one Backend table from each
// copy's table().  Deliberately without #pragma once, and including
// nothing itself: backends.cpp includes kernels.h before opening the
// namespaces.
//
// Bitwise contract (DESIGN.md §9): a kernel vectorizes only across
// independent lanes (the k columns of a row, or the indices of an
// elementwise loop) with plain mul/add/div; the library builds with
// -ffp-contract=off, so no copy fuses a multiply-add.  Each lane runs the
// IEEE operation sequence of the one-column body, in every ISA.
//
// Every vector body is a fixed-width chunk: an Op's chunk<W> computes W
// adjacent columns into a local array and stores it afterwards, so no store
// can feed a load of the same chunk.  The fixed trip count and the staging
// let GCC and clang vectorize the chunk at -O2 as well as -O3 without
// proving that the pointers do not alias; a runtime-length loop stays
// scalar at -O2, and at -O3 pays an alias check on every call.  A block of
// k columns runs as chunks of kLanes (16 for SpMM) and then one chunk of
// the remaining width, itself a compile-time constant picked by a switch.

constexpr std::size_t kLanes = 8;

// Runs op.chunk<W>(p...) with W = w, 1 <= w <= kLanes.
template <typename Op, typename... Ptr>
PARSDD_ISA_TARGET inline void with_width(const Op& op, std::size_t w,
                                         Ptr... p) {
  switch (w) {
    case 1: return op.template chunk<1>(p...);
    case 2: return op.template chunk<2>(p...);
    case 3: return op.template chunk<3>(p...);
    case 4: return op.template chunk<4>(p...);
    case 5: return op.template chunk<5>(p...);
    case 6: return op.template chunk<6>(p...);
    case 7: return op.template chunk<7>(p...);
    default: return op.template chunk<kLanes>(p...);
  }
}

// Calls op.chunk<W>(p + c...) over columns [0, k): chunks of Wide columns,
// one of kLanes if Wide is wider and it fits, then one chunk of the
// remaining width.
template <std::size_t Wide = kLanes, typename Op, typename... Ptr>
PARSDD_ISA_TARGET inline void for_chunks(const Op& op, std::size_t k,
                                         Ptr... p) {
  std::size_t c = 0;
  for (; c + Wide <= k; c += Wide) op.template chunk<Wide>((p + c)...);
  if constexpr (Wide > kLanes) {
    if (c + kLanes <= k) {
      op.template chunk<kLanes>((p + c)...);
      c += kLanes;
    }
  }
  if (c < k) with_width(op, k - c, (p + c)...);
}

// The row kernels' form of for_chunks: op.chunk<W>(r, c) for every row r of
// a row-major rows x k block, c being the chunk's first column.  Each row
// is chunks of kLanes columns and a last chunk of W = (k - 1) % kLanes + 1
// columns; W is picked once per call, so the row loop has no width
// branches.
template <typename Op>
struct EachRow {
  const Op& op;
  std::size_t rows, k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk() const {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c + W < k; c += kLanes) {
        op.template chunk<kLanes>(r, c);
      }
      op.template chunk<W>(r, k - W);
    }
  }
};

template <typename Op>
PARSDD_ISA_TARGET inline void for_rows(const Op& op, std::size_t rows,
                                       std::size_t k) {
  if (k != 0) with_width(EachRow<Op>{op, rows, k}, (k - 1) % kLanes + 1);
}

// ---- elementwise over [0, n) ----

PARSDD_ISA_TARGET void scale_f64(double a, double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) x[i + j] *= a;
  }
  for (; i < n; ++i) x[i] *= a;
}

PARSDD_ISA_TARGET void sub_f64(const double* x, const double* y, double* out,
                               std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    double t[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) t[j] = x[i + j] - y[i + j];
    for (std::size_t j = 0; j < kLanes; ++j) out[i + j] = t[j];
  }
  for (; i < n; ++i) out[i] = x[i] - y[i];
}

PARSDD_ISA_TARGET void sub_scalar_f64(double m, double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) x[i + j] -= m;
  }
  for (; i < n; ++i) x[i] -= m;
}

// ---- column kernels over a rows x k row-major range ----

// a / m hold one coefficient per column of the row-major x / y block.

struct Axpy {  // y += a * x
  const double* a;
  const double* x;
  double* y;
  std::size_t k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(std::size_t r, std::size_t c) const {
    const double* ac = a + c;
    const double* xr = x + r * k + c;
    double* yr = y + r * k + c;
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = yr[j] + ac[j] * xr[j];
    for (std::size_t j = 0; j < W; ++j) yr[j] = t[j];
  }
};

struct Xpay {  // y = x + a * y
  const double* x;
  const double* a;
  double* y;
  std::size_t k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(std::size_t r, std::size_t c) const {
    const double* ac = a + c;
    const double* xr = x + r * k + c;
    double* yr = y + r * k + c;
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = xr[j] + ac[j] * yr[j];
    for (std::size_t j = 0; j < W; ++j) yr[j] = t[j];
  }
};

struct Scale {  // x *= a
  const double* a;
  double* x;
  std::size_t k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(std::size_t r, std::size_t c) const {
    const double* ac = a + c;
    double* xr = x + r * k + c;
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = xr[j] * ac[j];
    for (std::size_t j = 0; j < W; ++j) xr[j] = t[j];
  }
};

struct Sub {  // x -= m
  const double* m;
  double* x;
  std::size_t k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(std::size_t r, std::size_t c) const {
    const double* mc = m + c;
    double* xr = x + r * k + c;
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = xr[j] - mc[j];
    for (std::size_t j = 0; j < W; ++j) xr[j] = t[j];
  }
};

PARSDD_ISA_TARGET void axpy_cols_f64(const double* a, const double* x,
                                     double* y, std::size_t rows,
                                     std::size_t k) {
  for_rows(Axpy{a, x, y, k}, rows, k);
}

PARSDD_ISA_TARGET void xpay_cols_f64(const double* x, const double* a,
                                     double* y, std::size_t rows,
                                     std::size_t k) {
  for_rows(Xpay{x, a, y, k}, rows, k);
}

PARSDD_ISA_TARGET void scale_cols_f64(const double* a, double* x,
                                      std::size_t rows, std::size_t k) {
  for_rows(Scale{a, x, k}, rows, k);
}

// A plain copy: the C library's memmove is vectorized for every ISA.
PARSDD_ISA_TARGET void copy_cols_f64(const double* src, double* dst,
                                     std::size_t rows, std::size_t k) {
  __builtin_memmove(dst, src, rows * k * sizeof(double));
}

PARSDD_ISA_TARGET void sub_cols_f64(const double* m, double* x,
                                    std::size_t rows, std::size_t k) {
  for_rows(Sub{m, x, k}, rows, k);
}

// Reductions hold a chunk of column accumulators across the whole row range
// and add rows in increasing order, so each column is the serial chain of
// the one-column body.

struct DotAcc {  // acc += x .* y, summed over rows
  std::size_t rows, k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(double* acc, const double* x,
                               const double* y) const {
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = acc[j];
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < W; ++j) t[j] += x[r * k + j] * y[r * k + j];
    }
    for (std::size_t j = 0; j < W; ++j) acc[j] = t[j];
  }
};

struct DotDiffAcc {  // acc += z .* (x - y), summed over rows
  std::size_t rows, k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(double* acc, const double* z, const double* x,
                               const double* y) const {
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = acc[j];
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < W; ++j) {
        t[j] += z[r * k + j] * (x[r * k + j] - y[r * k + j]);
      }
    }
    for (std::size_t j = 0; j < W; ++j) acc[j] = t[j];
  }
};

struct SumAcc {  // acc += x, summed over rows
  std::size_t rows, k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(double* acc, const double* x) const {
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = acc[j];
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < W; ++j) t[j] += x[r * k + j];
    }
    for (std::size_t j = 0; j < W; ++j) acc[j] = t[j];
  }
};

PARSDD_ISA_TARGET void dot_cols_acc_f64(const double* x, const double* y,
                                        std::size_t rows, std::size_t k,
                                        double* acc) {
  for_chunks(DotAcc{rows, k}, k, acc, x, y);
}

PARSDD_ISA_TARGET void dot_diff_cols_acc_f64(const double* z, const double* x,
                                             const double* y,
                                             std::size_t rows, std::size_t k,
                                             double* acc) {
  for_chunks(DotDiffAcc{rows, k}, k, acc, z, x, y);
}

PARSDD_ISA_TARGET void sum_cols_acc_f64(const double* x, std::size_t rows,
                                        std::size_t k, double* acc) {
  for_chunks(SumAcc{rows, k}, k, acc, x);
}

// ---- CSR SpMM over row range [r0, r1) ----

// Each chunk walks all rows; row i's column chains advance together over
// its nonzeros, each from +0.0.  x and y point at the chunk's first column.
struct SpmmCols {
  const std::size_t* off;
  const std::uint32_t* col;
  const double* val;
  std::size_t r0, r1, k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(double* y, const double* x) const {
    for (std::size_t i = r0; i < r1; ++i) {
      double t[W] = {};
      for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
        const double v = val[p];
        const double* xr = x + static_cast<std::size_t>(col[p]) * k;
        for (std::size_t j = 0; j < W; ++j) t[j] += v * xr[j];
      }
      double* yr = y + i * k;
      for (std::size_t j = 0; j < W; ++j) yr[j] = t[j];
    }
  }
};

PARSDD_ISA_TARGET void spmm_rows_f64(const std::size_t* off,
                                     const std::uint32_t* col,
                                     const double* val, const double* x,
                                     double* y, std::size_t r0,
                                     std::size_t r1, std::size_t k) {
  for_chunks<2 * kLanes>(SpmmCols{off, col, val, r0, r1, k}, k, y, x);
}

// ---- elimination fold / back-substitution over columns [c0, c1) ----
//
// Columns are independent, so each chunk of the range walks the whole step
// record on its own; every column still sees the steps in record order.
// folded and x point at the chunk's first column of row 0.

struct FoldSteps {
  const ElimStep* steps;
  std::size_t nsteps, k;
  template <std::size_t W>  // fu += f * fv
  PARSDD_ISA_TARGET static void update(double* fu, const double* fv,
                                       double f) {
    double t[W];
    for (std::size_t j = 0; j < W; ++j) t[j] = fu[j] + f * fv[j];
    for (std::size_t j = 0; j < W; ++j) fu[j] = t[j];
  }
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(double* folded) const {
    for (std::size_t i = 0; i < nsteps; ++i) {
      const ElimStep& s = steps[i];
      const double* fv = folded + static_cast<std::size_t>(s.v) * k;
      if (s.degree >= 1) {
        update<W>(folded + static_cast<std::size_t>(s.u1) * k, fv,
                  s.w1 / s.pivot);
      }
      if (s.degree == 2) {
        update<W>(folded + static_cast<std::size_t>(s.u2) * k, fv,
                  s.w2 / s.pivot);
      }
    }
  }
};

struct BacksubSteps {
  const ElimStep* steps;
  std::size_t nsteps, k;
  template <std::size_t W>
  PARSDD_ISA_TARGET void chunk(double* x, const double* folded) const {
    for (std::size_t i = nsteps; i-- > 0;) {
      const ElimStep& s = steps[i];
      const double* fb = folded + static_cast<std::size_t>(s.v) * k;
      const double* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      const double* xu2 = x + static_cast<std::size_t>(s.u2) * k;
      double t[W];
      if (s.degree == 0) {
        for (std::size_t j = 0; j < W; ++j) t[j] = 0.0;
      } else if (s.degree == 1) {
        for (std::size_t j = 0; j < W; ++j) t[j] = fb[j] / s.pivot + xu1[j];
      } else {
        for (std::size_t j = 0; j < W; ++j) {
          t[j] = (fb[j] + s.w1 * xu1[j] + s.w2 * xu2[j]) / s.pivot;
        }
      }
      double* xv = x + static_cast<std::size_t>(s.v) * k;
      for (std::size_t j = 0; j < W; ++j) xv[j] = t[j];
    }
  }
};

PARSDD_ISA_TARGET void fold_cols_f64(const ElimStep* steps,
                                     std::size_t nsteps, double* folded,
                                     std::size_t k, std::size_t c0,
                                     std::size_t c1) {
  with_width(FoldSteps{steps, nsteps, k}, c1 - c0, folded + c0);
}

PARSDD_ISA_TARGET void backsub_cols_f64(const ElimStep* steps,
                                        std::size_t nsteps,
                                        const double* folded, double* x,
                                        std::size_t k, std::size_t c0,
                                        std::size_t c1) {
  with_width(BacksubSteps{steps, nsteps, k}, c1 - c0, x + c0, folded + c0);
}

inline Backend table(const char* name, SimdLevel level) {
  return Backend{name,
                 level,
                 &scale_f64,
                 &sub_f64,
                 &sub_scalar_f64,
                 &axpy_cols_f64,
                 &xpay_cols_f64,
                 &scale_cols_f64,
                 &copy_cols_f64,
                 &sub_cols_f64,
                 &dot_cols_acc_f64,
                 &dot_diff_cols_acc_f64,
                 &sum_cols_acc_f64,
                 &spmm_rows_f64,
                 &fold_cols_f64,
                 &backsub_cols_f64};
}
