// The sanctioned kernel surface: every hot loop over Vec / MultiVec data
// routes through here (enforced by the determinism lint's multivec-raw rule).
//
// Two layers:
//
//   1. kernels::Backend — a table of C function pointers over flat row-major
//      ranges (elementwise BLAS-1, column kernels, CSR SpMM with k-dimension
//      blocking, elimination fold/backsub column chunks), selected once per
//      process from {scalar, avx2, avx512} via cpuid with a
//      PARSDD_SIMD=scalar|avx2|avx512|auto override.  All three tables are
//      built from one kernel source (backend_kernels.h) compiled once per
//      ISA.  The backend functions are SERIAL over their range; parallelism
//      stays in layer 2.
//   2. The parsdd::kernels:: free functions — the deterministic parallel
//      entry points the solvers call.  They own the GranularitySites and the
//      canonical block partition, and invoke the selected backend once per
//      block, so the reduction-tree shape (and therefore every bit of every
//      result) is identical across backends and pool sizes.
//
// Bitwise-SIMD contract (DESIGN.md §9): vector backends vectorize only
// across independent lanes — the k columns of a row-major MultiVec, or the
// indices of an elementwise Vec loop — never along a serial reduction
// chain, and never with FMA contraction.  Each column therefore performs
// the exact IEEE operation sequence of the scalar backend, which is why
// PARSDD_SIMD=scalar and =avx512 solves are bitwise identical (test_kernels
// locks this in).  The serial chains (single-Vec dot/sum, per-row SpMV
// accumulation) are the same in every ISA, so they are not in the table:
// layer 2 runs them as plain functions, and may step several independent
// chains in one loop, never split one.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/multivec.h"

namespace parsdd::kernels {

/// One recorded GreedyElimination step (Lemma 6.5).  Defined here so the
/// fold/backsub backend kernels can walk the record without depending on
/// the solver layer; solver/greedy_elimination.h aliases it as
/// parsdd::EliminationStep.
struct ElimStep {
  std::uint32_t v = 0;       // eliminated vertex
  std::uint32_t degree = 0;  // 0, 1 or 2 at elimination time
  std::uint32_t u1 = 0, u2 = 0;
  double w1 = 0.0, w2 = 0.0;
  double pivot = 0.0;  // w1 + w2 (weighted degree of v)
};

/// Instruction-set tier of a backend implementation.
enum class SimdLevel : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The dispatchable kernel table.  All functions are serial over their
/// range; `rows`/`k` describe a row-major rows x k block.  Reduction
/// kernels ACCUMULATE into caller-zeroed acc[k] so the canonical block fold
/// stays in layer 2.
struct Backend {
  const char* name = "";
  SimdLevel level = SimdLevel::kScalar;

  // ---- elementwise f64 over [0, n) (independent per index) ----
  void (*scale_f64)(double a, double* x, std::size_t n);
  void (*sub_f64)(const double* x, const double* y, double* out,
                  std::size_t n);
  void (*sub_scalar_f64)(double m, double* x, std::size_t n);  // x[i] -= m

  // ---- column kernels over a rows x k row-major range ----
  void (*axpy_cols_f64)(const double* a, const double* x, double* y,
                        std::size_t rows, std::size_t k);
  void (*xpay_cols_f64)(const double* x, const double* a, double* y,
                        std::size_t rows, std::size_t k);
  void (*scale_cols_f64)(const double* a, double* x, std::size_t rows,
                         std::size_t k);
  void (*copy_cols_f64)(const double* src, double* dst, std::size_t rows,
                        std::size_t k);
  void (*sub_cols_f64)(const double* m, double* x, std::size_t rows,
                       std::size_t k);  // x[r*k+c] -= m[c]
  void (*dot_cols_acc_f64)(const double* x, const double* y, std::size_t rows,
                           std::size_t k, double* acc);
  void (*dot_diff_cols_acc_f64)(const double* z, const double* x,
                                const double* y, std::size_t rows,
                                std::size_t k, double* acc);
  void (*sum_cols_acc_f64)(const double* x, std::size_t rows, std::size_t k,
                           double* acc);

  // ---- CSR SpMM over row range [r0, r1) ----
  void (*spmm_rows_f64)(const std::size_t* off, const std::uint32_t* col,
                        const double* val, const double* x, double* y,
                        std::size_t r0, std::size_t r1, std::size_t k);

  // ---- elimination fold/backsub over column range [c0, c1), stride k ----
  void (*fold_cols_f64)(const ElimStep* steps, std::size_t nsteps,
                        double* folded, std::size_t k, std::size_t c0,
                        std::size_t c1);
  void (*backsub_cols_f64)(const ElimStep* steps, std::size_t nsteps,
                           const double* folded, double* x, std::size_t k,
                           std::size_t c0, std::size_t c1);
};

/// The backend selected for this process: the best level the CPU supports,
/// overridden by PARSDD_SIMD=scalar|avx2|avx512|auto.  An explicit request
/// the CPU cannot honor falls back to the best supported level (with a
/// one-time stderr note) so a pinned env var never crashes on older
/// hardware.  Selection happens once, on first use, and is immutable after.
const Backend& backend();
/// Name of the selected backend: "scalar", "avx2", or "avx512".
const char* backend_name();

// ---------------------------------------------------------------------------
// Layer 2: deterministic parallel entry points (the sanctioned call
// surface).

// ---- Vec BLAS-1 ----
double dot(const Vec& x, const Vec& y);
double norm2(const Vec& x);
void scale(double a, Vec& x);
Vec subtract(const Vec& x, const Vec& y);
double sum(const Vec& x);
void project_out_constant(Vec& x);

// ---- MultiVec column kernels (mask semantics of multivec.h: masked
//      columns are bitwise untouched).  Block CG passes its mask on every
//      iteration; an all-active mask takes the vectorized unmasked path and
//      only a partial mask runs the per-row scalar loop.  A one-column block
//      runs as a flat array (DESIGN.md §9). ----
void axpy_cols(const ColScalars& a, const MultiVec& x, MultiVec& y,
               const ColMask* mask = nullptr);
void xpay_cols(const MultiVec& x, const ColScalars& a, MultiVec& y,
               const ColMask* mask = nullptr);
ColScalars dot_cols(const MultiVec& x, const MultiVec& y);
ColScalars dot_diff_cols(const MultiVec& z, const MultiVec& x,
                         const MultiVec& y);
ColScalars norm2_cols(const MultiVec& x);
ColScalars sum_cols(const MultiVec& x);
void scale_cols(const ColScalars& a, MultiVec& x, const ColMask* mask = nullptr);
void copy_cols(const MultiVec& src, MultiVec& dst,
               const ColMask* mask = nullptr);
void project_out_constant_cols(MultiVec& x, const ColMask* mask = nullptr);

// ---- CSR SpMV / SpMM (callers pass the raw CSR arrays; csr_matrix.h owns
//      the structure) ----
void spmv(const std::size_t* off, const std::uint32_t* col, const double* val,
          std::size_t n, std::size_t nnz, const Vec& x, Vec& y);
void spmm(const std::size_t* off, const std::uint32_t* col, const double* val,
          std::size_t n, std::size_t nnz, const MultiVec& x, MultiVec& y);

// ---- elimination fold / back-substitution (parallel over column chunks;
//      `folded`/`x` are full-height blocks in the eliminated graph's
//      original numbering) ----
void fold_steps(const ElimStep* steps, std::size_t nsteps, MultiVec& folded);
void backsub_steps(const ElimStep* steps, std::size_t nsteps,
                   const MultiVec& folded, MultiVec& x);

// ---- row gather/scatter (component assembly, elimination relabeling) ----
/// dst.row(i) = src.row(index[i]) for i in [0, dst.rows()).
void gather_rows(const MultiVec& src, const std::uint32_t* index,
                 MultiVec& dst);
/// dst.row(index[i]) = src.row(i) for i in [0, src.rows()).
void scatter_rows(const MultiVec& src, const std::uint32_t* index,
                  MultiVec& dst);

}  // namespace parsdd::kernels
