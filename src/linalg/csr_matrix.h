// Symmetric sparse matrices in CSR form with parallel SpMV.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "linalg/multivec.h"
#include "linalg/vector_ops.h"

namespace parsdd {

struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

/// A square sparse matrix; both triangles stored.  Each row lists its
/// columns in increasing order, one entry per distinct coordinate.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from coordinate triplets by a counting build: O(m) work plus a
  /// sort of each row's own entries.  Duplicate coordinates are summed in
  /// input order (a left fold starting from the first), at any pool size.
  /// The caller is responsible for supplying a symmetric pattern when
  /// symmetry is assumed (Laplacian/SDD helpers do this).
  static CsrMatrix from_triplets(std::uint32_t n, std::vector<Triplet> ts);

  std::uint32_t dimension() const { return n_; }
  std::size_t num_nonzeros() const { return val_.size(); }

  /// y = A x; parallel over rows, O(nnz) work.
  void multiply(const Vec& x, Vec& y) const;
  Vec apply(const Vec& x) const;

  /// Y = A X (SpMM): one traversal of the matrix structure serves all
  /// X.cols() right-hand sides; the inner loop is contiguous over each
  /// row of the block.  Column c is arithmetically identical to
  /// multiply(X[:,c]).
  void multiply(const MultiVec& x, MultiVec& y) const;
  MultiVec apply_block(const MultiVec& x) const;

  /// Diagonal entries (zeros where absent).
  Vec diagonal() const;

  /// Checks symmetric diagonal dominance: A = Aᵀ and
  /// A_ii >= Σ_{j≠i} |A_ij| for all i (within `tol` slack).
  bool is_sdd(double tol = 1e-9) const;

  /// Checks the Laplacian property: SDD, non-positive off-diagonals, and
  /// zero row sums (within tol).
  bool is_laplacian(double tol = 1e-9) const;

  /// Quadratic form xᵀ A x.
  double quadratic_form(const Vec& x) const;

  /// Dense row-major copy (for the bottom-level factorization; small n only).
  std::vector<double> to_dense() const;

  /// Snapshot encoding (util/serialize.h): the CSR arrays verbatim, so a
  /// loaded matrix multiplies bitwise-identically to the saved one (no
  /// re-sorting or duplicate merging on the load path).  load() validates
  /// the structural invariants (monotone offsets, in-range columns) so a
  /// corrupt snapshot fails the Reader instead of crashing a later SpMV.
  void save(serialize::Writer& w) const;
  static CsrMatrix load(serialize::Reader& r);

  /// save()'s arrays read in place (valid while the Reader lives), so a
  /// loader can check a serialized matrix against one it already holds
  /// before deciding to decode it.
  struct View {
    std::uint32_t n = 0;
    serialize::Reader::PodView<std::uint64_t> off;
    serialize::Reader::PodView<std::uint32_t> col;
    serialize::Reader::PodView<double> val;
  };
  static View load_view(serialize::Reader& r);
  /// Decodes `v` with load()'s validation, failing `r` on a violation.
  static CsrMatrix decode(const View& v, serialize::Reader& r);
  /// True when this matrix saves to exactly the bytes `v` views.
  bool matches(const View& v) const;

  /// Row access for algorithms that need to walk the structure.
  std::span<const std::uint32_t> row_cols(std::uint32_t i) const {
    return {col_.data() + off_[i], off_[i + 1] - off_[i]};
  }
  std::span<const double> row_vals(std::uint32_t i) const {
    return {val_.data() + off_[i], off_[i + 1] - off_[i]};
  }

  /// Raw CSR arrays for the kernel entry points (kernels/kernels.h).
  const std::size_t* offsets() const { return off_.data(); }
  const std::uint32_t* cols() const { return col_.data(); }
  const double* vals() const { return val_.data(); }

 private:
  std::uint32_t n_ = 0;
  std::vector<std::size_t> off_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

}  // namespace parsdd
