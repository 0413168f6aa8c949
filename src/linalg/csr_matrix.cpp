#include "linalg/csr_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "util/serialize.h"

namespace parsdd {

CsrMatrix CsrMatrix::from_triplets(std::uint32_t n, std::vector<Triplet> ts) {
  // Counting build, the scatter-then-canonicalize pattern of
  // Graph::from_edges: count triplets per row, scan the counts into row
  // starts, and scatter triplet indices with bump cursors (atomic on the
  // pool, plain inline).  The scatter order depends on scheduling, so each
  // row's slice is then sorted by (col, input index) and each run of equal
  // columns folded left to right: duplicates are summed in input order at
  // any pool size.
  static GranularitySite site("linalg.csr_scatter", /*init_ns_per_unit=*/4.0);
  const std::size_t m = ts.size();
  std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
  parallel_for_bump(site, 0, m, [&](std::size_t i, auto&& bump) {
    assert(ts[i].row < n && ts[i].col < n);
    bump(start[ts[i].row]);
  });
  scan_exclusive(start);  // start[n] == m
  std::vector<std::size_t> cursor = start;
  std::vector<std::size_t> order(m);
  parallel_for_bump(site, 0, m, [&](std::size_t i, auto&& bump) {
    order[bump(cursor[ts[i].row])] = i;
  });

  // Canonicalize each row and count its distinct columns; the second scan
  // turns the counts into the compacted offsets.
  CsrMatrix a;
  a.n_ = n;
  a.off_.assign(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, n, [&](std::size_t r) {
    auto b = order.begin() + start[r], e = order.begin() + start[r + 1];
    std::sort(b, e, [&](std::size_t x, std::size_t y) {
      return ts[x].col != ts[y].col ? ts[x].col < ts[y].col : x < y;
    });
    std::size_t distinct = 0;
    for (auto it = b; it != e; ++it) {
      if (it == b || ts[*it].col != ts[*(it - 1)].col) ++distinct;
    }
    a.off_[r] = distinct;
  });
  std::size_t nnz = scan_exclusive(a.off_);
  a.col_.resize(nnz);
  a.val_.resize(nnz);
  parallel_for(0, n, [&](std::size_t r) {
    std::size_t k = a.off_[r];
    for (std::size_t p = start[r]; p < start[r + 1]; ++p) {
      const Triplet& t = ts[order[p]];
      if (p > start[r] && t.col == a.col_[k - 1]) {
        a.val_[k - 1] += t.value;
      } else {
        a.col_[k] = t.col;
        a.val_[k] = t.value;
        ++k;
      }
    }
  });
  return a;
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  assert(x.size() == n_ && y.size() == n_);
  kernels::spmv(off_.data(), col_.data(), val_.data(), n_, val_.size(), x, y);
}

Vec CsrMatrix::apply(const Vec& x) const {
  Vec y(n_);
  multiply(x, y);
  return y;
}

void CsrMatrix::multiply(const MultiVec& x, MultiVec& y) const {
  assert(x.rows() == n_ && y.rows() == n_ && x.cols() == y.cols());
  kernels::spmm(off_.data(), col_.data(), val_.data(), n_, val_.size(), x, y);
}

MultiVec CsrMatrix::apply_block(const MultiVec& x) const {
  MultiVec y(n_, x.cols());
  multiply(x, y);
  return y;
}

Vec CsrMatrix::diagonal() const {
  Vec d(n_, 0.0);
  parallel_for(0, n_, [&](std::size_t i) {
    for (std::size_t k = off_[i]; k < off_[i + 1]; ++k) {
      if (col_[k] == i) d[i] += val_[k];
    }
  });
  return d;
}

bool CsrMatrix::is_sdd(double tol) const {
  // Diagonal dominance per row.
  bool dominant = parallel_reduce(
      0, n_, true,
      [&](std::size_t i) {
        double diag = 0.0, off_sum = 0.0;
        for (std::size_t k = off_[i]; k < off_[i + 1]; ++k) {
          if (col_[k] == i) {
            diag += val_[k];
          } else {
            off_sum += std::fabs(val_[k]);
          }
        }
        return diag + tol >= off_sum;
      },
      [](bool a, bool b) { return a && b; });
  if (!dominant) return false;
  // Symmetry: check A x = Aᵀ x for a few probe vectors would be probabilistic;
  // instead verify structurally via a transpose comparison.
  std::vector<Triplet> ts;
  ts.reserve(val_.size());
  for (std::uint32_t i = 0; i < n_; ++i) {
    for (std::size_t k = off_[i]; k < off_[i + 1]; ++k) {
      ts.push_back(Triplet{col_[k], i, val_[k]});
    }
  }
  CsrMatrix t = from_triplets(n_, std::move(ts));
  if (t.val_.size() != val_.size()) return false;
  for (std::size_t k = 0; k < val_.size(); ++k) {
    if (t.col_[k] != col_[k] || std::fabs(t.val_[k] - val_[k]) > tol) {
      return false;
    }
  }
  return t.off_ == off_;
}

bool CsrMatrix::is_laplacian(double tol) const {
  if (!is_sdd(tol)) return false;
  return parallel_reduce(
      0, n_, true,
      [&](std::size_t i) {
        double row_sum = 0.0;
        for (std::size_t k = off_[i]; k < off_[i + 1]; ++k) {
          row_sum += val_[k];
          if (col_[k] != i && val_[k] > tol) return false;
        }
        return std::fabs(row_sum) <= tol * (1.0 + std::fabs(row_sum));
      },
      [](bool a, bool b) { return a && b; });
}

double CsrMatrix::quadratic_form(const Vec& x) const {
  return parallel_reduce(
      0, n_, 0.0,
      [&](std::size_t i) {
        double acc = 0.0;
        for (std::size_t k = off_[i]; k < off_[i + 1]; ++k) {
          acc += val_[k] * x[col_[k]];
        }
        return x[i] * acc;
      },
      [](double a, double b) { return a + b; });
}

std::vector<double> CsrMatrix::to_dense() const {
  std::vector<double> d(static_cast<std::size_t>(n_) * n_, 0.0);
  for (std::uint32_t i = 0; i < n_; ++i) {
    for (std::size_t k = off_[i]; k < off_[i + 1]; ++k) {
      d[static_cast<std::size_t>(i) * n_ + col_[k]] += val_[k];
    }
  }
  return d;
}

void CsrMatrix::save(serialize::Writer& w) const {
  w.u32(n_);
  w.size_vec(off_);
  w.pod_vec(col_);
  w.pod_vec(val_);
}

CsrMatrix::View CsrMatrix::load_view(serialize::Reader& r) {
  View v;
  v.n = r.u32();
  // Writer::size_vec widens offsets to u64, the layout of a u64 pod span.
  v.off = r.pod_view<std::uint64_t>();
  v.col = r.pod_view<std::uint32_t>();
  v.val = r.pod_view<double>();
  return v;
}

CsrMatrix CsrMatrix::decode(const View& v, serialize::Reader& r) {
  if (!r.status().ok()) return CsrMatrix();
  CsrMatrix m;
  m.n_ = v.n;
  m.off_.resize(v.off.size);
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    if (!m.off_.empty()) {
      std::memcpy(m.off_.data(), v.off.bytes, m.off_.size() * sizeof(std::size_t));
    }
  } else {
    for (std::size_t i = 0; i < m.off_.size(); ++i) {
      m.off_[i] = static_cast<std::size_t>(v.off[i]);
    }
  }
  m.col_.resize(v.col.size);
  m.val_.resize(v.val.size);
  if (!m.col_.empty()) {
    std::memcpy(m.col_.data(), v.col.bytes,
                m.col_.size() * sizeof(std::uint32_t));
  }
  if (!m.val_.empty()) {
    std::memcpy(m.val_.data(), v.val.bytes, m.val_.size() * sizeof(double));
  }
  if (m.n_ == 0 && m.off_.empty()) {
    // A default-constructed (never built) matrix round-trips as-is.
    if (!m.col_.empty() || !m.val_.empty()) {
      r.fail("CsrMatrix snapshot violates CSR invariants");
      return CsrMatrix();
    }
    return m;
  }
  bool ok = m.off_.size() == static_cast<std::size_t>(m.n_) + 1 &&
            m.col_.size() == m.val_.size() && m.off_.front() == 0 &&
            m.off_.back() == m.col_.size();
  for (std::size_t i = 0; ok && i < m.n_; ++i) {
    ok = m.off_[i] <= m.off_[i + 1];
  }
  for (std::size_t i = 0; ok && i < m.col_.size(); ++i) {
    ok = m.col_[i] < m.n_;
  }
  if (!ok) {
    r.fail("CsrMatrix snapshot violates CSR invariants");
    return CsrMatrix();
  }
  return m;
}

CsrMatrix CsrMatrix::load(serialize::Reader& r) {
  View v = load_view(r);
  return decode(v, r);
}

bool CsrMatrix::matches(const View& v) const {
  if (v.n != n_ || v.off.size != off_.size() || v.col.size != col_.size() ||
      v.val.size != val_.size()) {
    return false;
  }
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    if (!off_.empty() &&
        std::memcmp(v.off.bytes, off_.data(), off_.size() * sizeof(std::size_t)) != 0) {
      return false;
    }
  } else {
    for (std::size_t i = 0; i < off_.size(); ++i) {
      if (v.off[i] != off_[i]) return false;
    }
  }
  return (col_.empty() || std::memcmp(v.col.bytes, col_.data(),
                                      col_.size() * sizeof(std::uint32_t)) ==
                             0) &&
         (val_.empty() || std::memcmp(v.val.bytes, val_.data(),
                                      val_.size() * sizeof(double)) == 0);
}

}  // namespace parsdd
