// The single-vector type, plus a seeded test-vector generator.
//
// The BLAS-1 kernels every solver iteration runs (O(n)-work, O(log n)-depth
// operations plus one SpMV, matching the paper's accounting: "O(1)
// matrix-vector multiplications ... and other simple vector-vector
// operations", Section 6) live in kernels/kernels.h (parsdd::kernels::).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parsdd {

using Vec = std::vector<double>;

/// Deterministic pseudo-random vector with entries in [-1, 1], mean removed,
/// unit norm.
Vec random_unit_like(std::size_t n, std::uint64_t seed);

/// True when no entry is NaN or infinite.
bool all_finite(const Vec& v);

}  // namespace parsdd
