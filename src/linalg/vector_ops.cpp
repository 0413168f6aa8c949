#include "linalg/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"

namespace parsdd {

Vec random_unit_like(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  parallel_for(0, n, [&](std::size_t i) { v[i] = 2.0 * rng.uniform(i) - 1.0; });
  kernels::project_out_constant(v);
  double nrm = kernels::norm2(v);
  if (nrm > 0) kernels::scale(1.0 / nrm, v);
  return v;
}

bool all_finite(const Vec& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double e) { return std::isfinite(e); });
}

}  // namespace parsdd
