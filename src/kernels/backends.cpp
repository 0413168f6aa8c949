// The three Backend tables, built from one kernel source: backend_kernels.h
// is compiled once per instruction set, each copy in its own namespace with
// its own target attribute.  The AVX copies carry function-level target
// attributes rather than -mavx2/-mavx512f, so this TU links into a binary
// that must still run on older CPUs; kernels.cpp takes an AVX table only
// after __builtin_cpu_supports says the CPU has that ISA.
#include "kernels/backend_detail.h"

namespace parsdd::kernels::detail {

namespace scalar_isa {
#define PARSDD_ISA_TARGET
#include "kernels/backend_kernels.h"
#undef PARSDD_ISA_TARGET
}  // namespace scalar_isa

const Backend& scalar_backend() {
  static const Backend be = scalar_isa::table("scalar", SimdLevel::kScalar);
  return be;
}

#if defined(__x86_64__) || defined(__i386__)

namespace avx2_isa {
#define PARSDD_ISA_TARGET __attribute__((target("avx2")))
#include "kernels/backend_kernels.h"
#undef PARSDD_ISA_TARGET
}  // namespace avx2_isa

namespace avx512_isa {
#define PARSDD_ISA_TARGET __attribute__((target("avx512f")))
#include "kernels/backend_kernels.h"
#undef PARSDD_ISA_TARGET
}  // namespace avx512_isa

bool avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

bool avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
}

const Backend& avx2_backend() {
  static const Backend be = avx2_isa::table("avx2", SimdLevel::kAvx2);
  return be;
}

const Backend& avx512_backend() {
  static const Backend be = avx512_isa::table("avx512", SimdLevel::kAvx512);
  return be;
}

#else  // non-x86: the baseline copy is the only implementation.

bool avx2_supported() { return false; }
bool avx512_supported() { return false; }
const Backend& avx2_backend() { return scalar_backend(); }
const Backend& avx512_backend() { return scalar_backend(); }

#endif

}  // namespace parsdd::kernels::detail
