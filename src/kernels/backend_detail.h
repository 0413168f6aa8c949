// Internal to src/kernels/: the per-ISA backend factories.  backends.cpp
// builds all three tables from the one kernel source in backend_kernels.h;
// kernels.cpp picks one per process.
#pragma once

#include "kernels/kernels.h"

namespace parsdd::kernels::detail {

const Backend& scalar_backend();
/// Only callable when the matching *_supported() is true; on non-x86 builds
/// these return the scalar backend and *_supported() is false.
const Backend& avx2_backend();
const Backend& avx512_backend();
bool avx2_supported();
bool avx512_supported();

}  // namespace parsdd::kernels::detail
