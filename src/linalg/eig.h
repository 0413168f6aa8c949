// Extreme generalized eigenvalues of a matrix pencil (A, B) via power
// iteration, restricted to the complement of the all-ones null space.
//
// Used by tests (E6) to certify the spectral sandwich
// G ≼ H ≼ κG of Lemma 6.1: lambda_max(B⁺A) and lambda_min(B⁺A) measured
// directly (with B⁺ supplied as a solve callback).
#pragma once

#include <cstdint>

#include "linalg/iterative.h"

namespace parsdd {

/// Approximates the largest eigenvalue of solve_b ∘ apply_a on mean-zero
/// vectors by power iteration with Rayleigh quotients x'Ax / x'Bx.
/// `apply_b` is needed for the quotient.
double pencil_max_eig(const LinOp& apply_a, const LinOp& apply_b,
                      const LinOp& solve_b, std::size_t n,
                      std::uint32_t iterations = 200,
                      std::uint64_t seed = 12345);

/// Smallest eigenvalue of the pencil = 1 / pencil_max_eig(B, A).
double pencil_min_eig(const LinOp& apply_a, const LinOp& apply_b,
                      const LinOp& solve_a, std::size_t n,
                      std::uint32_t iterations = 200,
                      std::uint64_t seed = 54321);

}  // namespace parsdd
