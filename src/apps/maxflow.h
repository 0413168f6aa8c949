// Approximate undirected maximum flow via electrical flows [CKM+10].
//
// Section 1: "Our algorithm can also be applied in the inner loop of
// [CKM+10], yielding a O~(m^{5/6+θ} poly(ε⁻¹)) depth and O~(m^{4/3}
// poly(ε⁻¹)) work algorithm for finding 1-ε approximate maximum flows."
// The inner loop is multiplicative weights over edge resistances: each
// iteration solves one Laplacian system to route an electrical s-t flow,
// penalizes congested edges, and averages the flows.  An Edmonds–Karp exact
// solver is included as the test/bench oracle.
#pragma once

#include <cstdint>

#include "graph/edge_list.h"
#include "solver/sdd_solver.h"

namespace parsdd {

struct MaxflowOptions {
  double epsilon = 0.2;          // approximation target
  std::uint32_t max_iterations = 200;
  std::uint64_t seed = 3;
  SddSolverOptions solver;       // inner Laplacian solver configuration
};

struct MaxflowResult {
  /// Feasible flow value achieved (>= (1-eps') * optimum when converged).
  double flow_value = 0.0;
  /// Signed flow per edge (positive = u->v), scaled feasible.
  std::vector<double> flow;
  std::uint32_t iterations = 0;
  std::uint32_t laplacian_solves = 0;
};

/// Approximate max flow from s to t on the undirected capacitated graph
/// (capacities = edge weights).  Requires s and t connected.
/// InvalidArgument when s == t or either terminal is out of range.
StatusOr<MaxflowResult> approx_max_flow(std::uint32_t n,
                                        const EdgeList& capacities,
                                        std::uint32_t s, std::uint32_t t,
                                        const MaxflowOptions& opts = {});

/// Exact max flow (Edmonds–Karp on the undirected graph); oracle for
/// tests.  O(V·E²) — small graphs only.
double exact_max_flow(std::uint32_t n, const EdgeList& capacities,
                      std::uint32_t s, std::uint32_t t);

}  // namespace parsdd
