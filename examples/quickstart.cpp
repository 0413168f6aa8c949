// Quickstart: build a graph Laplacian, solve a system, check the residual.
//
//   $ ./quickstart
//
// Walks through the minimal public API: generate a graph, construct
// SddSolver, solve L x = b, and inspect the solver chain report.
#include <cstdio>

#include "graph/generators.h"
#include "kernels/kernels.h"
#include "linalg/laplacian.h"
#include "solver/sdd_solver.h"

int main() {
  using namespace parsdd;

  // A 100x100 grid — the classic SDD source (2D Poisson stencil).
  GeneratedGraph g = grid2d(100, 100);
  std::printf("graph: n=%u m=%zu (2D grid)\n", g.n, g.edges.size());

  // Build the solver: preconditioner chain + flexible PCG.
  SddSolverOptions opts;
  opts.tolerance = 1e-8;
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges, opts);

  // A consistent right-hand side (mean zero).
  Vec b = random_unit_like(g.n, /*seed=*/1);

  SddSolveReport report;
  Vec x = solver.solve(b, &report).value();

  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  double rel = kernels::norm2(kernels::subtract(lap.apply(x), b)) / kernels::norm2(b);
  std::printf("solved: iterations=%u (lead-in %u) levels=%u chain_edges=%zu\n",
              report.stats.iterations, report.lead_in_iterations,
              report.chain_levels, report.chain_edges);
  std::printf("relative residual: %.3e (converged=%s)\n", rel,
              report.stats.converged ? "yes" : "no");
  return rel < 1e-6 ? 0 : 1;
}
