// Command-line SDD/Laplacian solver: the tool a downstream user would run.
//
//   $ ./solve_cli [graph-file] [tolerance] [method] [flags]
//
//   graph-file : plain edge list (`u v w` lines, optional `n m` header) or
//                MatrixMarket .mtx (symmetric coordinate)
//   tolerance  : relative residual target, a finite number > 0 (default
//                1e-8)
//   method     : chain | rpch | cg | jacobi (default chain)
//
// Setup persistence flags (see DESIGN.md, "Snapshot format"):
//   --save-setup=PATH : after building the setup, persist it as a
//                       versioned binary snapshot
//   --load-setup=PATH : skip the build and load the snapshot instead (the
//                       graph is still read to verify the residual)
//
// Every solve runs in fp64 and is bitwise reproducible across pool sizes
// and SIMD backends (DESIGN.md §9).  A snapshot saved with the removed
// fp32-refined mode is refused at load; rebuild it from the graph.
//
// Typical warm-start flow:
//   $ ./solve_cli mesh.txt 1e-8 chain --save-setup=mesh.snap   # build once
//   $ ./solve_cli mesh.txt 1e-8 chain --load-setup=mesh.snap   # restarts
//
// Solves L x = b for a deterministic random b made consistent (mean zero
// on every connected component), printing chain telemetry and the verified
// residual.  With no graph argument, runs a built-in demo grid instead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "kernels/kernels.h"
#include "graph/io.h"
#include "linalg/laplacian.h"
#include "solver/solver_setup.h"

int main(int argc, char** argv) {
  using namespace parsdd;
  std::string save_path, load_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--save-setup=", 0) == 0) {
      save_path = arg.substr(std::strlen("--save-setup="));
    } else if (arg.rfind("--load-setup=", 0) == 0) {
      load_path = arg.substr(std::strlen("--load-setup="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  GeneratedGraph g;
  if (!positional.empty()) {
    try {
      g = load_graph(positional[0].c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    std::printf("no input file; using demo 64x64 grid\n");
    g = grid2d(64, 64);
  }
  double tol = 1e-8;
  if (positional.size() > 1) {
    const char* text = positional[1].c_str();
    char* end = nullptr;
    tol = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(tol) || tol <= 0.0) {
      std::fprintf(stderr,
                   "invalid tolerance '%s' (want a finite number > 0)\n",
                   text);
      return 2;
    }
  }
  SolveMethod method = SolveMethod::kChainPcg;
  if (positional.size() > 2) {
    const std::string& m = positional[2];
    if (m == "rpch") method = SolveMethod::kChainRpch;
    else if (m == "cg") method = SolveMethod::kCg;
    else if (m == "jacobi") method = SolveMethod::kJacobiPcg;
    else if (m != "chain") {
      std::fprintf(stderr, "unknown method '%s'\n", m.c_str());
      return 2;
    }
  }

  SolverSetup setup = [&] {
    if (!load_path.empty()) {
      if (positional.size() > 1) {
        // A snapshot embeds the full option set it was built with; solving
        // with anything else would not be the saved setup anymore.
        std::fprintf(stderr,
                     "note: --load-setup uses the tolerance/method embedded "
                     "in the snapshot; command-line values are ignored\n");
      }
      StatusOr<SolverSetup> loaded = SolverSetup::Load(load_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "cannot load setup snapshot: %s\n",
                     loaded.status().to_string().c_str());
        std::exit(2);
      }
      std::printf("loaded setup snapshot %s\n", load_path.c_str());
      return std::move(*loaded);
    }
    SddSolverOptions opts;
    opts.tolerance = tol;
    opts.method = method;
    opts.max_iterations = 50000;
    return SolverSetup::for_laplacian(g.n, g.edges, opts);
  }();
  if (setup.dimension() != g.n) {
    std::fprintf(stderr,
                 "snapshot dimension %u does not match graph n=%u\n",
                 setup.dimension(), g.n);
    return 2;
  }
  std::printf("graph: n=%u m=%zu backend=%s\n", g.n, g.edges.size(),
              kernels::backend_name());
  if (!save_path.empty()) {
    Status saved = setup.Save(save_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot save setup snapshot: %s\n",
                   saved.to_string().c_str());
      return 2;
    }
    std::printf("saved setup snapshot to %s\n", save_path.c_str());
  }

  // random_unit_like is mean-zero over the whole graph, which makes the
  // system consistent only for a connected graph; otherwise b is projected
  // to mean zero on every component.
  Vec b = random_unit_like(g.n, 1);
  Components comp = connected_components(g.n, g.edges);
  if (comp.count > 1) {
    std::vector<double> comp_sum(comp.count, 0.0);
    std::vector<double> comp_size(comp.count, 0.0);
    for (std::uint32_t v = 0; v < g.n; ++v) {
      comp_sum[comp.label[v]] += b[v];
      comp_size[comp.label[v]] += 1.0;
    }
    for (std::uint32_t v = 0; v < g.n; ++v) {
      b[v] -= comp_sum[comp.label[v]] / comp_size[comp.label[v]];
    }
  }
  SddSolveReport rep;
  Vec x = setup.solve(b, &rep).value();

  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  double rel = kernels::norm2(kernels::subtract(lap.apply(x), b)) / kernels::norm2(b);
  std::printf(
      "components=%u chain_levels=%u chain_edges=%zu iterations=%u "
      "lead_in=%u\n",
      rep.components, rep.chain_levels, rep.chain_edges,
      rep.stats.iterations, rep.lead_in_iterations);
  std::printf("relative residual %.3e (target %.0e) -> %s\n", rel, tol,
              rel <= 10 * tol ? "OK" : "NOT CONVERGED");
  return rel <= 10 * tol ? 0 : 1;
}
