// Algorithm 5.1: AKPW low-stretch spanning tree via repeated
// partition-and-contract (Theorem 5.1).
//
// Edges are bucketed geometrically by weight (E_i = {e : w(e) ∈ [z^{i-1},
// z^i)} after normalizing the minimum weight to 1).  Iteration j runs
// Partition on the current contracted multigraph with hop-radius z/4 over
// the active weight classes, adds a BFS tree of every component to T, and
// contracts the components (keeping parallel edges).  The paper's parameter
// choices (y = 2^sqrt(6 log n log log n), z = 4 c₁ y τ log³ n) optimize the
// asymptotic stretch but are astronomically large at practical n — with them
// the very first partition would swallow any laptop-scale graph whole.  The
// implementation therefore exposes (y, z) with practical defaults and a
// theory() constructor producing the paper's values; the measured stretch
// under the practical settings is checked by AkpwFamily tests (E3) and
// reported by perfbench as lsst.akpw.avg_stretch.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "partition/split_graph.h"

namespace parsdd {

struct AkpwOptions {
  std::uint64_t seed = 1;
  /// Target per-iteration decay of each weight class; 0 = auto (practical).
  double y = 0.0;
  /// Weight-bucket base; partition radius is z/4; 0 = auto (practical).
  double z = 0.0;
  /// Center-sampling multiplier forwarded to splitGraph.
  double center_constant = 2.0;
  /// If true, use the paper's theoretical y and z (only sensible for tiny n
  /// or for demonstrating the parameter collapse).
  bool theory_parameters = false;
};

struct AkpwResult {
  /// Indices into the input edge list forming a spanning tree (connected
  /// input) or spanning forest.
  std::vector<std::uint32_t> tree_edges;
  /// Outer iterations executed (Theorem 5.1: O(log Δ + τ)).
  std::uint32_t iterations = 0;
  /// Number of weight classes (⌈log_z Δ⌉).
  std::uint32_t num_classes = 0;
  /// Resolved parameter values actually used.
  double y = 0.0;
  double z = 0.0;
};

/// Computes the AKPW low-stretch spanning tree/forest of (V=[0,n), edges).
AkpwResult akpw_tree(std::uint32_t n, const EdgeList& edges,
                     const AkpwOptions& opts = {});

/// Buckets edges into weight classes E_i = [z^{i-1}, z^i) after normalizing
/// min weight to 1; returns 0-based class per edge and sets num_classes.
std::vector<std::uint32_t> weight_classes(const EdgeList& edges, double z,
                                          std::uint32_t* num_classes);

/// The paper's theoretical (y, z) for a given n (Algorithm 5.1 step ii).
void akpw_theory_parameters(std::uint32_t n, double* y, double* z);

/// Practical defaults: y small constant, z proportional to y log n.
void akpw_practical_parameters(std::uint32_t n, double* y, double* z);

/// Multi-source BFS from every component center, restricted to stay inside
/// its component (Algorithm 5.1 step 2, "Add a BFS tree of each component").
/// Returns each vertex's parent arc as an index into the edge list `g` was
/// built from, or UINT32_MAX for component centers.  Throws if some
/// component is not internally connected.
std::vector<std::uint32_t> component_bfs_parents(const Graph& g,
                                                 const Decomposition& d);

}  // namespace parsdd
