// Stretch computation with respect to trees and subgraphs.
//
// Section 2: "For an edge e = {u,v}, the stretch of e on G' is
// str_{G'}(e) = d_{G'}(u,v)/w(e)"; the total stretch sums over E(G).
// Every weight here, of `edges` and of the tree, is a *length*.  For a
// Laplacian pass resistances 1/w, giving the spectral stretch
// w_e · Σ_path 1/w_f.
// Tree stretch uses LCA distances (exact, O((n+m) log n)); subgraph stretch
// runs a truncated Dijkstra per distinct endpoint (exact, intended for the
// moderate sizes used by tests).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/tree.h"

namespace parsdd {

struct StretchStats {
  std::vector<double> per_edge;
  double total = 0.0;
  double max = 0.0;
  double average() const {
    return per_edge.empty() ? 0.0 : total / static_cast<double>(per_edge.size());
  }
};

/// Stretch of every edge of `edges` with respect to spanning tree `tree`.
StretchStats stretch_wrt_tree(const EdgeList& edges, const RootedTree& tree);

/// Stretch of every edge of `edges` with respect to the subgraph
/// (V=[0,n), sub_edges).  Exact shortest paths (Dijkstra); the subgraph must
/// connect the endpoints of every query edge.
StretchStats stretch_wrt_subgraph(std::uint32_t n, const EdgeList& sub_edges,
                                  const EdgeList& edges);

}  // namespace parsdd
