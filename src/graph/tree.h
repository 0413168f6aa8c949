// Rooted spanning trees: depths, LCA (binary lifting), path distances.
//
// Used to evaluate the stretch guarantees of Theorems 5.1/5.9: the stretch of
// edge {u,v} with respect to tree T is d_T(u,v)/w(u,v), and d_T is computed
// as wdepth(u) + wdepth(v) - 2*wdepth(lca(u,v)).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph.h"

namespace parsdd {

class RootedTree {
 public:
  /// Builds a rooted tree over vertices [0, n) from exactly n-1 tree edges
  /// (must form a spanning tree); roots it at `root`.  The edges are
  /// counting-sorted into a tree adjacency and expanded level by level from
  /// the root (on the pool when frontiers are large); each vertex gets its
  /// parent, depth and weighted depth when it is reached.  A tree has one
  /// path from each vertex to the root, so the result does not depend on
  /// visit order or pool size.  Throws std::invalid_argument for a wrong
  /// edge count, a root or endpoint out of range, and edges that do not
  /// span [0, n) (n-1 edges with a cycle never do).  Work O(n log n), for
  /// the lifting table.
  static RootedTree from_edges(std::uint32_t n, const EdgeList& tree_edges,
                               std::uint32_t root = 0);

  std::uint32_t num_vertices() const { return n_; }
  std::uint32_t root() const { return root_; }

  std::uint32_t parent(std::uint32_t v) const { return parent_[v]; }
  /// Hop depth below the root.
  std::uint32_t depth(std::uint32_t v) const { return depth_[v]; }
  /// Weighted distance from the root.
  double weighted_depth(std::uint32_t v) const { return wdepth_[v]; }

  /// Lowest common ancestor in O(log n).
  std::uint32_t lca(std::uint32_t u, std::uint32_t v) const;

  /// Weighted tree-path distance between u and v.
  double distance(std::uint32_t u, std::uint32_t v) const;

  /// Hop-count tree-path distance between u and v.
  std::uint32_t hop_distance(std::uint32_t u, std::uint32_t v) const;

  /// Snapshot encoding (util/serialize.h): parents, depths, and the binary
  /// lifting table verbatim, so a loaded tree answers lca/distance queries
  /// bitwise-identically without re-rooting.
  void save(serialize::Writer& w) const;
  static RootedTree load(serialize::Reader& r);

 private:
  std::uint32_t n_ = 0;
  std::uint32_t root_ = 0;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> depth_;
  std::vector<double> wdepth_;
  // up_[k][v]: 2^k-th ancestor of v (root maps to itself).
  std::vector<std::vector<std::uint32_t>> up_;
};

}  // namespace parsdd
