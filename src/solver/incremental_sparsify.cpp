#include "solver/incremental_sparsify.h"

#include <cmath>
#include <stdexcept>

#include "graph/mst.h"
#include "graph/tree.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"

namespace parsdd {

SparsifyTree max_conductance_tree(std::uint32_t n, const EdgeList& edges) {
  // A Laplacian edge's length is its resistance 1/w, so every str(e) below
  // is w_e · Σ_path 1/w_f, the spectral stretch.
  EdgeList lengths = tabulate<Edge>(edges.size(), [&](std::size_t i) {
    return Edge{edges[i].u, edges[i].v, 1.0 / edges[i].w};
  });
  std::vector<std::uint32_t> tree_idx = mst_kruskal(n, lengths);
  if (tree_idx.size() + 1 != n) {
    throw std::invalid_argument("incremental_sparsify: graph not connected");
  }
  SparsifyTree tree;
  tree.in_tree.assign(edges.size(), 0);
  EdgeList tree_edges;
  tree_edges.reserve(tree_idx.size());
  for (std::uint32_t idx : tree_idx) {
    tree.in_tree[idx] = 1;
    tree_edges.push_back(lengths[idx]);
  }
  tree.stretch =
      stretch_wrt_tree(lengths, RootedTree::from_edges(n, tree_edges, 0));
  return tree;
}

SparsifyResult incremental_sparsify(std::uint32_t n, const EdgeList& edges,
                                    const SparsifyTree& tree,
                                    const SparsifyOptions& opts) {
  if (!(opts.kappa >= 1.0)) {
    throw std::invalid_argument("incremental_sparsify: kappa must be >= 1");
  }
  SparsifyResult result;
  result.total_stretch = tree.stretch.total;

  // Keep Ĝ outright; sample the rest proportionally to stretch.
  const double ln_n = std::log(std::max<double>(n, 2.0));
  Rng rng(Rng(opts.seed).u64(0xabcdef));
  std::vector<std::uint8_t> keep(edges.size(), 0);
  std::vector<double> scaled_w(edges.size(), 0.0);
  parallel_for(0, edges.size(), [&](std::size_t i) {
    if (tree.in_tree[i]) {
      keep[i] = 1;
      scaled_w[i] = edges[i].w * opts.subgraph_scale;
      return;
    }
    double p = std::min(
        1.0, opts.oversample * tree.stretch.per_edge[i] * ln_n / opts.kappa);
    p = std::max(p, opts.p_floor);
    if (rng.uniform(i) < p) {
      keep[i] = 1;
      scaled_w[i] = edges[i].w / p;
    }
  });

  std::vector<std::uint32_t> kept =
      pack_index(edges.size(), [&](std::size_t i) { return keep[i] != 0; });
  result.h_edges = tabulate<Edge>(kept.size(), [&](std::size_t i) {
    std::uint32_t idx = kept[i];
    return Edge{edges[idx].u, edges[idx].v, scaled_w[idx]};
  });
  // Every tree edge is kept.
  result.subgraph_count = std::size_t{n} - 1;
  result.sampled_count = kept.size() - result.subgraph_count;
  return result;
}

SparsifyResult incremental_sparsify(std::uint32_t n, const EdgeList& edges,
                                    const SparsifyOptions& opts) {
  return incremental_sparsify(n, edges, max_conductance_tree(n, edges), opts);
}

}  // namespace parsdd
