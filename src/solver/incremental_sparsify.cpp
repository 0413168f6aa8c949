#include "solver/incremental_sparsify.h"

#include <cmath>
#include <stdexcept>

#include "graph/mst.h"
#include "graph/stretch.h"
#include "graph/tree.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"

namespace parsdd {

SparsifyResult incremental_sparsify(std::uint32_t n, const EdgeList& edges,
                                    const SparsifyOptions& opts) {
  if (!(opts.kappa >= 1.0)) {
    throw std::invalid_argument("incremental_sparsify: kappa must be >= 1");
  }
  SparsifyResult result;

  // The LSST code measures paths in lengths; a Laplacian edge's length is
  // its resistance 1/w, so every str(e) below is w_e · Σ_path 1/w_f, the
  // spectral stretch.  The conductances stay in `edges` for H.
  EdgeList lengths = tabulate<Edge>(edges.size(), [&](std::size_t i) {
    return Edge{edges[i].u, edges[i].v, 1.0 / edges[i].w};
  });

  LsSubgraphOptions sub_opts = opts.subgraph;
  sub_opts.seed = opts.seed;
  LsSubgraphResult sub = ls_subgraph(n, lengths, sub_opts);

  std::vector<std::uint8_t> in_subgraph(edges.size(), 0);
  parallel_for(0, sub.subgraph_edges.size(), [&](std::size_t i) {
    in_subgraph[sub.subgraph_edges[i]] = 1;
  });

  // Stretch upper bound via a spanning tree of Ĝ (distances in a subgraph
  // are bounded by distances in any of its spanning trees, so sampling with
  // tree stretch only oversamples — which is safe).
  EdgeList sub_lengths = tabulate<Edge>(
      sub.subgraph_edges.size(),
      [&](std::size_t i) { return lengths[sub.subgraph_edges[i]]; });
  std::vector<std::uint32_t> tree_idx = mst_kruskal(n, sub_lengths);
  if (tree_idx.size() + 1 != n) {
    throw std::invalid_argument("incremental_sparsify: graph not connected");
  }
  EdgeList tree_edges;
  tree_edges.reserve(tree_idx.size());
  for (std::uint32_t idx : tree_idx) tree_edges.push_back(sub_lengths[idx]);
  RootedTree tree = RootedTree::from_edges(n, tree_edges, 0);
  StretchStats st = stretch_wrt_tree(lengths, tree);

  if (opts.include_mst) {
    // The maximum-conductance spanning tree (the MST in resistance lengths)
    // is nearly stretch-1 on high-contrast weights, where AKPW's average
    // bound is loose; compare the measured (tree-proxy) stretches and keep
    // the lower-stretch subgraph.
    std::vector<std::uint32_t> mst_idx = mst_kruskal(n, lengths);
    EdgeList mst_edges;
    mst_edges.reserve(mst_idx.size());
    for (std::uint32_t idx : mst_idx) mst_edges.push_back(lengths[idx]);
    RootedTree mst_tree = RootedTree::from_edges(n, mst_edges, 0);
    StretchStats st_mst = stretch_wrt_tree(lengths, mst_tree);
    if (st_mst.total < st.total) {
      st = std::move(st_mst);
      in_subgraph.assign(edges.size(), 0);
      for (std::uint32_t idx : mst_idx) in_subgraph[idx] = 1;
    }
  }
  result.total_stretch = st.total;

  // Keep Ĝ outright; sample the rest proportionally to stretch.
  const double ln_n = std::log(std::max<double>(n, 2.0));
  Rng rng(Rng(opts.seed).u64(0xabcdef));
  std::vector<std::uint8_t> keep(edges.size(), 0);
  std::vector<double> scaled_w(edges.size(), 0.0);
  parallel_for(0, edges.size(), [&](std::size_t i) {
    if (in_subgraph[i]) {
      keep[i] = 1;
      scaled_w[i] = edges[i].w * opts.subgraph_scale;
      return;
    }
    double p = std::min(
        1.0, opts.oversample * st.per_edge[i] * ln_n / opts.kappa);
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
  result.subgraph_count = parallel_reduce(
      0, kept.size(), std::size_t{0},
      [&](std::size_t i) -> std::size_t { return in_subgraph[kept[i]] ? 1 : 0; },
      [](std::size_t a, std::size_t b) { return a + b; });
  result.sampled_count = kept.size() - result.subgraph_count;
  return result;
}

}  // namespace parsdd
