// RootedTree: depths, LCA, distances (brute-force cross-check).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/mst.h"
#include "graph/tree.h"
#include "parallel/rng.h"

namespace parsdd {
namespace {

// Brute-force LCA by walking parents.
std::uint32_t lca_brute(const RootedTree& t, std::uint32_t u,
                        std::uint32_t v) {
  while (t.depth(u) > t.depth(v)) u = t.parent(u);
  while (t.depth(v) > t.depth(u)) v = t.parent(v);
  while (u != v) {
    u = t.parent(u);
    v = t.parent(v);
  }
  return u;
}

TEST(RootedTree, PathTree) {
  GeneratedGraph g = path(64);
  RootedTree t = RootedTree::from_edges(g.n, g.edges, 0);
  EXPECT_EQ(t.depth(63), 63u);
  EXPECT_EQ(t.lca(10, 50), 10u);
  EXPECT_DOUBLE_EQ(t.distance(10, 50), 40.0);
  EXPECT_EQ(t.hop_distance(3, 7), 4u);
}

TEST(RootedTree, StarTree) {
  GeneratedGraph g = star(20);
  RootedTree t = RootedTree::from_edges(g.n, g.edges, 0);
  EXPECT_EQ(t.lca(3, 7), 0u);
  EXPECT_DOUBLE_EQ(t.distance(3, 7), 2.0);
  EXPECT_EQ(t.lca(0, 9), 0u);
  EXPECT_DOUBLE_EQ(t.distance(0, 9), 1.0);
}

TEST(RootedTree, RootedAwayFromZero) {
  GeneratedGraph g = path(10);
  RootedTree t = RootedTree::from_edges(g.n, g.edges, 9);
  EXPECT_EQ(t.root(), 9u);
  EXPECT_EQ(t.depth(0), 9u);
  EXPECT_EQ(t.lca(0, 5), 5u);
}

TEST(RootedTree, WeightedDistances) {
  EdgeList e = {{0, 1, 2.5}, {1, 2, 4.0}, {1, 3, 1.0}};
  RootedTree t = RootedTree::from_edges(4, e, 0);
  EXPECT_DOUBLE_EQ(t.weighted_depth(2), 6.5);
  EXPECT_DOUBLE_EQ(t.distance(2, 3), 5.0);
  EXPECT_DOUBLE_EQ(t.distance(0, 3), 3.5);
}

TEST(RootedTree, ThrowsOnWrongEdgeCount) {
  EdgeList e = {{0, 1, 1.0}};
  EXPECT_THROW(RootedTree::from_edges(3, e, 0), std::invalid_argument);
}

TEST(RootedTree, ThrowsOnDisconnected) {
  EdgeList e = {{0, 1, 1.0}, {0, 1, 1.0}};  // parallel pair, vertex 2 isolated
  EXPECT_THROW(RootedTree::from_edges(3, e, 0), std::invalid_argument);
}

class RandomTreeLca : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeLca, MatchesBruteForce) {
  std::uint64_t seed = GetParam();
  // Random spanning tree via MST of a random graph with random weights.
  GeneratedGraph g = erdos_renyi(200, 800, seed);
  randomize_weights_log_uniform(g.edges, 10.0, seed);
  auto idx = mst_kruskal(g.n, g.edges);
  EdgeList tree;
  for (auto i : idx) tree.push_back(g.edges[i]);
  RootedTree t = RootedTree::from_edges(g.n, tree, 0);
  Rng rng(seed + 100);
  for (std::uint64_t q = 0; q < 200; ++q) {
    std::uint32_t u = static_cast<std::uint32_t>(rng.below(2 * q, g.n));
    std::uint32_t v = static_cast<std::uint32_t>(rng.below(2 * q + 1, g.n));
    EXPECT_EQ(t.lca(u, v), lca_brute(t, u, v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeLca, ::testing::Values(1u, 2u, 3u, 4u));

// The rooting RootedTree::from_edges must reproduce: BFS over the general
// graph, weighted depths accumulated down the BFS tree's parent edges.
struct ReferenceRooting {
  std::vector<std::uint32_t> parent, depth;
  std::vector<double> wdepth;
};

ReferenceRooting reference_rooting(std::uint32_t n, const EdgeList& edges,
                                   std::uint32_t root) {
  BfsResult b = bfs(Graph::from_edges(n, edges), root);
  ReferenceRooting r{b.parent, b.dist, std::vector<double>(n, 0.0)};
  std::vector<std::uint32_t> by_depth(n);
  std::iota(by_depth.begin(), by_depth.end(), 0u);
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [&](std::uint32_t a, std::uint32_t c) {
                     return r.depth[a] < r.depth[c];
                   });
  for (std::uint32_t v : by_depth) {
    if (v != root) r.wdepth[v] = r.wdepth[r.parent[v]] + edges[b.parent_eid[v]].w;
  }
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_matches_reference(std::uint32_t n, const EdgeList& edges,
                              std::uint32_t root, std::uint64_t seed) {
  RootedTree t = RootedTree::from_edges(n, edges, root);
  ReferenceRooting r = reference_rooting(n, edges, root);
  for (std::uint32_t v = 0; v < n; ++v) {
    ASSERT_EQ(t.parent(v), r.parent[v]) << "vertex " << v;
    ASSERT_EQ(t.depth(v), r.depth[v]) << "vertex " << v;
    ASSERT_TRUE(same_bits(t.weighted_depth(v), r.wdepth[v])) << "vertex " << v;
  }
  Rng rng(seed);
  for (std::uint64_t q = 0; q < 500; ++q) {
    auto u = static_cast<std::uint32_t>(rng.below(2 * q, n));
    auto v = static_cast<std::uint32_t>(rng.below(2 * q + 1, n));
    std::uint32_t a = lca_brute(t, u, v);
    double d = r.wdepth[u] + r.wdepth[v] - 2.0 * r.wdepth[a];
    ASSERT_TRUE(same_bits(t.distance(u, v), d)) << u << "-" << v;
  }
}

// A random tree on n vertices: vertex v > 0 hangs off a random earlier
// vertex; edges are shuffled and randomly oriented, weights log-uniform.
EdgeList random_tree(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  EdgeList e;
  for (std::uint32_t v = 1; v < n; ++v) {
    auto p = static_cast<std::uint32_t>(rng.below(4 * v, v));
    double w = std::exp(4.0 * rng.uniform(4 * v + 1));
    if (rng.below(4 * v + 2, 2)) {
      e.push_back({v, p, w});
    } else {
      e.push_back({p, v, w});
    }
  }
  for (std::size_t i = e.size(); i > 1; --i) {
    std::swap(e[i - 1], e[rng.below(4 * n + i, i)]);
  }
  return e;
}

TEST(RootedTree, MatchesGraphBfsRootingOnRandomTrees) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    // Large enough for several canonical blocks and wide frontiers.
    EdgeList e = random_tree(6000, seed);
    expect_matches_reference(6000, e, 0, seed);
    expect_matches_reference(6000, e, 4321, seed + 10);
  }
}

TEST(RootedTree, MatchesGraphBfsRootingOnPathAndStar) {
  GeneratedGraph p = path(5000);
  randomize_weights_log_uniform(p.edges, 10.0, 5);
  expect_matches_reference(p.n, p.edges, 0, 5);
  expect_matches_reference(p.n, p.edges, 2500, 6);
  GeneratedGraph s = star(5000);
  randomize_weights_log_uniform(s.edges, 10.0, 7);
  expect_matches_reference(s.n, s.edges, 0, 7);
  expect_matches_reference(s.n, s.edges, 17, 8);
}

TEST(RootedTree, ThrowsOnShortEdgeList) {
  EdgeList e = random_tree(100, 9);
  e.pop_back();
  EXPECT_THROW(RootedTree::from_edges(100, e, 0), std::invalid_argument);
}

TEST(RootedTree, ThrowsOnDisconnectedEdgeList) {
  // n-1 edges that miss a vertex must repeat one: here the pair {0, 1}.
  EdgeList e = {{0, 1, 1.0}, {1, 2, 1.0}, {1, 0, 2.0}};
  EXPECT_THROW(RootedTree::from_edges(4, e, 0), std::invalid_argument);
  EXPECT_THROW(RootedTree::from_edges(4, e, 3), std::invalid_argument);
}

TEST(RootedTree, ThrowsOnCycle) {
  // A triangle plus an edge elsewhere: n-1 edges, one cycle, rooted on
  // either side of the cut.
  EdgeList small = {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}, {3, 4, 1.0}};
  EXPECT_THROW(RootedTree::from_edges(5, small, 0), std::invalid_argument);
  EXPECT_THROW(RootedTree::from_edges(5, small, 3), std::invalid_argument);
  // A long path closed into a cycle, with wide frontiers meeting on it:
  // a star whose leaves are chained, leaving the last vertex out.
  constexpr std::uint32_t kN = 6000;
  EdgeList big;
  for (std::uint32_t v = 1; v < kN / 2; ++v) big.push_back({0, v, 1.0});
  for (std::uint32_t v = 1; big.size() < kN - 1; ++v) {
    big.push_back({v, v + 1, 1.0});
  }
  EXPECT_THROW(RootedTree::from_edges(kN, big, 0), std::invalid_argument);
  // A self-loop in place of a tree edge.
  EdgeList loop = random_tree(50, 11);
  loop[7] = {loop[7].u, loop[7].u, 1.0};
  EXPECT_THROW(RootedTree::from_edges(50, loop, 0), std::invalid_argument);
}

TEST(RootedTree, ThrowsOnOutOfRangeInput) {
  EdgeList e = {{0, 1, 1.0}, {1, 7, 1.0}};
  EXPECT_THROW(RootedTree::from_edges(3, e, 0), std::invalid_argument);
  EdgeList ok = {{0, 1, 1.0}, {1, 2, 1.0}};
  EXPECT_THROW(RootedTree::from_edges(3, ok, 3), std::invalid_argument);
}

}  // namespace
}  // namespace parsdd
