// MST: Kruskal vs Borůvka equivalence, spanning/forest structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/mst.h"
#include "graph/union_find.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"

namespace parsdd {
namespace {

void check_spanning_forest(std::uint32_t n, const EdgeList& edges,
                           const std::vector<std::uint32_t>& chosen) {
  Components c = connected_components(n, edges);
  EXPECT_EQ(chosen.size(), n - c.count);
  UnionFind uf(n);
  for (std::uint32_t idx : chosen) {
    ASSERT_LT(idx, edges.size());
    EXPECT_TRUE(uf.unite(edges[idx].u, edges[idx].v)) << "cycle in forest";
  }
  EXPECT_EQ(uf.num_sets(), c.count);
}

TEST(Mst, KruskalOnTriangle) {
  EdgeList e = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  auto chosen = mst_kruskal(3, e);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_DOUBLE_EQ(forest_weight(e, chosen), 3.0);
}

TEST(Mst, BoruvkaOnTriangle) {
  EdgeList e = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  auto chosen = mst_boruvka(3, e);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_DOUBLE_EQ(forest_weight(e, chosen), 3.0);
}

TEST(Mst, HandlesDisconnectedForest) {
  EdgeList e = {{0, 1, 1.0}, {2, 3, 2.0}, {3, 4, 1.0}, {2, 4, 5.0}};
  auto k = mst_kruskal(6, e);
  auto b = mst_boruvka(6, e);
  check_spanning_forest(6, e, k);
  check_spanning_forest(6, e, b);
  EXPECT_DOUBLE_EQ(forest_weight(e, k), forest_weight(e, b));
}

TEST(Mst, TieBreakingDeterministic) {
  EdgeList e = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  auto k1 = mst_kruskal(3, e);
  auto k2 = mst_kruskal(3, e);
  EXPECT_EQ(k1, k2);
  auto b1 = mst_boruvka(3, e);
  auto b2 = mst_boruvka(3, e);
  EXPECT_EQ(b1, b2);
}

class MstEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MstEquivalence, KruskalAndBoruvkaAgreeOnWeight) {
  auto [family, seed] = GetParam();
  GeneratedGraph g;
  switch (family) {
    case 0:
      g = erdos_renyi(150, 500, seed);
      break;
    case 1:
      g = grid2d(12, 12);
      break;
    default:
      g = preferential_attachment(150, 2, seed);
      break;
  }
  randomize_weights_log_uniform(g.edges, 50.0, seed + 10);
  auto k = mst_kruskal(g.n, g.edges);
  auto b = mst_boruvka(g.n, g.edges);
  check_spanning_forest(g.n, g.edges, k);
  check_spanning_forest(g.n, g.edges, b);
  // Distinct weights (log-uniform doubles) => unique MST => same edge set
  // (Kruskal emits in weight order, Borůvka in index order).
  EXPECT_NEAR(forest_weight(g.edges, k), forest_weight(g.edges, b), 1e-9);
  std::sort(k.begin(), k.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(k, b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MstEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(11u, 22u, 33u)));

TEST(Mst, ParallelEdgesPickCheapest) {
  EdgeList e = {{0, 1, 5.0}, {0, 1, 1.0}};
  auto k = mst_kruskal(2, e);
  ASSERT_EQ(k.size(), 1u);
  EXPECT_EQ(k[0], 1u);
  auto b = mst_boruvka(2, e);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 1u);
}

// Kruskal over std::stable_sort by `<` on w: ties (including -0.0 against
// +0.0) keep index order.  The order mst_kruskal must reproduce exactly.
std::vector<std::uint32_t> reference_kruskal(std::uint32_t n,
                                             const EdgeList& edges) {
  std::vector<std::uint32_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return edges[a].w < edges[b].w;
                   });
  UnionFind uf(n);
  std::vector<std::uint32_t> chosen;
  for (std::uint32_t idx : order) {
    if (uf.unite(edges[idx].u, edges[idx].v)) chosen.push_back(idx);
  }
  return chosen;
}

// A random multigraph whose weights come from `palette`, so most weights
// tie with many others.
EdgeList palette_graph(std::uint32_t n, std::size_t m,
                       const std::vector<double>& palette,
                       std::uint64_t seed) {
  Rng rng(seed);
  EdgeList e;
  for (std::size_t i = 0; e.size() < m; ++i) {
    auto u = static_cast<std::uint32_t>(rng.below(3 * i, n));
    auto v = static_cast<std::uint32_t>(rng.below(3 * i + 1, n));
    if (u == v) continue;
    e.push_back({u, v, palette[rng.below(3 * i + 2, palette.size())]});
  }
  return e;
}

TEST(Mst, KruskalMatchesStableSortReferenceOnTies) {
  const std::vector<double> palette = {1.0, 2.0, 3.0};
  for (std::uint64_t seed : {1u, 2u}) {
    // m above kSortGrain, so the sort spans several canonical blocks.
    EdgeList e = palette_graph(3000, kSortGrain + 4000, palette, seed);
    EXPECT_EQ(mst_kruskal(3000, e), reference_kruskal(3000, e));
    // Borůvka's rank keys come from the same order, so its forest is the
    // same edge set.
    std::vector<std::uint32_t> k = mst_kruskal(3000, e);
    std::sort(k.begin(), k.end());
    EXPECT_EQ(mst_boruvka(3000, e), k);
  }
}

TEST(Mst, KruskalOrdersSignedZerosInfinitiesAndSubnormals) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> palette = {
      -0.0, 0.0, kInf, -kInf, -1.5, 2.5, 1e300, 1e-310, -1e-310,
      1.0 / 1e-320};  // the length of a subnormal conductance is +inf
  for (std::uint64_t seed : {3u, 4u}) {
    EdgeList small = palette_graph(40, 300, palette, seed);
    EXPECT_EQ(mst_kruskal(40, small), reference_kruskal(40, small));
    EdgeList large = palette_graph(2500, kSortGrain + 1000, palette, seed);
    EXPECT_EQ(mst_kruskal(2500, large), reference_kruskal(2500, large));
  }
}

TEST(Mst, KruskalTreatsNegativeZeroAsZero) {
  // -0.0 == +0.0, so the lower index goes first whichever zero it carries.
  EdgeList e = {{0, 1, 0.0}, {0, 1, -0.0}, {1, 2, -0.0}, {1, 2, 0.0}};
  EXPECT_EQ(mst_kruskal(3, e), (std::vector<std::uint32_t>{0, 2}));
}

TEST(Mst, KruskalPutsNanAfterInfinity) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EdgeList e = {{0, 1, nan}, {1, 2, 1.0}, {0, 2, kInf}, {2, 3, -nan}};
  EXPECT_EQ(mst_kruskal(4, e), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Mst, KruskalOnUnitWeightsIsInputOrderUnionFind) {
  // All keys equal: the order is the identity, with no radix pass at all.
  GeneratedGraph g = erdos_renyi(500, 3000, 7);
  EXPECT_EQ(mst_kruskal(g.n, g.edges), reference_kruskal(g.n, g.edges));
}

}  // namespace
}  // namespace parsdd
