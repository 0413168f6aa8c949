// AKPW trees, SparseAKPW subgraphs, well-spacing, LSSubgraph (Section 5).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/stretch.h"
#include "graph/tree.h"
#include "graph/union_find.h"
#include "lsst/akpw.h"
#include "lsst/ls_subgraph.h"
#include "lsst/sparse_akpw.h"
#include "lsst/well_spaced.h"

namespace parsdd {
namespace {

// Verifies the chosen indices form a spanning tree of the connected graph.
void check_spanning_tree(std::uint32_t n, const EdgeList& edges,
                         const std::vector<std::uint32_t>& chosen) {
  ASSERT_EQ(chosen.size(), n - 1u);
  UnionFind uf(n);
  std::set<std::uint32_t> seen;
  for (std::uint32_t idx : chosen) {
    ASSERT_LT(idx, edges.size());
    EXPECT_TRUE(seen.insert(idx).second) << "duplicate tree edge";
    EXPECT_TRUE(uf.unite(edges[idx].u, edges[idx].v)) << "cycle";
  }
  EXPECT_EQ(uf.num_sets(), 1u);
}

TEST(WeightClasses, BucketsByGeometricRanges) {
  EdgeList e = {{0, 1, 1.0}, {0, 1, 3.9}, {0, 1, 4.0}, {0, 1, 17.0}};
  std::uint32_t k = 0;
  auto cls = weight_classes(e, 4.0, &k);
  EXPECT_EQ(cls[0], 0u);
  EXPECT_EQ(cls[1], 0u);
  EXPECT_EQ(cls[2], 1u);
  EXPECT_EQ(cls[3], 2u);
  EXPECT_EQ(k, 3u);
}

TEST(WeightClasses, NormalizesMinimumWeight) {
  EdgeList e = {{0, 1, 10.0}, {0, 1, 39.0}, {0, 1, 45.0}};
  std::uint32_t k = 0;
  auto cls = weight_classes(e, 4.0, &k);
  EXPECT_EQ(cls[0], 0u);
  EXPECT_EQ(cls[1], 0u);
  EXPECT_EQ(cls[2], 1u);
}

// An edge length that overflowed to +inf (1/w of a subnormal conductance)
// gets the top finite class: at or above every finite length's class and
// bounded by log_z of the largest double.
TEST(WeightClasses, InfiniteLengthGetsFiniteBoundedClass) {
  const double inf = std::numeric_limits<double>::infinity();
  EdgeList e = {{0, 1, 1.0}, {0, 1, inf}, {0, 1, 16.0}, {0, 1, 1e300}};
  std::uint32_t k = 0;
  auto cls = weight_classes(e, 4.0, &k);
  const double bound =
      std::log(std::numeric_limits<double>::max()) / std::log(4.0);
  EXPECT_EQ(cls[0], 0u);
  EXPECT_EQ(cls[2], 2u);
  EXPECT_GE(cls[1], cls[3]);
  EXPECT_LE(cls[1], bound);
  EXPECT_EQ(k, cls[1] + 1);
}

TEST(WeightClasses, RejectsNonPositive) {
  EdgeList e = {{0, 1, 0.0}};
  EXPECT_THROW(weight_classes(e, 4.0, nullptr), std::invalid_argument);
}

TEST(AkpwParameters, TheoryValuesMatchFormulas) {
  double y = 0, z = 0;
  akpw_theory_parameters(1 << 16, &y, &z);
  EXPECT_GT(y, 100.0);  // 2^sqrt(6*16*4) = 2^19.6
  EXPECT_GT(z, y);
  akpw_practical_parameters(1 << 16, &y, &z);
  EXPECT_DOUBLE_EQ(y, 4.0);
  EXPECT_GT(z, 16.0);
}

class AkpwFamily
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

GeneratedGraph akpw_case(int family, std::uint64_t seed) {
  GeneratedGraph g;
  switch (family) {
    case 0:
      g = grid2d(16, 16);
      break;
    case 1:
      g = erdos_renyi(250, 800, seed);
      break;
    case 2:
      g = preferential_attachment(250, 3, seed);
      randomize_weights_log_uniform(g.edges, 1000.0, seed);
      break;
    default:
      g = grid2d(16, 16);
      randomize_weights_two_level(g.edges, 100.0, seed);
      break;
  }
  return g;
}

TEST_P(AkpwFamily, ProducesSpanningTree) {
  auto [family, seed] = GetParam();
  GeneratedGraph g = akpw_case(family, seed);
  AkpwOptions opts;
  opts.seed = seed;
  AkpwResult r = akpw_tree(g.n, g.edges, opts);
  check_spanning_tree(g.n, g.edges, r.tree_edges);
  EXPECT_GE(r.iterations, 1u);
}

TEST_P(AkpwFamily, StretchIsFiniteAndModest) {
  auto [family, seed] = GetParam();
  GeneratedGraph g = akpw_case(family, seed);
  AkpwOptions opts;
  opts.seed = seed;
  AkpwResult r = akpw_tree(g.n, g.edges, opts);
  EdgeList tree;
  for (auto i : r.tree_edges) tree.push_back(g.edges[i]);
  RootedTree t = RootedTree::from_edges(g.n, tree, 0);
  StretchStats s = stretch_wrt_tree(g.edges, t);
  EXPECT_GE(s.average(), 1.0 - 1e-9);
  // Loose sanity ceiling: average stretch far below worst-case O(n).
  EXPECT_LT(s.average(), 250.0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, AkpwFamily,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 2u)));

TEST(Akpw, DeterministicForFixedSeed) {
  GeneratedGraph g = erdos_renyi(150, 450, 3);
  AkpwOptions opts;
  opts.seed = 5;
  AkpwResult a = akpw_tree(g.n, g.edges, opts);
  AkpwResult b = akpw_tree(g.n, g.edges, opts);
  EXPECT_EQ(a.tree_edges, b.tree_edges);
}

TEST(Akpw, EmptyAndTinyInputs) {
  AkpwResult r = akpw_tree(0, {});
  EXPECT_TRUE(r.tree_edges.empty());
  EdgeList one = {{0, 1, 1.0}};
  AkpwResult r1 = akpw_tree(2, one);
  ASSERT_EQ(r1.tree_edges.size(), 1u);
}

TEST(Akpw, MultipleWeightClassesIterations) {
  GeneratedGraph g = grid2d(12, 12);
  randomize_weights_log_uniform(g.edges, 1e6, 3);  // large spread Delta
  AkpwResult r = akpw_tree(g.n, g.edges);
  check_spanning_tree(g.n, g.edges, r.tree_edges);
  EXPECT_GT(r.num_classes, 1u);  // spread forces several buckets
}

TEST(SparseAkpw, SubgraphSpansWithDisjointParts) {
  GeneratedGraph g = grid2d(16, 16);
  SparseAkpwOptions opts;
  opts.lambda = 2;
  SparseAkpwResult r = sparse_akpw(g.n, g.edges, opts);
  // The tree part alone may omit BFS parents that were already promoted,
  // but the union must span and the parts must be disjoint.
  std::set<std::uint32_t> tree_set(r.tree_edges.begin(), r.tree_edges.end());
  for (std::uint32_t idx : r.extra_edges) {
    EXPECT_EQ(tree_set.count(idx), 0u);
  }
  EdgeList sub;
  for (std::uint32_t idx : r.all_edges()) sub.push_back(g.edges[idx]);
  EXPECT_TRUE(is_connected(g.n, sub));
  EXPECT_GE(sub.size(), static_cast<std::size_t>(g.n) - 1);
  // The tree part is acyclic.
  UnionFind uf(g.n);
  for (std::uint32_t idx : r.tree_edges) {
    EXPECT_TRUE(uf.unite(g.edges[idx].u, g.edges[idx].v));
  }
}

TEST(SparseAkpw, LargerLambdaGivesFewerExtras) {
  GeneratedGraph g = grid2d(20, 20);
  SparseAkpwOptions o1, o3;
  o1.lambda = 1;
  o3.lambda = 3;
  auto r1 = sparse_akpw(g.n, g.edges, o1);
  auto r3 = sparse_akpw(g.n, g.edges, o3);
  EXPECT_GE(r1.extra_edges.size(), r3.extra_edges.size());
}

TEST(WellSpaced, RemovesAtMostThetaFraction) {
  // 20 classes with 10 edges each.
  std::vector<std::uint32_t> cls;
  for (std::uint32_t c = 0; c < 20; ++c) {
    for (int i = 0; i < 10; ++i) cls.push_back(c);
  }
  WellSpacedResult r = well_space(cls, 20, 2, 0.25);
  EXPECT_LE(r.removed_edges.size(),
            static_cast<std::size_t>(0.25 * cls.size() + 1e-9));
  // Removed classes come in consecutive tau-windows.
  std::set<std::uint32_t> removed_cls;
  for (auto i : r.removed_edges) removed_cls.insert(cls[i]);
  for (std::uint32_t c : removed_cls) {
    bool pair_ok = removed_cls.count(c + 1) || removed_cls.count(c - 1);
    EXPECT_TRUE(pair_ok);
  }
}

TEST(WellSpaced, PrefersLightWindows) {
  // Classes 0..5; class 2 and 3 empty -> the empty window must be chosen.
  std::vector<std::uint32_t> cls = {0, 0, 1, 1, 4, 4, 5, 5};
  WellSpacedResult r = well_space(cls, 6, 2, 0.4);
  EXPECT_TRUE(r.removed_edges.empty());
}

TEST(WellSpaced, SpecialClassesFollowEmptiedWindows) {
  std::vector<std::uint32_t> cls;
  for (std::uint32_t c = 0; c < 12; ++c) cls.push_back(c);
  WellSpacedResult r = well_space(cls, 12, 2, 0.5);
  for (std::uint32_t s : r.special_classes) {
    ASSERT_GE(s, 2u);
    // The tau classes before s were emptied.
    std::set<std::uint32_t> removed;
    for (auto i : r.removed_edges) removed.insert(cls[i]);
    EXPECT_TRUE(removed.count(s - 1));
    EXPECT_TRUE(removed.count(s - 2));
  }
}

TEST(WellSpaced, RejectsBadParameters) {
  std::vector<std::uint32_t> cls = {0};
  EXPECT_THROW(well_space(cls, 1, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(well_space(cls, 1, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(well_space(cls, 1, 1, 1.5), std::invalid_argument);
}

class LsSubgraphFamily
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(LsSubgraphFamily, SubgraphSpansAndBoundsEdges) {
  auto [family, lambda] = GetParam();
  GeneratedGraph g;
  switch (family) {
    case 0:
      g = grid2d(16, 16);
      break;
    case 1:
      g = erdos_renyi(250, 900, 4);
      break;
    default:
      g = grid2d(14, 14);
      randomize_weights_log_uniform(g.edges, 1e5, 7);
      break;
  }
  LsSubgraphOptions opts;
  opts.lambda = lambda;
  LsSubgraphResult r = ls_subgraph(g.n, g.edges, opts);
  // Spanning: the subgraph connects the (connected) input.
  EdgeList sub;
  std::set<std::uint32_t> uniq;
  for (auto i : r.subgraph_edges) {
    ASSERT_LT(i, g.edges.size());
    EXPECT_TRUE(uniq.insert(i).second) << "duplicate subgraph edge";
    sub.push_back(g.edges[i]);
  }
  EXPECT_TRUE(is_connected(g.n, sub));
  EXPECT_LT(sub.size(), g.edges.size() + 1);
  EXPECT_GE(sub.size(), static_cast<std::size_t>(g.n) - 1);
  // Stretch of every input edge w.r.t. the subgraph is finite, >= ~1.
  StretchStats s = stretch_wrt_subgraph(g.n, sub, g.edges);
  EXPECT_GE(s.average(), 0.99);
  EXPECT_LT(s.average(), 200.0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, LsSubgraphFamily,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 3u)));

TEST(LsSubgraph, WellSpacingRemovedEdgesAreInOutput) {
  GeneratedGraph g = grid2d(12, 12);
  randomize_weights_log_uniform(g.edges, 1e8, 2);  // many weight classes
  LsSubgraphOptions opts;
  opts.theta = 0.2;
  LsSubgraphResult r = ls_subgraph(g.n, g.edges, opts);
  EXPECT_EQ(r.subgraph_edges.size(),
            r.tree_count + r.extra_count + r.removed_count);
}

class SegmentedMode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentedMode, Lemma58SegmentedRunSpans) {
  std::uint64_t seed = GetParam();
  GeneratedGraph g = grid2d(14, 14);
  randomize_weights_log_uniform(g.edges, 1e9, seed);  // many classes
  LsSubgraphOptions opts;
  opts.seed = seed;
  opts.theta = 0.2;
  opts.segmented = true;
  LsSubgraphResult r = ls_subgraph(g.n, g.edges, opts);
  std::set<std::uint32_t> uniq;
  EdgeList sub;
  for (auto i : r.subgraph_edges) {
    ASSERT_LT(i, g.edges.size());
    EXPECT_TRUE(uniq.insert(i).second);
    sub.push_back(g.edges[i]);
  }
  EXPECT_TRUE(is_connected(g.n, sub));
  StretchStats s = stretch_wrt_subgraph(g.n, sub, g.edges);
  EXPECT_GE(s.average(), 0.99);
  // Segmented and sequential runs both produce valid subgraphs of similar
  // size (they need not be identical).
  opts.segmented = false;
  LsSubgraphResult seq = ls_subgraph(g.n, g.edges, opts);
  EXPECT_LT(r.subgraph_edges.size(), 2 * seq.subgraph_edges.size() + 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentedMode, ::testing::Values(1u, 2u, 3u));

TEST(LsSubgraph, AblationWithoutWellSpacing) {
  GeneratedGraph g = grid2d(12, 12);
  randomize_weights_log_uniform(g.edges, 1e8, 2);
  LsSubgraphOptions opts;
  opts.apply_well_spacing = false;
  LsSubgraphResult r = ls_subgraph(g.n, g.edges, opts);
  EXPECT_EQ(r.removed_count, 0u);
  EdgeList sub;
  for (auto i : r.subgraph_edges) sub.push_back(g.edges[i]);
  EXPECT_TRUE(is_connected(g.n, sub));
}

}  // namespace
}  // namespace parsdd
