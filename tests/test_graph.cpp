// Unit tests for edge lists, CSR graphs, union-find, and connectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>
#include <vector>

#include "graph/connectivity.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/union_find.h"

namespace parsdd {
namespace {

TEST(EdgeList, MaxVertexPlusOne) {
  EdgeList e = {{0, 5, 1.0}, {2, 3, 1.0}};
  EXPECT_EQ(max_vertex_plus_one(e), 6u);
  EXPECT_EQ(max_vertex_plus_one({}), 0u);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList e = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}, {1, 2, 4.0}};
  EdgeList out = remove_self_loops(e);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].v, 1u);
  EXPECT_EQ(out[1].w, 4.0);
}

TEST(EdgeList, CombineParallelEdgesSumsWeights) {
  EdgeList e = {{1, 0, 1.0}, {0, 1, 2.0}, {2, 1, 5.0}, {0, 0, 9.0}};
  EdgeList out = combine_parallel_edges(e);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].u, 0u);
  EXPECT_EQ(out[0].v, 1u);
  EXPECT_DOUBLE_EQ(out[0].w, 3.0);
  EXPECT_DOUBLE_EQ(out[1].w, 5.0);
}

TEST(EdgeList, TotalWeight) {
  EdgeList e = {{0, 1, 1.5}, {1, 2, 2.5}};
  EXPECT_DOUBLE_EQ(total_weight(e), 4.0);
}

TEST(EdgeList, IsConnected) {
  EXPECT_TRUE(is_connected(3, {{0, 1, 1}, {1, 2, 1}}));
  EXPECT_FALSE(is_connected(4, {{0, 1, 1}, {2, 3, 1}}));
  EXPECT_TRUE(is_connected(1, {}));
  EXPECT_FALSE(is_connected(2, {}));
}

TEST(EdgeList, EnsureConnectedPatchesComponents) {
  EdgeList e = {{0, 1, 1}, {2, 3, 1}, {4, 5, 1}};
  std::size_t added = ensure_connected(6, e, 1);
  EXPECT_EQ(added, 2u);
  EXPECT_TRUE(is_connected(6, e));
  EXPECT_EQ(ensure_connected(6, e, 1), 0u);
}

TEST(UnionFind, BasicOperations) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
}

TEST(UnionFind, DenseLabelsAreDenseAndConsistent) {
  UnionFind uf(6);
  uf.unite(0, 3);
  uf.unite(4, 5);
  auto labels = uf.dense_labels();
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[4], labels[5]);
  std::set<std::uint32_t> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 4u);
  for (std::uint32_t l : distinct) EXPECT_LT(l, 4u);
}

TEST(Graph, CsrDegreesAndSymmetry) {
  EdgeList e = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  Graph g = Graph::from_edges(3, e);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  // Every arc has its reverse.
  for (std::uint32_t u = 0; u < 3; ++u) {
    auto nb = g.neighbors(u);
    for (std::uint32_t v : nb) {
      auto nv = g.neighbors(v);
      EXPECT_NE(std::find(nv.begin(), nv.end(), u), nv.end());
    }
  }
}

TEST(Graph, ParallelEdgesPreserved) {
  EdgeList e = {{0, 1, 1.0}, {0, 1, 2.0}};
  Graph g = Graph::from_edges(2, e);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 3.0);
}

TEST(Graph, EdgeIdsMapBackToInput) {
  EdgeList e = {{0, 1, 1.0}, {1, 2, 2.0}};
  Graph g = Graph::from_edges(3, e);
  ASSERT_TRUE(g.has_edge_ids());
  auto nb = g.neighbors(1);
  auto ids = g.edge_ids(1);
  for (std::size_t k = 0; k < nb.size(); ++k) {
    const Edge& orig = e[ids[k]];
    bool matches = (orig.u == 1 && orig.v == nb[k]) ||
                   (orig.v == 1 && orig.u == nb[k]);
    EXPECT_TRUE(matches);
  }
}

TEST(Graph, ToEdgesRoundTrip) {
  GeneratedGraph g = erdos_renyi(50, 120, 3);
  Graph csr = Graph::from_edges(g.n, g.edges);
  EdgeList back = csr.to_edges();
  EXPECT_EQ(back.size(), g.edges.size());
  EXPECT_NEAR(total_weight(back), total_weight(g.edges), 1e-9);
}

TEST(Graph, FromClassedEdgesUnitWeights) {
  std::vector<ClassedEdge> ce = {{0, 1, 0, 7}, {1, 2, 1, 9}};
  Graph g = Graph::from_classed_edges(3, ce);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 1.0);
  // eid refers to the index in the classed edge vector.
  EXPECT_EQ(g.edge_ids(0)[0], 0u);
}

// Sequential scatter in input order: the adjacency Graph::from_edges must
// reproduce at any pool size.
struct ScatterCsr {
  std::vector<std::vector<std::uint32_t>> adj, eid;
  std::vector<std::vector<double>> wgt;
};

template <typename Edges>
ScatterCsr input_order_scatter(std::uint32_t n, const Edges& edges,
                               bool unit_weights) {
  ScatterCsr r{std::vector<std::vector<std::uint32_t>>(n),
               std::vector<std::vector<std::uint32_t>>(n),
               std::vector<std::vector<double>>(n)};
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    double w = 1.0;
    if constexpr (std::is_same_v<Edges, EdgeList>) {
      if (!unit_weights) w = e.w;
    }
    r.adj[e.u].push_back(e.v);
    r.wgt[e.u].push_back(w);
    r.eid[e.u].push_back(i);
    r.adj[e.v].push_back(e.u);
    r.wgt[e.v].push_back(w);
    r.eid[e.v].push_back(i);
  }
  return r;
}

void expect_scatter_order(const Graph& g, const ScatterCsr& r) {
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    auto nb = g.neighbors(v);
    auto w = g.weights(v);
    auto ids = g.edge_ids(v);
    ASSERT_EQ(std::vector<std::uint32_t>(nb.begin(), nb.end()), r.adj[v]) << v;
    ASSERT_EQ(std::vector<double>(w.begin(), w.end()), r.wgt[v]) << v;
    ASSERT_EQ(std::vector<std::uint32_t>(ids.begin(), ids.end()), r.eid[v])
        << v;
  }
}

TEST(Graph, AdjacencyOrderIsInputOrderScatter) {
  // A skewed multigraph with repeated pairs and hubs, larger than several
  // canonical blocks, so slices fill from many blocks at once on the pool.
  GeneratedGraph g = rmat(12, 30000, 5);
  EdgeList e = g.edges;
  e.insert(e.end(), g.edges.begin(), g.edges.begin() + 5000);
  randomize_weights_log_uniform(e, 10.0, 6);
  expect_scatter_order(Graph::from_edges(g.n, e),
                       input_order_scatter(g.n, e, false));
  std::vector<ClassedEdge> ce;
  for (std::uint32_t i = 0; i < e.size(); ++i) {
    ce.push_back({e[i].v, e[i].u, i % 3, 7 * i});
  }
  expect_scatter_order(Graph::from_classed_edges(g.n, ce),
                       input_order_scatter(g.n, ce, true));
}

TEST(Connectivity, CountsComponents) {
  EdgeList e = {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}};
  Components c = connected_components(6, e);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_EQ(c.label[3], c.label[4]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_NE(c.label[5], c.label[0]);
}

TEST(Connectivity, ClassedEdgesOverload) {
  std::vector<ClassedEdge> e = {{0, 1, 0, 0}, {2, 3, 0, 1}};
  Components c = connected_components(4, e);
  EXPECT_EQ(c.count, 2u);
}

}  // namespace
}  // namespace parsdd
