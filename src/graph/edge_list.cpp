#include "graph/edge_list.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "graph/union_find.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"
#include "util/serialize.h"

namespace parsdd {

std::uint32_t max_vertex_plus_one(const EdgeList& edges) {
  return parallel_reduce(
      0, edges.size(), 0u,
      [&](std::size_t i) { return std::max(edges[i].u, edges[i].v) + 1; },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
}

EdgeList remove_self_loops(const EdgeList& edges) {
  return pack(edges, [&](std::size_t i) { return edges[i].u != edges[i].v; });
}

EdgeList combine_parallel_edges(const EdgeList& edges) {
  EdgeList out = remove_self_loops(edges);
  parallel_for(0, out.size(), [&](std::size_t i) {
    if (out[i].u > out[i].v) std::swap(out[i].u, out[i].v);
  });
  parallel_sort(out, [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  // Sequential merge of equal (u, v) runs; runs are typically short.
  std::size_t w = 0;
  for (std::size_t i = 0; i < out.size();) {
    Edge merged = out[i];
    std::size_t j = i + 1;
    while (j < out.size() && out[j].u == merged.u && out[j].v == merged.v) {
      merged.w += out[j].w;
      ++j;
    }
    out[w++] = merged;
    i = j;
  }
  out.resize(w);
  return out;
}

double total_weight(const EdgeList& edges) {
  return parallel_reduce(
      0, edges.size(), 0.0, [&](std::size_t i) { return edges[i].w; },
      [](double a, double b) { return a + b; });
}

bool is_connected(std::uint32_t n, const EdgeList& edges) {
  if (n <= 1) return true;
  UnionFind uf(n);
  for (const Edge& e : edges) uf.unite(e.u, e.v);
  return uf.num_sets() == 1;
}

std::size_t ensure_connected(std::uint32_t n, EdgeList& edges,
                             std::uint64_t seed) {
  if (n <= 1) return 0;
  UnionFind uf(n);
  for (const Edge& e : edges) uf.unite(e.u, e.v);
  if (uf.num_sets() == 1) return 0;
  // Chain component representatives in a shuffled order so the patch edges
  // do not all attach to vertex 0.
  std::vector<std::uint32_t> reps;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (uf.find(v) == v) reps.push_back(v);
  }
  Rng rng(seed);
  for (std::size_t i = reps.size() - 1; i > 0; --i) {
    std::swap(reps[i], reps[rng.below(i, i + 1)]);
  }
  std::size_t added = 0;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    edges.push_back(Edge{reps[i - 1], reps[i], 1.0});
    ++added;
  }
  return added;
}

void pack_edges(const EdgeList& edges, std::vector<std::uint32_t>& endpoints,
                std::vector<double>& weights) {
  endpoints.resize(2 * edges.size());
  weights.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    endpoints[2 * i] = edges[i].u;
    endpoints[2 * i + 1] = edges[i].v;
    weights[i] = edges[i].w;
  }
}

void save_edges(serialize::Writer& w, const EdgeList& edges) {
  std::vector<std::uint32_t> endpoints;
  std::vector<double> weights;
  pack_edges(edges, endpoints, weights);
  w.pod_vec(endpoints);
  w.pod_vec(weights);
}

EdgeListView load_edges_view(serialize::Reader& r) {
  EdgeListView view{r.pod_view<std::uint32_t>(), r.pod_view<double>()};
  if (r.status().ok() && view.endpoints.size != 2 * view.weights.size) {
    r.fail("edge endpoint/weight arrays disagree on length");
  }
  return r.status().ok() ? view : EdgeListView{};
}

// Edge opens with u then v, so one edge's endpoint pair is its first 8
// bytes: one copy or compare each.
static_assert(offsetof(Edge, u) == 0 && offsetof(Edge, v) == 4);

EdgeList EdgeListView::decode() const {
  EdgeList edges(size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    std::memcpy(static_cast<void*>(&edges[i]), endpoints.bytes + 8 * i, 8);
    std::memcpy(&edges[i].w, weights.bytes + 8 * i, 8);
  }
  return edges;
}

bool EdgeListView::matches(const EdgeList& edges) const {
  if (edges.size() != size()) return false;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (std::memcmp(&edges[i], endpoints.bytes + 8 * i, 8) != 0 ||
        std::memcmp(&edges[i].w, weights.bytes + 8 * i, 8) != 0) {
      return false;
    }
  }
  return true;
}

EdgeList load_edges(serialize::Reader& r) {
  return load_edges_view(r).decode();
}

}  // namespace parsdd
