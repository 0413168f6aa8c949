#include "graph/mst.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "graph/union_find.h"
#include "parallel/primitives.h"

namespace parsdd {

namespace {

// Order-preserving bit pattern of a weight: unsigned comparison of keys is
// `<` on weights.  -0.0 maps to +0.0's key (the two compare equal), +inf
// sorts after every finite weight, and every NaN gets the largest key, after
// +inf.
std::uint64_t weight_key(double w) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  if (std::isnan(w)) return ~std::uint64_t{0};
  if (w == 0.0) w = 0.0;
  std::uint64_t b = std::bit_cast<std::uint64_t>(w);
  return (b & kSign) ? ~b : (b | kSign);
}

// Edge indices sorted by (w, index): a stable radix sort of weight keys.
std::vector<std::uint32_t> weight_order(const EdgeList& edges) {
  std::vector<std::uint64_t> key(edges.size());
  parallel_for(0, edges.size(),
               [&](std::size_t i) { key[i] = weight_key(edges[i].w); });
  return radix_sort_indices(key);
}

// Encodes (weight, edge index) into an order-preserving uint64 key for
// atomic min hooking.  Weights are reduced to their rank in the sorted
// order, so doubles never enter the atomic.
std::vector<std::uint64_t> rank_keys(const EdgeList& edges) {
  std::vector<std::uint32_t> order = weight_order(edges);
  std::vector<std::uint64_t> key(edges.size());
  parallel_for(0, order.size(), [&](std::size_t r) {
    key[order[r]] =
        (static_cast<std::uint64_t>(r) << 32) | order[r];
  });
  return key;
}

}  // namespace

std::vector<std::uint32_t> mst_kruskal(std::uint32_t n,
                                       const EdgeList& edges) {
  std::vector<std::uint32_t> order = weight_order(edges);
  UnionFind uf(n);
  std::vector<std::uint32_t> chosen;
  chosen.reserve(n > 0 ? n - 1 : 0);
  for (std::uint32_t idx : order) {
    if (chosen.size() + 1 >= n) break;  // a spanning tree is complete
    if (uf.unite(edges[idx].u, edges[idx].v)) chosen.push_back(idx);
  }
  return chosen;
}

std::vector<std::uint32_t> mst_boruvka(std::uint32_t n,
                                       const EdgeList& edges) {
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> key = rank_keys(edges);
  UnionFind uf(n);
  std::vector<std::uint32_t> live(edges.size());
  std::iota(live.begin(), live.end(), 0u);
  std::vector<std::uint32_t> chosen;
  std::vector<std::atomic<std::uint64_t>> best(n);

  while (!live.empty()) {
    // Drop merged edges and resolve representatives sequentially
    // (UnionFind::find mutates its parent array via path halving, so it
    // must not run concurrently).
    std::vector<std::uint32_t> next_live, comp_u, comp_v;
    next_live.reserve(live.size());
    for (std::uint32_t idx : live) {
      std::uint32_t cu = uf.find(edges[idx].u);
      std::uint32_t cv = uf.find(edges[idx].v);
      if (cu == cv) continue;
      next_live.push_back(idx);
      comp_u.push_back(cu);
      comp_v.push_back(cv);
      // Touch only live components; cheaper than clearing all n slots.
      best[cu].store(kInf, std::memory_order_relaxed);
      best[cv].store(kInf, std::memory_order_relaxed);
    }
    live.swap(next_live);
    if (live.empty()) break;
    parallel_for(0, live.size(), [&](std::size_t i) {
      std::uint32_t idx = live[i];
      std::uint32_t cu = comp_u[i];
      std::uint32_t cv = comp_v[i];
      std::uint64_t k = key[idx];
      std::uint64_t cur = best[cu].load(std::memory_order_relaxed);
      while (k < cur && !best[cu].compare_exchange_weak(
                            cur, k, std::memory_order_relaxed)) {
      }
      cur = best[cv].load(std::memory_order_relaxed);
      while (k < cur && !best[cv].compare_exchange_weak(
                            cur, k, std::memory_order_relaxed)) {
      }
    });
    // Hook: each component's minimum edge joins the forest (sequential
    // union step; the parallel work is the min-reductions above).
    for (std::uint32_t idx : live) {
      std::uint32_t cu = uf.find(edges[idx].u);
      std::uint32_t cv = uf.find(edges[idx].v);
      if (cu == cv) continue;
      std::uint64_t k = key[idx];
      if (best[cu].load(std::memory_order_relaxed) == k ||
          best[cv].load(std::memory_order_relaxed) == k) {
        if (uf.unite(cu, cv)) chosen.push_back(idx);
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

double forest_weight(const EdgeList& edges,
                     const std::vector<std::uint32_t>& chosen) {
  double s = 0.0;
  for (std::uint32_t idx : chosen) s += edges[idx].w;
  return s;
}

}  // namespace parsdd
