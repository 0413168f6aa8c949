#include "graph/tree.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "parallel/primitives.h"
#include "util/serialize.h"

namespace parsdd {

namespace {

constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

// Tree adjacency: off[x] .. off[x+1] index the tree edges at x.  An arc
// stores only its edge index; the neighbor is e.u ^ e.v ^ x.
struct TreeAdjacency {
  std::vector<std::uint32_t> off;
  std::vector<std::uint32_t> arc;
};

// Counting sort of the edges by endpoint.  On the pool the slots are
// claimed in scheduling-dependent order, which nothing observes: a vertex
// of a tree has one path to the root, so its parent, depth and weighted
// depth do not depend on the order frontiers are expanded in.
TreeAdjacency tree_adjacency(std::uint32_t n, const EdgeList& edges) {
  static GranularitySite site("tree.adjacency", /*init_ns_per_unit=*/4.0);
  TreeAdjacency a;
  a.off.assign(n + 1, 0);
  parallel_for_bump(site, 0, edges.size(), [&](std::size_t i, auto&& bump) {
    bump(a.off[edges[i].u]);
    bump(a.off[edges[i].v]);
  });
  scan_exclusive(a.off);
  std::vector<std::uint32_t> cursor(a.off.begin(), a.off.end() - 1);
  a.arc.resize(2 * edges.size());
  parallel_for_bump(site, 0, edges.size(), [&](std::size_t i, auto&& bump) {
    a.arc[bump(cursor[edges[i].u])] = static_cast<std::uint32_t>(i);
    a.arc[bump(cursor[edges[i].v])] = static_cast<std::uint32_t>(i);
  });
  return a;
}

}  // namespace

RootedTree RootedTree::from_edges(std::uint32_t n, const EdgeList& tree_edges,
                                  std::uint32_t root) {
  if (n > 0 && tree_edges.size() != static_cast<std::size_t>(n) - 1) {
    throw std::invalid_argument("RootedTree: expected exactly n-1 edges");
  }
  if (root >= n) throw std::invalid_argument("RootedTree: root out of range");
  bool in_range = parallel_reduce(
      0, tree_edges.size(), true,
      [&](std::size_t i) { return tree_edges[i].u < n && tree_edges[i].v < n; },
      [](bool x, bool y) { return x && y; });
  if (!in_range) {
    throw std::invalid_argument("RootedTree: edge endpoint out of range");
  }
  TreeAdjacency adj = tree_adjacency(n, tree_edges);
  RootedTree t;
  t.n_ = n;
  t.root_ = root;
  t.parent_.assign(n, kUnreached);
  t.depth_.assign(n, kUnreached);
  t.wdepth_.assign(n, 0.0);
  t.parent_[root] = root;
  t.depth_[root] = 0;

  // Level-synchronous expansion from the root.  Each vertex is claimed
  // (depth set by CAS) by exactly one frontier vertex in a tree, which sets
  // its parent and weighted depth on the spot.  Edges that close a cycle
  // lose their claim and are skipped, so cyclic input cannot race; with
  // n-1 edges a cycle leaves some vertex unreached, which throws below.
  static GranularitySite site("tree.expand", /*init_ns_per_unit=*/4.0);
  auto visit = [&](std::uint32_t u, std::uint32_t d, auto&& claim,
                   auto&& emit) {
    for (std::uint32_t a = adj.off[u]; a < adj.off[u + 1]; ++a) {
      const Edge& e = tree_edges[adj.arc[a]];
      std::uint32_t v = e.u ^ e.v ^ u;
      if (v == t.parent_[u] || !claim(v, d)) continue;
      t.parent_[v] = u;
      t.wdepth_[v] = t.wdepth_[u] + e.w;
      emit(v);
    }
  };
  // Reached vertices in level order; level d-1's frontier is
  // order[lo, hi) and level d is appended behind it.
  std::vector<std::uint32_t> order(n);
  order[0] = root;
  std::size_t lo = 0, reached = 1;
  for (std::uint32_t d = 1; lo < reached; ++d) {
    std::size_t hi = reached, f = hi - lo;
    if (!site.should_parallelize(2 * f)) {
      detail::SeqTimer timer(site, 2 * f);
      auto claim = [&](std::uint32_t v, std::uint32_t dv) {
        if (t.depth_[v] != kUnreached) return false;
        t.depth_[v] = dv;
        return true;
      };
      for (std::size_t i = lo; i < hi; ++i) {
        visit(order[i], d, claim,
              [&](std::uint32_t v) { order[reached++] = v; });
      }
    } else {
      auto claim = [&](std::uint32_t v, std::uint32_t dv) {
        std::uint32_t expected = kUnreached;
        return std::atomic_ref<std::uint32_t>(t.depth_[v])
            .compare_exchange_strong(expected, dv, std::memory_order_relaxed);
      };
      std::size_t nb = num_blocks_for(f, 64);
      std::size_t block = (f + nb - 1) / nb;
      std::vector<std::vector<std::uint32_t>> local(nb);
      ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
        std::size_t s = lo + b * block, e = std::min(hi, s + block);
        for (std::size_t i = s; i < e; ++i) {
          visit(order[i], d, claim,
                [&](std::uint32_t v) { local[b].push_back(v); });
        }
      });
      for (const std::vector<std::uint32_t>& l : local) {
        std::copy(l.begin(), l.end(), order.begin() + reached);
        reached += l.size();
      }
    }
    lo = hi;
  }
  if (reached != n) {
    throw std::invalid_argument("RootedTree: edges do not span [0, n)");
  }
  // Binary lifting table.
  std::uint32_t levels = 1;
  while ((1u << levels) < n) ++levels;
  t.up_.assign(levels + 1, std::vector<std::uint32_t>(n));
  parallel_for(0, n, [&](std::size_t v) { t.up_[0][v] = t.parent_[v]; });
  for (std::uint32_t k = 1; k <= levels; ++k) {
    parallel_for(0, n, [&](std::size_t v) {
      t.up_[k][v] = t.up_[k - 1][t.up_[k - 1][v]];
    });
  }
  return t;
}

std::uint32_t RootedTree::lca(std::uint32_t u, std::uint32_t v) const {
  if (depth_[u] < depth_[v]) std::swap(u, v);
  std::uint32_t diff = depth_[u] - depth_[v];
  for (std::uint32_t k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) u = up_[k][u];
  }
  if (u == v) return u;
  for (std::uint32_t k = static_cast<std::uint32_t>(up_.size()); k-- > 0;) {
    if (up_[k][u] != up_[k][v]) {
      u = up_[k][u];
      v = up_[k][v];
    }
  }
  return up_[0][u];
}

double RootedTree::distance(std::uint32_t u, std::uint32_t v) const {
  std::uint32_t a = lca(u, v);
  return wdepth_[u] + wdepth_[v] - 2.0 * wdepth_[a];
}

std::uint32_t RootedTree::hop_distance(std::uint32_t u, std::uint32_t v) const {
  std::uint32_t a = lca(u, v);
  return depth_[u] + depth_[v] - 2 * depth_[a];
}

void RootedTree::save(serialize::Writer& w) const {
  w.u32(n_);
  w.u32(root_);
  w.pod_vec(parent_);
  w.pod_vec(depth_);
  w.pod_vec(wdepth_);
  w.varint(up_.size());
  for (const std::vector<std::uint32_t>& level : up_) w.pod_vec(level);
}

RootedTree RootedTree::load(serialize::Reader& r) {
  RootedTree t;
  t.n_ = r.u32();
  t.root_ = r.u32();
  t.parent_ = r.pod_vec<std::uint32_t>();
  t.depth_ = r.pod_vec<std::uint32_t>();
  t.wdepth_ = r.pod_vec<double>();
  std::uint64_t levels = r.varint();
  for (std::uint64_t k = 0; k < levels && r.status().ok(); ++k) {
    t.up_.push_back(r.pod_vec<std::uint32_t>());
  }
  if (r.status().ok() &&
      (t.parent_.size() != t.n_ || t.depth_.size() != t.n_ ||
       t.wdepth_.size() != t.n_ || (t.n_ > 0 && t.root_ >= t.n_))) {
    r.fail("RootedTree arrays disagree with vertex count");
    return t;
  }
  // lca() chases parent_/up_ entries as indexes into n_-sized arrays; a
  // short level or out-of-range vertex id must fail here, not there.
  bool ok = true;
  for (std::size_t v = 0; ok && v < t.parent_.size(); ++v) {
    ok = t.parent_[v] < t.n_;
  }
  for (const std::vector<std::uint32_t>& level : t.up_) {
    ok = ok && level.size() == t.n_;
    for (std::size_t v = 0; ok && v < level.size(); ++v) {
      ok = level[v] < t.n_;
    }
  }
  if (r.status().ok() && !ok) {
    r.fail("RootedTree ancestor tables index out of bounds");
  }
  return t;
}

}  // namespace parsdd
