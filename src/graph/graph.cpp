#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "parallel/primitives.h"

namespace parsdd {

namespace {

struct CsrParts {
  std::vector<std::size_t> off;
  std::vector<std::uint32_t> adj;
  std::vector<double> wgt;
  std::vector<std::uint32_t> eid;
};

// Shared CSR construction: counts arc degrees, scans, scatters one arc code
// `(edge << 1) | side` per arc, canonicalizes each slice, then fills the
// arrays from the codes.  `get(i)` returns (u, v, w) for edge i; side 0 is
// u's arc to v, side 1 is v's arc to u.
template <typename GetEdge>
CsrParts build_csr(std::uint32_t n, std::size_t m, GetEdge&& get) {
  static GranularitySite site("graph.csr_scatter", /*init_ns_per_unit=*/4.0);
  CsrParts parts;
  parts.off.assign(n + 1, 0);
  parallel_for_bump(site, 0, m, [&](std::size_t i, auto&& bump) {
    auto [u, v, w] = get(i);
    (void)w;
    bump(parts.off[u]);
    bump(parts.off[v]);
  });
  std::size_t total = scan_exclusive(parts.off);
  assert(total == 2 * m);

  std::vector<std::size_t> cursor(parts.off.begin(), parts.off.end() - 1);
  std::vector<std::uint64_t> code(total);
  parallel_for_bump(site, 0, m, [&](std::size_t i, auto&& bump) {
    auto [u, v, w] = get(i);
    (void)w;
    std::uint64_t c = static_cast<std::uint64_t>(i) << 1;
    code[bump(cursor[u])] = c;
    code[bump(cursor[v])] = c | 1;
  });

  // On the pool the scatter lands arcs in scheduling-dependent order, and
  // adjacency order is observable (BFS claim keys, neighbor iteration in
  // ball growing), so canonicalize each vertex's slice: sorting the codes —
  // edge-major, so unique within a slice — reproduces exactly the order a
  // sequential scatter in input order would have produced, at any pool size.
  parallel_for(0, n, [&](std::size_t v) {
    auto s = code.begin() + parts.off[v], e = code.begin() + parts.off[v + 1];
    if (!std::is_sorted(s, e)) std::sort(s, e);
  });
  parts.adj.resize(total);
  parts.wgt.resize(total);
  parts.eid.resize(total);
  parallel_for(0, total, [&](std::size_t a) {
    auto id = static_cast<std::uint32_t>(code[a] >> 1);
    auto [u, v, w] = get(id);
    parts.adj[a] = (code[a] & 1) ? u : v;
    parts.wgt[a] = w;
    parts.eid[a] = id;
  });
  return parts;
}

}  // namespace

Graph Graph::from_edges(std::uint32_t n, const EdgeList& edges) {
  CsrParts p = build_csr(n, edges.size(), [&](std::size_t i) {
    const Edge& e = edges[i];
    assert(e.u != e.v && e.u < n && e.v < n);
    return std::tuple{e.u, e.v, e.w};
  });
  Graph g;
  g.n_ = n;
  g.off_ = std::move(p.off);
  g.adj_ = std::move(p.adj);
  g.wgt_ = std::move(p.wgt);
  g.eid_ = std::move(p.eid);
  return g;
}

Graph Graph::from_classed_edges(std::uint32_t n,
                                const std::vector<ClassedEdge>& edges) {
  CsrParts p = build_csr(n, edges.size(), [&](std::size_t i) {
    const ClassedEdge& e = edges[i];
    assert(e.u != e.v && e.u < n && e.v < n);
    return std::tuple{e.u, e.v, 1.0};
  });
  Graph g;
  g.n_ = n;
  g.off_ = std::move(p.off);
  g.adj_ = std::move(p.adj);
  g.wgt_ = std::move(p.wgt);
  g.eid_ = std::move(p.eid);
  return g;
}

double Graph::weighted_degree(std::uint32_t v) const {
  double s = 0.0;
  for (std::size_t i = off_[v]; i < off_[v + 1]; ++i) s += wgt_[i];
  return s;
}

EdgeList Graph::to_edges() const {
  EdgeList out;
  out.reserve(num_edges());
  for (std::uint32_t u = 0; u < n_; ++u) {
    for (std::size_t i = off_[u]; i < off_[u + 1]; ++i) {
      if (u < adj_[i]) out.push_back(Edge{u, adj_[i], wgt_[i]});
    }
  }
  return out;
}

}  // namespace parsdd
