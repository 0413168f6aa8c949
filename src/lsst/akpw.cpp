#include "lsst/akpw.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/contraction.h"
#include "graph/graph.h"
#include "parallel/primitives.h"
#include "partition/partition.h"

namespace parsdd {

namespace {
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
}

std::vector<std::uint32_t> weight_classes(const EdgeList& edges, double z,
                                          std::uint32_t* num_classes) {
  std::vector<std::uint32_t> cls(edges.size());
  if (edges.empty()) {
    if (num_classes) *num_classes = 0;
    return cls;
  }
  double wmin = parallel_reduce(
      0, edges.size(), std::numeric_limits<double>::infinity(),
      [&](std::size_t i) { return edges[i].w; },
      [](double a, double b) { return std::min(a, b); });
  if (!(wmin > 0.0)) {
    throw std::invalid_argument("weight_classes: weights must be positive");
  }
  const double log_z = std::log(z);
  parallel_for(0, edges.size(), [&](std::size_t i) {
    double ratio = edges[i].w / wmin;
    // A length that overflowed (1/w of a subnormal conductance) makes the
    // ratio +inf, or NaN if every length did; the top finite class holds it,
    // so the cast below always sees a finite value.
    if (!std::isfinite(ratio)) ratio = std::numeric_limits<double>::max();
    // Class i (0-based) holds weights in [z^i, z^{i+1}).
    std::int64_t c =
        static_cast<std::int64_t>(std::floor(std::log(ratio) / log_z));
    if (c < 0) c = 0;  // guard round-off at the boundary
    // Guard the opposite round-off direction as well.
    while (std::pow(z, static_cast<double>(c)) > ratio * (1.0 + 1e-12)) --c;
    cls[i] = static_cast<std::uint32_t>(std::max<std::int64_t>(c, 0));
  });
  if (num_classes) {
    std::uint32_t mx = parallel_reduce(
        0, cls.size(), 0u, [&](std::size_t i) { return cls[i]; },
        [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
    *num_classes = mx + 1;
  }
  return cls;
}

void akpw_theory_parameters(std::uint32_t n, double* y, double* z) {
  double log2n = std::log2(std::max<double>(n, 4.0));
  double loglog = std::log2(std::max(2.0, log2n));
  *y = std::pow(2.0, std::sqrt(6.0 * log2n * loglog));
  double tau = std::ceil(3.0 * log2n / std::log2(*y));
  const double c1 = 272.0;
  *z = 4.0 * c1 * (*y) * tau * log2n * log2n * log2n;
}

void akpw_practical_parameters(std::uint32_t n, double* y, double* z) {
  double log2n = std::log2(std::max<double>(n, 4.0));
  *y = 4.0;
  *z = std::max(16.0, 6.0 * (*y) * log2n);
}

std::vector<std::uint32_t> component_bfs_parents(const Graph& g,
                                                 const Decomposition& d) {
  // The parent edge chosen for each vertex becomes a tree edge of the AKPW
  // forest, so claims must be deterministic: as in graph/bfs.cpp, claim with
  // key (frontier_index << 32 | adjacency_slot) and let the minimum win —
  // exactly the first touch of a sequential scan in frontier order — instead
  // of first-CAS-wins, which hands the tree to the scheduler.
  constexpr std::uint64_t kNoClaim = ~std::uint64_t{0};
  std::uint32_t n = g.num_vertices();
  std::vector<std::uint32_t> parent_eid(n, kNone);
  std::vector<std::uint32_t> visited(n, 0);
  std::vector<std::uint64_t> cand(n, kNoClaim);
  std::vector<std::uint32_t> frontier = d.center;
  for (std::uint32_t c : frontier) visited[c] = 1;
  std::size_t total_seen = frontier.size();
  static GranularitySite site("akpw.component_bfs", /*init_ns_per_unit=*/4.0);
  std::uint64_t degree_hint = n ? 2 * g.num_edges() / n + 1 : 1;
  while (!frontier.empty()) {
    std::size_t f = frontier.size();
    std::vector<std::uint32_t> next;
    if (!site.should_parallelize(f * degree_hint)) {
      for (std::size_t i = 0; i < f; ++i) {
        std::uint32_t u = frontier[i];
        auto nbrs = g.neighbors(u);
        auto eids = g.edge_ids(u);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          std::uint32_t v = nbrs[k];
          if (d.component[v] != d.component[u] || visited[v]) continue;
          visited[v] = 1;
          parent_eid[v] = eids[k];
          next.push_back(v);
        }
      }
    } else {
      std::size_t nb = num_blocks_for(f, 64);
      std::size_t block = (f + nb - 1) / nb;
      // Phase 1: claim minimum (i, k) per unvisited same-component neighbor.
      ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
        std::size_t s = b * block, e = std::min(f, s + block);
        for (std::size_t i = s; i < e; ++i) {
          std::uint32_t u = frontier[i];
          auto nbrs = g.neighbors(u);
          for (std::size_t k = 0; k < nbrs.size(); ++k) {
            std::uint32_t v = nbrs[k];
            if (d.component[v] != d.component[u] || visited[v]) continue;
            std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) | k;
            std::atomic_ref<std::uint64_t> cv(cand[v]);
            std::uint64_t cur = cv.load(std::memory_order_relaxed);
            while (key < cur && !cv.compare_exchange_weak(
                                    cur, key, std::memory_order_relaxed)) {
            }
          }
        }
      });
      // Phase 2: the unique winner finalizes v and resets its claim slot.
      std::vector<std::vector<std::uint32_t>> local(nb);
      ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
        std::size_t s = b * block, e = std::min(f, s + block);
        auto& loc = local[b];
        for (std::size_t i = s; i < e; ++i) {
          std::uint32_t u = frontier[i];
          auto nbrs = g.neighbors(u);
          auto eids = g.edge_ids(u);
          for (std::size_t k = 0; k < nbrs.size(); ++k) {
            std::uint32_t v = nbrs[k];
            std::atomic_ref<std::uint64_t> cv(cand[v]);
            if (cv.load(std::memory_order_relaxed) !=
                ((static_cast<std::uint64_t>(i) << 32) | k)) {
              continue;
            }
            std::atomic_ref<std::uint32_t>(visited[v])
                .store(1, std::memory_order_relaxed);
            parent_eid[v] = eids[k];
            cv.store(kNoClaim, std::memory_order_relaxed);
            loc.push_back(v);
          }
        }
      });
      for (auto& loc : local) {
        next.insert(next.end(), loc.begin(), loc.end());
      }
    }
    total_seen += next.size();
    frontier.swap(next);
  }
  if (total_seen != n) {
    throw std::logic_error("component_bfs_parents: component not connected");
  }
  return parent_eid;
}

AkpwResult akpw_tree(std::uint32_t n, const EdgeList& edges,
                     const AkpwOptions& opts) {
  AkpwResult result;
  if (opts.theory_parameters) {
    akpw_theory_parameters(n, &result.y, &result.z);
  } else {
    akpw_practical_parameters(n, &result.y, &result.z);
  }
  if (opts.y > 0.0) result.y = opts.y;
  if (opts.z > 0.0) result.z = opts.z;
  if (edges.empty()) return result;

  std::vector<std::uint32_t> cls =
      weight_classes(edges, result.z, &result.num_classes);
  const std::uint32_t num_classes = result.num_classes;

  // Edge indices grouped by class, appended lazily at their iteration.
  std::vector<std::vector<std::uint32_t>> by_class(num_classes);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    by_class[cls[i]].push_back(static_cast<std::uint32_t>(i));
  }

  // label[v]: current contracted id of original vertex v.
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t v = 0; v < n; ++v) label[v] = v;
  std::uint32_t n_cur = n;

  std::vector<ClassedEdge> active;
  const std::uint32_t rho =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(result.z / 4.0));
  const std::uint32_t max_iterations = num_classes + 16 * 32 + 64;

  for (std::uint32_t j = 0;; ++j) {
    if (j >= max_iterations) {
      throw std::runtime_error("akpw_tree: failed to make progress");
    }
    // Activate class j, relabeled through all contractions so far.
    if (j < num_classes) {
      for (std::uint32_t idx : by_class[j]) {
        std::uint32_t u = label[edges[idx].u];
        std::uint32_t v = label[edges[idx].v];
        if (u != v) active.push_back(ClassedEdge{u, v, cls[idx], idx});
      }
    }
    if (active.empty()) {
      if (j + 1 >= num_classes) break;
      continue;
    }
    ++result.iterations;

    // Map the classes currently present to a dense range for Partition.
    std::vector<std::uint32_t> present;
    for (const ClassedEdge& e : active) present.push_back(e.cls);
    std::sort(present.begin(), present.end());
    present.erase(std::unique(present.begin(), present.end()), present.end());
    auto dense_of = [&](std::uint32_t c) {
      return static_cast<std::uint32_t>(
          std::lower_bound(present.begin(), present.end(), c) -
          present.begin());
    };
    std::vector<ClassedEdge> dense_edges = active;
    parallel_for(0, dense_edges.size(), [&](std::size_t i) {
      dense_edges[i].cls = dense_of(dense_edges[i].cls);
    });

    PartitionOptions popts;
    popts.seed = opts.seed + 0x9e3779b9ull * (j + 1);
    popts.center_constant = opts.center_constant;
    PartitionResult part =
        partition(n_cur, dense_edges,
                  static_cast<std::uint32_t>(present.size()), rho, popts);
    const Decomposition& d = part.decomposition;

    // Add each component's BFS tree (mapped back to original edge ids).
    Graph g = Graph::from_classed_edges(n_cur, active);
    std::vector<std::uint32_t> parents = component_bfs_parents(g, d);
    for (std::uint32_t v = 0; v < n_cur; ++v) {
      if (parents[v] != kNone) {
        result.tree_edges.push_back(active[parents[v]].id);
      }
    }

    // Contract.
    active = contract_edges(active, d.component);
    parallel_for(0, n, [&](std::size_t v) {
      label[v] = d.component[label[v]];
    });
    n_cur = d.num_components;
    if (active.empty() && j + 1 >= num_classes) break;
  }
  return result;
}

}  // namespace parsdd
