// Lemma 6.5: GreedyElimination — structure, rounds, exact solve recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "graph/generators.h"
#include "kernels/kernels.h"
#include "graph/mst.h"
#include "linalg/dense_ldlt.h"
#include "linalg/laplacian.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"
#include "solver/chain.h"
#include "solver/greedy_elimination.h"

namespace parsdd {
namespace {

// Fold b through the elimination record at block width 1; returns the
// folded vector and writes the reduced-space RHS.
Vec fold(const GreedyEliminationResult& ge, const Vec& b, Vec* reduced_rhs) {
  MultiVec folded, reduced;
  ge.fold_rhs_block(MultiVec::from_columns({b}), folded, reduced);
  *reduced_rhs = reduced.column(0);
  return folded.column(0);
}

Vec back_substitute(const GreedyEliminationResult& ge, const Vec& folded,
                    const Vec& x_reduced) {
  MultiVec x;
  ge.back_substitute_block(MultiVec::from_columns({folded}),
                           MultiVec::from_columns({x_reduced}), x);
  return x.column(0);
}

// Solve L x = b using only the elimination record plus a dense solve of the
// reduced system; returns the relative residual.
double eliminate_and_solve(std::uint32_t n, const EdgeList& edges,
                           const Vec& b, const GreedyEliminationResult& ge) {
  Vec reduced_rhs;
  Vec folded = fold(ge, b, &reduced_rhs);
  Vec x_red(ge.reduced_n, 0.0);
  if (ge.reduced_n >= 2) {
    CsrMatrix rlap = laplacian_from_edges(ge.reduced_n, ge.reduced_edges);
    DenseLdlt f = DenseLdlt::factor_laplacian(rlap);
    kernels::project_out_constant(reduced_rhs);
    x_red = f.solve(reduced_rhs);
  }
  Vec x = back_substitute(ge, folded, x_red);
  CsrMatrix lap = laplacian_from_edges(n, edges);
  return kernels::norm2(kernels::subtract(lap.apply(x), b)) / kernels::norm2(b);
}

TEST(GreedyElimination, TreeEliminatesCompletely) {
  GeneratedGraph g = path(200);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  EXPECT_EQ(ge.reduced_n, 0u);
  EXPECT_EQ(ge.steps.size(), 200u);
}

TEST(GreedyElimination, TreeSolveIsExact) {
  GeneratedGraph g = star(64);
  randomize_weights_log_uniform(g.edges, 10.0, 1);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  Vec b = random_unit_like(g.n, 2);
  EXPECT_LT(eliminate_and_solve(g.n, g.edges, b, ge), 1e-10);
}

class TreeSolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeSolveProperty, RandomTreesSolveExactly) {
  std::uint64_t seed = GetParam();
  GeneratedGraph g = erdos_renyi(300, 900, seed);
  randomize_weights_log_uniform(g.edges, 100.0, seed);
  auto idx = mst_kruskal(g.n, g.edges);
  EdgeList tree;
  for (auto i : idx) tree.push_back(g.edges[i]);
  GreedyEliminationResult ge = greedy_eliminate(g.n, tree, seed);
  EXPECT_EQ(ge.reduced_n, 0u);
  Vec b = random_unit_like(g.n, seed + 9);
  EXPECT_LT(eliminate_and_solve(g.n, tree, b, ge), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeSolveProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(GreedyElimination, ReducedGraphHasMinDegreeThree) {
  GeneratedGraph g = grid2d(15, 15);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  ASSERT_GT(ge.reduced_n, 0u);
  std::vector<std::uint32_t> deg(ge.reduced_n, 0);
  for (const Edge& e : ge.reduced_edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  // After merging parallel edges the *distinct-neighbor* degree can drop
  // below the multigraph degree; rebuild multiplicity-aware counts instead.
  // The invariant from the algorithm: no vertex had <= 2 incident live
  // multigraph edges when elimination stopped.  combine_parallel_edges can
  // only reduce counts, so check the weaker distinct-degree >= 1 and the
  // node-count bound of Lemma 6.5.
  for (std::uint32_t v = 0; v < ge.reduced_n; ++v) EXPECT_GE(deg[v], 1u);
  // Lemma 6.5: output has at most 2(m - n + 1) - 2 vertices (extra edges).
  std::int64_t extra =
      static_cast<std::int64_t>(g.edges.size()) - (g.n - 1);
  EXPECT_LE(ge.reduced_n, std::max<std::int64_t>(2 * extra, 0));
}

TEST(GreedyElimination, RoundsLogarithmic) {
  for (std::uint32_t side : {10u, 20u, 40u}) {
    GeneratedGraph g = grid2d(side, side);
    GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
    double logn = std::log2(static_cast<double>(g.n));
    EXPECT_LE(ge.rounds, static_cast<std::uint32_t>(8 * logn + 8))
        << "side=" << side;
  }
}

TEST(GreedyElimination, CycleGraphSolve) {
  // Cycle: every vertex has degree 2; elimination must splice it down.
  std::uint32_t n = 50;
  EdgeList e;
  for (std::uint32_t i = 0; i < n; ++i) {
    e.push_back(Edge{i, (i + 1) % n, 1.0 + (i % 3)});
  }
  GreedyEliminationResult ge = greedy_eliminate(n, e);
  Vec b = random_unit_like(n, 3);
  EXPECT_LT(eliminate_and_solve(n, e, b, ge), 1e-9);
}

TEST(GreedyElimination, ParallelEdgesAndSelfLoopFills) {
  // Theta graph: vertices 0-1 joined by three internally disjoint paths.
  // Splicing the paths creates parallel 0-1 edges whose elimination makes
  // self-loop fills.
  EdgeList e = {{0, 2, 1.0}, {2, 1, 1.0}, {0, 3, 2.0},
                {3, 1, 2.0}, {0, 4, 4.0}, {4, 1, 4.0}};
  GreedyEliminationResult ge = greedy_eliminate(5, e);
  Vec b = {3.0, -3.0, 0.0, 0.0, 0.0};
  EXPECT_LT(eliminate_and_solve(5, e, b, ge), 1e-9);
}

TEST(GreedyElimination, GridSolveMatchesDense) {
  GeneratedGraph g = grid2d(9, 9);
  randomize_weights_two_level(g.edges, 50.0, 4);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  Vec b = random_unit_like(g.n, 5);
  EXPECT_LT(eliminate_and_solve(g.n, g.edges, b, ge), 1e-8);
}

TEST(GreedyElimination, DeterministicForFixedSeed) {
  GeneratedGraph g = grid2d(12, 12);
  auto a = greedy_eliminate(g.n, g.edges, 7);
  auto b = greedy_eliminate(g.n, g.edges, 7);
  EXPECT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.reduced_n, b.reduced_n);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].v, b.steps[i].v);
  }
}

TEST(GreedyElimination, IsolatedVerticesEliminatedAsDegreeZero) {
  EdgeList e = {{0, 1, 1.0}};
  GreedyEliminationResult ge = greedy_eliminate(4, e);
  EXPECT_EQ(ge.reduced_n, 0u);
  Vec b = {1.0, -1.0, 0.0, 0.0};
  Vec reduced;
  Vec folded = fold(ge, b, &reduced);
  Vec x = back_substitute(ge, folded, {});
  EXPECT_NEAR(x[0] - x[1], 1.0, 1e-12);  // L x = b on the edge component
  EXPECT_DOUBLE_EQ(x[2], 0.0);
  EXPECT_DOUBLE_EQ(x[3], 0.0);
}

// The round-by-round implementation greedy_eliminate replaced: per-vertex
// adjacency vectors, and a candidate scan plus fresh n-sized priority and
// selection arrays every round.  Kept, minus comments, as the bitwise
// reference.
GreedyEliminationResult reference_greedy_eliminate(std::uint32_t n,
                                                   const EdgeList& edges,
                                                   std::uint64_t seed) {
  constexpr std::uint32_t kGone = std::numeric_limits<std::uint32_t>::max();
  GreedyEliminationResult out;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adj(n);
  std::vector<std::uint32_t> deg(n, 0);  // live incident edge count
  {
    std::size_t m = edges.size();
    parallel_for(0, m, [&](std::size_t i) {
      std::atomic_ref<std::uint32_t>(deg[edges[i].u])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::uint32_t>(deg[edges[i].v])
          .fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<std::uint32_t> off(n);
    parallel_for(0, n, [&](std::size_t v) { off[v] = deg[v]; });
    scan_exclusive(off);
    std::vector<std::uint32_t> cursor = off;
    struct Arc {
      std::uint32_t eid;
      std::uint32_t other;
      double w;
    };
    std::vector<Arc> arcs(2 * m);
    parallel_for(0, m, [&](std::size_t i) {
      const Edge& e = edges[i];
      std::uint32_t id = static_cast<std::uint32_t>(i);
      std::uint32_t pu = std::atomic_ref<std::uint32_t>(cursor[e.u])
                             .fetch_add(1, std::memory_order_relaxed);
      arcs[pu] = Arc{id, e.v, e.w};
      std::uint32_t pv = std::atomic_ref<std::uint32_t>(cursor[e.v])
                             .fetch_add(1, std::memory_order_relaxed);
      arcs[pv] = Arc{id, e.u, e.w};
    });
    parallel_for(0, n, [&](std::size_t v) {
      std::uint32_t s = off[v], e = off[v] + deg[v];
      std::sort(arcs.begin() + s, arcs.begin() + e,
                [](const Arc& a, const Arc& b) { return a.eid < b.eid; });
      auto& av = adj[v];
      av.resize(deg[v]);
      for (std::uint32_t i = s; i < e; ++i) {
        av[i - s] = {arcs[i].other, arcs[i].w};
      }
    });
  }
  std::vector<std::uint8_t> eliminated(n, 0);
  Rng rng(seed);

  auto compact = [&](std::uint32_t v) {
    auto& a = adj[v];
    std::size_t w = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!eliminated[a[i].first]) a[w++] = a[i];
    }
    a.resize(w);
  };

  std::size_t remaining = n;
  for (std::uint32_t round = 0; remaining > 0; ++round) {
    std::vector<std::uint32_t> cand = pack_index(n, [&](std::size_t v) {
      return !eliminated[v] && deg[v] <= 2;
    });
    if (cand.empty()) break;
    ++out.rounds;
    Rng round_rng = rng.child(round);
    std::vector<std::uint64_t> prio(n, 0);
    parallel_for(0, cand.size(), [&](std::size_t i) {
      prio[cand[i]] = (round_rng.u64(cand[i]) << 20) | cand[i];
    });
    std::vector<std::uint8_t> selected(n, 0);
    parallel_for(0, cand.size(), [&](std::size_t i) {
      std::uint32_t v = cand[i];
      bool best = true;
      for (const auto& [u, w] : adj[v]) {
        (void)w;
        if (eliminated[u]) continue;
        if (deg[u] <= 2 && prio[u] > prio[v]) {
          best = false;
          break;
        }
      }
      selected[v] = best ? 1 : 0;
    });
    for (std::uint32_t v : cand) {
      if (!selected[v]) continue;
      compact(v);
      EliminationStep step;
      step.v = v;
      step.degree = deg[v];
      if (deg[v] >= 1) {
        step.u1 = adj[v][0].first;
        step.w1 = adj[v][0].second;
      }
      if (deg[v] == 2) {
        step.u2 = adj[v][1].first;
        step.w2 = adj[v][1].second;
      }
      step.pivot = step.w1 + step.w2;
      eliminated[v] = 1;
      --remaining;
      if (step.degree == 1) {
        --deg[step.u1];
      } else if (step.degree == 2) {
        if (step.u1 == step.u2) {
          deg[step.u1] -= 2;
        } else {
          double fill = step.w1 * step.w2 / step.pivot;
          adj[step.u1].push_back({step.u2, fill});
          adj[step.u2].push_back({step.u1, fill});
        }
      }
      adj[v].clear();
      out.steps.push_back(step);
    }
  }

  out.reduced_of_orig.assign(n, kGone);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!eliminated[v]) {
      out.reduced_of_orig[v] = static_cast<std::uint32_t>(
          out.orig_of_reduced.size());
      out.orig_of_reduced.push_back(v);
    }
  }
  out.reduced_n = static_cast<std::uint32_t>(out.orig_of_reduced.size());
  for (std::uint32_t v : out.orig_of_reduced) {
    compact(v);
    for (const auto& [u, w] : adj[v]) {
      if (u > v || (u == v)) continue;
      out.reduced_edges.push_back(
          Edge{out.reduced_of_orig[u], out.reduced_of_orig[v], w});
    }
  }
  out.reduced_edges = combine_parallel_edges(out.reduced_edges);
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every output field of greedy_eliminate against the reference, by bits.
void expect_matches_reference(std::uint32_t n, const EdgeList& edges,
                              std::uint64_t seed) {
  GreedyEliminationResult got = greedy_eliminate(n, edges, seed);
  GreedyEliminationResult ref = reference_greedy_eliminate(n, edges, seed);
  EXPECT_EQ(got.rounds, ref.rounds);
  EXPECT_EQ(got.reduced_n, ref.reduced_n);
  EXPECT_EQ(got.orig_of_reduced, ref.orig_of_reduced);
  EXPECT_EQ(got.reduced_of_orig, ref.reduced_of_orig);
  ASSERT_EQ(got.steps.size(), ref.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    const EliminationStep& a = got.steps[i];
    const EliminationStep& b = ref.steps[i];
    ASSERT_TRUE(a.v == b.v && a.degree == b.degree && a.u1 == b.u1 &&
                a.u2 == b.u2 && same_bits(a.w1, b.w1) &&
                same_bits(a.w2, b.w2) && same_bits(a.pivot, b.pivot))
        << "step " << i;
  }
  ASSERT_EQ(got.reduced_edges.size(), ref.reduced_edges.size());
  for (std::size_t i = 0; i < got.reduced_edges.size(); ++i) {
    const Edge& a = got.reduced_edges[i];
    const Edge& b = ref.reduced_edges[i];
    ASSERT_TRUE(a.u == b.u && a.v == b.v && same_bits(a.w, b.w))
        << "reduced edge " << i;
  }
}

// A seeded random multigraph on n vertices: a random tree on a prefix of a
// random labeling (the rest start isolated), extra random edges, duplicates
// of existing edges, sometimes a hub adjacent to 30% of the vertices, and
// pendant cycles of length 2-4 whose splicing leaves a vertex with two arcs
// to one neighbor (a u1 = u2 fill).  Edge order and orientation are shuffled;
// weights are log-uniform over 1e4 with some ties.
EdgeList random_multigraph(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t draw = 0;
  auto below = [&](std::uint64_t bound) { return rng.below(draw++, bound); };
  auto weight = [&] {
    return below(4) == 0 ? 1.0 : std::pow(1e4, rng.uniform(draw++));
  };
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t v = 0; v < n; ++v) label[v] = v;
  for (std::uint32_t v = n; v-- > 1;) {
    std::swap(label[v], label[below(v + 1)]);
  }
  EdgeList e;
  std::uint32_t tree_n = n - static_cast<std::uint32_t>(below(n / 8 + 1));
  std::uint32_t cycle_n = std::min<std::uint32_t>(
      tree_n / 2, static_cast<std::uint32_t>(below(n / 4 + 1)));
  std::uint32_t core_n = tree_n - cycle_n;
  for (std::uint32_t v = 1; v < core_n; ++v) {
    e.push_back(Edge{label[v], label[below(v)], weight()});
  }
  // Pendant cycles through one core vertex, made of the next cycle_n labels.
  for (std::uint32_t v = core_n; v < tree_n && core_n > 0;) {
    std::uint32_t len = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(1 + below(3)), tree_n - v);
    std::uint32_t anchor = label[below(core_n)];
    std::uint32_t prev = anchor;
    for (std::uint32_t j = 0; j < len; ++j, ++v) {
      e.push_back(Edge{prev, label[v], weight()});
      prev = label[v];
    }
    e.push_back(Edge{prev, anchor, weight()});
  }
  if (core_n >= 2) {
    std::size_t extra = below(core_n / 2 + 1);
    for (std::size_t i = 0; i < extra; ++i) {
      std::uint32_t a = label[below(core_n)], b = label[below(core_n)];
      if (a != b) e.push_back(Edge{a, b, weight()});
    }
  }
  std::size_t dups = e.empty() ? 0 : below(e.size() / 4 + 1);
  for (std::size_t i = 0; i < dups; ++i) {
    Edge d = e[below(e.size())];
    if (below(2)) d.w = weight();
    e.push_back(d);
  }
  if (core_n >= 8 && below(3) == 0) {
    std::uint32_t hub = label[below(core_n)];
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v != hub && below(10) < 3) e.push_back(Edge{hub, v, weight()});
    }
  }
  for (std::size_t i = e.size(); i-- > 1;) {
    std::swap(e[i], e[below(i + 1)]);
  }
  for (Edge& x : e) {
    if (below(2)) std::swap(x.u, x.v);
  }
  return e;
}

TEST(GreedyEliminationReference, RandomMultigraphsMatchBitwise) {
  for (std::uint64_t s = 0; s < 240; ++s) {
    Rng pick(1000 + s);
    // Mostly small graphs; every 40th large enough that selection runs on
    // the pool when the pool is forced.
    std::uint32_t n = static_cast<std::uint32_t>(
        s % 40 == 39 ? 5000 + pick.below(0, 2000) : 1 + pick.below(0, 300));
    SCOPED_TRACE(::testing::Message() << "graph seed " << s << ", n " << n);
    EdgeList e = random_multigraph(n, 1000 + s);
    expect_matches_reference(n, e, s + 1);
  }
}

TEST(GreedyEliminationReference, MeshAndItsTreeMatchBitwise) {
  GeneratedGraph g = grid2d(64, 64);
  randomize_weights_log_uniform(g.edges, 100.0, 11);
  expect_matches_reference(g.n, g.edges, 3);
  EdgeList tree;
  for (std::uint32_t i : mst_kruskal(g.n, g.edges)) tree.push_back(g.edges[i]);
  expect_matches_reference(g.n, tree, 3);
}

TEST(GreedyEliminationReference, ChainLevelsMatchBitwise) {
  // The inputs the solver actually eliminates: each level's sparsifier.
  GeneratedGraph g = grid2d(64, 64);
  randomize_weights_log_uniform(g.edges, 100.0, 12);
  ChainOptions opts;
  SolverChain chain = build_chain(g.n, g.edges, opts);
  for (std::size_t level = 0; level < chain.levels.size(); ++level) {
    const ChainLevel& lvl = chain.levels[level];
    if (!lvl.has_preconditioner) continue;
    SCOPED_TRACE(::testing::Message() << "level " << level);
    expect_matches_reference(lvl.n, lvl.b_edges,
                             opts.seed + 0x9e3779b9ull * (level + 1));
  }
}

}  // namespace
}  // namespace parsdd
