#include "solver/greedy_elimination.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "parallel/primitives.h"
#include "parallel/rng.h"
#include "util/serialize.h"

namespace parsdd {

namespace {
constexpr std::uint32_t kGone = std::numeric_limits<std::uint32_t>::max();
}

GreedyEliminationResult greedy_eliminate(std::uint32_t n,
                                         const EdgeList& edges,
                                         std::uint64_t seed) {
  static GranularitySite select_site("solver.eliminate.select");
  GreedyEliminationResult out;
  out.steps.reserve(n);

  // Mutable multigraph adjacency in one flat arc array.  Vertex v owns the
  // slice [begin[v], begin[v+1]), twice its input degree, used from the
  // front up to top[v]: input arcs in edge-id order, then fill arcs in
  // append order.  Arcs to eliminated vertices go stale in place; compact()
  // drops them and keeps the live ones in order.  A slice is compacted when
  // its vertex is eliminated or read out, and when an append finds it full.
  // Degrees never rise, so a compacted slice is at most half full and
  // appends are amortized O(1), even at hubs that collect many fills.
  struct Arc {
    std::uint32_t other;
    double w;
  };
  std::vector<std::uint32_t> deg(n, 0);  // live incident edge count
  for (const Edge& e : edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  std::vector<std::size_t> begin(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) begin[v + 1] = begin[v] + 2 * deg[v];
  std::vector<std::size_t> top(begin.begin(), begin.end() - 1);
  std::vector<Arc> arcs(begin[n]);
  for (const Edge& e : edges) {
    arcs[top[e.u]++] = Arc{e.v, e.w};
    arcs[top[e.v]++] = Arc{e.u, e.w};
  }
  std::vector<std::uint8_t> eliminated(n, 0);

  // Returns the number of live arcs left in v's slice.
  auto compact = [&](std::uint32_t v) {
    std::size_t w = begin[v];
    for (std::size_t i = begin[v]; i < top[v]; ++i) {
      if (!eliminated[arcs[i].other]) arcs[w++] = arcs[i];
    }
    top[v] = w;
    return w - begin[v];
  };
  auto append = [&](std::uint32_t v, Arc a) {
    if (top[v] == begin[v + 1]) compact(v);
    arcs[top[v]++] = a;
  };

  // Candidates are the live vertices of degree <= 2, in increasing order.
  // Each round's list is the previous round's unselected candidates merged
  // with the vertices whose degree dropped to <= 2 in it; degrees never
  // rise, so no other vertex can join.  `prio` and `selected` are written
  // only at candidates.
  std::vector<std::uint32_t> cand, unselected, dropped, next;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (deg[v] <= 2) cand.push_back(v);
  }
  std::vector<std::uint64_t> prio(n);
  std::vector<std::uint8_t> selected(n);
  auto lose = [&](std::uint32_t u, std::uint32_t k) {
    if (deg[u] > 2 && deg[u] - k <= 2) dropped.push_back(u);
    deg[u] -= k;
  };
  Rng rng(seed);
  while (!cand.empty()) {
    Rng round_rng = rng.child(out.rounds++);

    // Random priorities; a candidate is selected iff it beats every
    // candidate neighbor (independent set of local maxima).  Selection
    // reads the degrees as they were at the start of the round.
    parallel_for(select_site, 0, cand.size(), [&](std::size_t i) {
      // Mix the vertex id so priorities are distinct.
      prio[cand[i]] = (round_rng.u64(cand[i]) << 20) | cand[i];
    });
    parallel_for(select_site, 0, cand.size(), [&](std::size_t i) {
      std::uint32_t v = cand[i];
      bool best = true;
      for (std::size_t a = begin[v]; a < top[v]; ++a) {
        std::uint32_t u = arcs[a].other;
        if (eliminated[u]) continue;
        if (deg[u] <= 2 && prio[u] > prio[v]) {
          best = false;
          break;
        }
      }
      selected[v] = best ? 1 : 0;
    });

    // Apply the independent set sequentially in increasing v (the updates
    // are O(1) each; the parallel work above is the selection, matching the
    // rake/compress rounds of [MR89]).
    unselected.clear();
    dropped.clear();
    for (std::uint32_t v : cand) {
      if (!selected[v]) {
        unselected.push_back(v);
        continue;
      }
      [[maybe_unused]] std::size_t live = compact(v);
      assert(live == deg[v]);
      const Arc* a = arcs.data() + begin[v];
      EliminationStep step;
      step.v = v;
      step.degree = deg[v];
      if (deg[v] >= 1) {
        step.u1 = a[0].other;
        step.w1 = a[0].w;
      }
      if (deg[v] == 2) {
        step.u2 = a[1].other;
        step.w2 = a[1].w;
      }
      step.pivot = step.w1 + step.w2;
      eliminated[v] = 1;
      if (step.degree == 1) {
        lose(step.u1, 1);
      } else if (step.degree == 2) {
        if (step.u1 == step.u2) {
          // Parallel edges to the same neighbor: the fill is a self-loop,
          // which vanishes from the Laplacian.
          lose(step.u1, 2);
        } else {
          double fill = step.w1 * step.w2 / step.pivot;
          append(step.u1, Arc{step.u2, fill});
          append(step.u2, Arc{step.u1, fill});
          // u1/u2 each lose the edge to v and gain the fill: deg unchanged.
        }
      }
      out.steps.push_back(step);
    }
    std::sort(dropped.begin(), dropped.end());
    next.resize(unselected.size() + dropped.size());
    std::merge(unselected.begin(), unselected.end(), dropped.begin(),
               dropped.end(), next.begin());
    cand.swap(next);
  }

  // Assemble the reduced graph.
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
    [[maybe_unused]] std::size_t live = compact(v);
    assert(live == deg[v]);
    for (std::size_t i = begin[v]; i < top[v]; ++i) {
      std::uint32_t u = arcs[i].other;
      if (u >= v) continue;  // emit each edge once (u < v side)
      out.reduced_edges.push_back(
          Edge{out.reduced_of_orig[u], out.reduced_of_orig[v], arcs[i].w});
    }
  }
  // Merge parallel edges in the reduced graph (Laplacian-equivalent and
  // keeps later levels lean).
  out.reduced_edges = combine_parallel_edges(out.reduced_edges);
  return out;
}

void GreedyEliminationResult::fold_rhs_block(const MultiVec& b,
                                             MultiVec& folded,
                                             MultiVec& reduced_rhs) const {
  std::size_t k = b.cols();
  ensure_shape(folded, b.rows(), k);
  kernels::copy_cols(b, folded);
  kernels::fold_steps(steps.data(), steps.size(), folded);
  ensure_shape(reduced_rhs, reduced_n, k);
  kernels::gather_rows(folded, orig_of_reduced.data(), reduced_rhs);
}

void GreedyEliminationResult::back_substitute_block(const MultiVec& folded_b,
                                                    const MultiVec& x_reduced,
                                                    MultiVec& x) const {
  std::size_t k = folded_b.cols();
  x.assign(folded_b.rows(), k, 0.0);
  kernels::scatter_rows(x_reduced, orig_of_reduced.data(), x);
  kernels::backsub_steps(steps.data(), steps.size(), folded_b, x);
}

// A step's four ids and its three weights are each contiguous in the
// struct, in the order the snapshot's two spans list them, so a step is
// written and read as two byte runs.
static_assert(offsetof(EliminationStep, v) == 0 &&
              offsetof(EliminationStep, u2) == 12 &&
              offsetof(EliminationStep, w1) == 16 &&
              offsetof(EliminationStep, pivot) == 32);

void GreedyEliminationResult::save(serialize::Writer& w) const {
  // The two pod spans {v, degree, u1, u2}* and {w1, w2, pivot}*.
  w.varint(4 * steps.size());
  for (const EliminationStep& s : steps) w.bytes(&s, 16);
  w.varint(3 * steps.size());
  for (const EliminationStep& s : steps) w.bytes(&s.w1, 24);
  w.u32(rounds);
  w.u32(reduced_n);
  save_edges(w, reduced_edges);
  w.pod_vec(orig_of_reduced);
  w.pod_vec(reduced_of_orig);
}

GreedyEliminationResult GreedyEliminationResult::load(serialize::Reader& r,
                                                      std::uint32_t n) {
  GreedyEliminationResult e;
  serialize::Reader::PodView<std::uint32_t> ids = r.pod_view<std::uint32_t>();
  serialize::Reader::PodView<double> weights = r.pod_view<double>();
  if (r.status().ok() &&
      (ids.size % 4 != 0 || weights.size != ids.size / 4 * 3)) {
    r.fail("elimination step arrays disagree on length");
  }
  if (r.status().ok()) {
    e.steps.resize(ids.size / 4);
    for (std::size_t i = 0; i < e.steps.size(); ++i) {
      auto* step = reinterpret_cast<unsigned char*>(&e.steps[i]);
      std::memcpy(step, ids.bytes + 16 * i, 16);
      std::memcpy(step + 16, weights.bytes + 24 * i, 24);
    }
  }
  e.rounds = r.u32();
  e.reduced_n = r.u32();
  e.reduced_edges = load_edges(r);
  e.orig_of_reduced = r.pod_vec<std::uint32_t>();
  e.reduced_of_orig = r.pod_vec<std::uint32_t>();
  if (!r.status().ok()) return e;
  // A chain's bottom level carries a default-constructed result (the build
  // never eliminates there); it round-trips as all-empty.
  if (e.steps.empty() && e.rounds == 0 && e.reduced_n == 0 &&
      e.reduced_edges.empty() && e.orig_of_reduced.empty() &&
      e.reduced_of_orig.empty()) {
    return e;
  }
  // Every stored index feeds unchecked array accesses in fold_rhs_block /
  // back_substitute_block; validate all of them against the caller's n
  // before the result can reach a solve.
  bool ok = e.reduced_n <= n && e.orig_of_reduced.size() == e.reduced_n &&
            e.reduced_of_orig.size() == n;
  for (std::size_t i = 0; ok && i < e.steps.size(); ++i) {
    const EliminationStep& s = e.steps[i];
    ok = s.v < n && s.degree <= 2 && (s.degree < 1 || s.u1 < n) &&
         (s.degree < 2 || s.u2 < n);
  }
  for (std::size_t i = 0; ok && i < e.reduced_edges.size(); ++i) {
    ok = e.reduced_edges[i].u < e.reduced_n && e.reduced_edges[i].v < e.reduced_n;
  }
  for (std::size_t i = 0; ok && i < e.orig_of_reduced.size(); ++i) {
    ok = e.orig_of_reduced[i] < n;
  }
  for (std::size_t i = 0; ok && i < e.reduced_of_orig.size(); ++i) {
    ok = e.reduced_of_orig[i] < e.reduced_n || e.reduced_of_orig[i] == kGone;
  }
  if (!ok) r.fail("elimination schedule indexes out of bounds");
  return e;
}

}  // namespace parsdd
