#include "solver/chain.h"

#include <cmath>
#include <stdexcept>

#include "linalg/laplacian.h"
#include "util/serialize.h"

namespace parsdd {

std::size_t SolverChain::total_edges() const {
  std::size_t total = 0;
  for (const ChainLevel& l : levels) total += l.edges.size();
  return total;
}

SolverChain build_chain(std::uint32_t n, const EdgeList& edges,
                        const ChainOptions& opts) {
  SolverChain chain;
  std::uint32_t bottom_size = opts.bottom_size;
  if (bottom_size == 0) {
    bottom_size = std::max<std::uint32_t>(
        24, static_cast<std::uint32_t>(
                std::ceil(std::cbrt(static_cast<double>(edges.size()) + 1))));
  }

  std::uint32_t cur_n = n;
  EdgeList cur_edges = edges;
  double kappa = opts.kappa;

  for (std::uint32_t level = 0;; ++level) {
    ChainLevel lvl;
    lvl.n = cur_n;
    lvl.edges = cur_edges;
    lvl.laplacian = laplacian_from_edges(cur_n, cur_edges);

    const bool is_bottom =
        cur_n <= bottom_size || level + 1 >= opts.max_levels;
    if (is_bottom) {
      chain.levels.push_back(std::move(lvl));
      break;
    }

    SparsifyOptions sopts;
    sopts.seed = opts.seed + 0x51ed2701ull * (level + 1);
    sopts.oversample = opts.oversample;
    sopts.p_floor = opts.p_floor;
    sopts.subgraph_scale = opts.subgraph_scale;
    // Resolve κ for this level.  Automatic mode mirrors Lemma 6.2's
    // S·log n / κ edge-budget relation: aim for ~m/8 sampled edges.
    double m = static_cast<double>(cur_edges.size());
    double ln_n = std::log(std::max<double>(cur_n, 2.0));
    SparsifyTree tree = max_conductance_tree(cur_n, cur_edges);
    double avg_stretch = tree.stretch.total / std::max(1.0, m);
    double level_kappa = kappa;
    if (opts.mode == ChainMode::kUltrasparse) {
      // B = Ĝ exactly: suppress sampling by sending κ to infinity.
      sopts.kappa = 1e300;
      sopts.p_floor = 0.0;
      level_kappa = avg_stretch * m;  // nominal bound: total stretch
    } else {
      // A provisional κ, replaced by the informed value if it badly missed
      // the m/8 budget.
      if (level_kappa <= 0.0) level_kappa = 8.0 * ln_n;
      if (opts.kappa <= 0.0) {
        double informed = 8.0 * opts.oversample * avg_stretch * ln_n;
        if (informed > 2.0 * level_kappa) level_kappa = informed;
      }
      sopts.kappa = level_kappa;
    }
    SparsifyResult sp = incremental_sparsify(cur_n, cur_edges, tree, sopts);
    lvl.kappa = level_kappa;
    lvl.avg_stretch = avg_stretch;
    lvl.has_preconditioner = true;
    lvl.b_edges = std::move(sp.h_edges);

    lvl.elimination = greedy_eliminate(
        cur_n, lvl.b_edges, opts.seed + 0x9e3779b9ull * (level + 1));

    std::uint32_t next_n = lvl.elimination.reduced_n;
    EdgeList next_edges = lvl.elimination.reduced_edges;
    chain.levels.push_back(std::move(lvl));

    if (next_n >= cur_n && next_edges.size() >= cur_edges.size()) {
      // No progress (pathological sampling); sparsify harder next level.
      kappa = (kappa <= 0.0 ? 16.0 * ln_n : kappa * 2.0);
    } else {
      if (kappa > 0.0) kappa *= opts.kappa_growth;
    }
    cur_n = next_n;
    cur_edges = std::move(next_edges);
    if (cur_n == 0) break;  // fully eliminated (input was tree-like)
  }

  const ChainLevel& last = chain.levels.back();
  if (!last.has_preconditioner && last.n >= 2 && !last.edges.empty()) {
    chain.bottom = DenseLdlt::factor_laplacian(last.laplacian);
  }
  return chain;
}

void save_chain(serialize::Writer& w, const SolverChain& chain) {
  w.varint(chain.levels.size());
  for (const ChainLevel& lvl : chain.levels) {
    w.u32(lvl.n);
    save_edges(w, lvl.edges);
    lvl.laplacian.save(w);
    w.boolean(lvl.has_preconditioner);
    save_edges(w, lvl.b_edges);
    lvl.elimination.save(w);
    w.f64(lvl.kappa);
    w.f64(lvl.avg_stretch);
  }
  w.boolean(chain.bottom.has_value());
  if (chain.bottom) chain.bottom->save(w);
}

namespace {

bool edges_in_bounds(const EdgeList& edges, std::uint32_t n) {
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n) return false;
  }
  return true;
}

}  // namespace

SolverChain load_chain(serialize::Reader& r) {
  SolverChain chain;
  std::uint64_t depth = r.varint();
  for (std::uint64_t i = 0; i < depth && r.status().ok(); ++i) {
    ChainLevel lvl;
    lvl.n = r.u32();
    lvl.edges = load_edges(r);
    lvl.laplacian = CsrMatrix::load(r);
    lvl.has_preconditioner = r.boolean();
    lvl.b_edges = load_edges(r);
    lvl.elimination = GreedyEliminationResult::load(r, lvl.n);
    lvl.kappa = r.f64();
    lvl.avg_stretch = r.f64();
    if (!r.status().ok()) break;
    // The solve path trusts these invariants without rechecking: the
    // level's Laplacian multiplies lvl.n-sized vectors, and each level's
    // input is the previous elimination's reduced graph.
    if (!edges_in_bounds(lvl.edges, lvl.n) ||
        !edges_in_bounds(lvl.b_edges, lvl.n) ||
        lvl.laplacian.dimension() != lvl.n) {
      r.fail("chain level " + std::to_string(i) +
             " indexes out of bounds for its vertex count");
      break;
    }
    if (!chain.levels.empty() &&
        chain.levels.back().elimination.reduced_n != lvl.n) {
      r.fail("chain level " + std::to_string(i) +
             " does not continue the previous elimination");
      break;
    }
    chain.levels.push_back(std::move(lvl));
  }
  if (r.status().ok() && !chain.levels.empty()) {
    // The recursion descends exactly while has_preconditioner holds, so
    // every level but the last must recurse, and a preconditioned last
    // level is legal only when its elimination emptied the graph (the
    // tree-like case) — anything else would step past the level array.
    for (std::size_t i = 0; i + 1 < chain.levels.size(); ++i) {
      if (!chain.levels[i].has_preconditioner) {
        r.fail("chain level " + std::to_string(i) +
               " is a non-terminal bottom level");
      }
    }
    const ChainLevel& last = chain.levels.back();
    if (last.has_preconditioner && last.elimination.reduced_n != 0) {
      r.fail("last chain level recurses past the end of the chain");
    }
  }
  if (r.boolean()) chain.bottom = DenseLdlt::load(r);
  if (r.status().ok() && chain.bottom && !chain.levels.empty() &&
      chain.bottom->dimension() != chain.levels.back().n) {
    r.fail("bottom factor dimension disagrees with the last chain level");
  }
  return chain;
}

}  // namespace parsdd
