#include "solver/solver_setup.h"
#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "graph/connectivity.h"
#include "linalg/cg.h"
#include "linalg/jacobi.h"
#include "linalg/laplacian.h"
#include "parallel/granularity.h"
#include "parallel/primitives.h"
#include "util/serialize.h"

namespace parsdd {

namespace {

// One connected component's RHS-independent state.  chain/recursive are
// shared_ptrs because update() shares untouched components — and, on the
// stale-chain tier, the chain itself — between the old and new setups;
// both are immutable after construction, so sharing is concurrency-safe.
struct ComponentSetup {
  std::vector<std::uint32_t> vertices;  // original ids, in local order
  /// The component's edges and assembled Laplacian; never null.  While the
  /// chain is current they point into its level 0, which holds these same
  /// edges and matrix, so a setup keeps one copy; a stale or absent chain
  /// leaves the component its own.
  std::shared_ptr<const EdgeList> local_edges;
  std::shared_ptr<const CsrMatrix> laplacian;
  std::shared_ptr<const SolverChain> chain;
  std::shared_ptr<RecursiveSolver> recursive;
  /// The chain was built for earlier weights than `laplacian` (stale-chain
  /// update tier): the solve keeps preconditioning with it while the outer
  /// CG measures residuals against the current laplacian.
  bool chain_stale = false;
};

// Points the component's edges and Laplacian at its chain's level 0.
void share_level0(ComponentSetup& cs) {
  const ChainLevel& top = cs.chain->levels.front();
  cs.local_edges = std::shared_ptr<const EdgeList>(cs.chain, &top.edges);
  cs.laplacian = std::shared_ptr<const CsrMatrix>(cs.chain, &top.laplacian);
}

// Builds a component's solver state from its local edges: the outer
// Laplacian and, for the chain methods, a fresh chain and its recursive
// solver.  Chain level 0 holds these same edges and their Laplacian, so the
// outer operator is that matrix rather than a second assembly or a copy.
void build_component(ComponentSetup& cs, const SddSolverOptions& opts) {
  std::uint32_t cn = static_cast<std::uint32_t>(cs.vertices.size());
  cs.chain.reset();
  cs.recursive.reset();
  cs.chain_stale = false;
  if (opts.method == SolveMethod::kChainPcg ||
      opts.method == SolveMethod::kChainRpch) {
    cs.chain = std::make_shared<const SolverChain>(
        build_chain(cn, *cs.local_edges, opts.chain));
    cs.recursive = std::make_shared<RecursiveSolver>(*cs.chain, opts.recursion);
    share_level0(cs);
  } else {
    cs.laplacian = std::make_shared<const CsrMatrix>(
        laplacian_from_edges(cn, *cs.local_edges));
  }
}

}  // namespace

struct SolverSetup::Impl {
  SddSolverOptions opts;
  std::uint32_t n = 0;  // size of the (possibly lifted) Laplacian system
  std::vector<ComponentSetup> components;
  // Gremban state (only for non-Laplacian SDD inputs).
  std::optional<GrembanReduction> gremban;
  /// Deltas absorbed via update() since the original build.
  std::uint64_t update_seq = 0;
  /// Residual-quality monitor (SetupQuality): worst outer iteration count
  /// of the first recorded solve (the fresh-chain baseline) and of the most
  /// recent one.  Relaxed atomics — the monitor is a heuristic signal, and
  /// solves are const/concurrent.
  mutable std::atomic<std::uint32_t> baseline_iters{0};
  mutable std::atomic<std::uint32_t> last_iters{0};

  void build(std::uint32_t num_vertices, const EdgeList& edges);
  MultiVec solve_batch_laplacian(const MultiVec& b,
                                 BatchSolveReport* report) const;
  void record_quality(std::uint32_t worst_iters) const {
    last_iters.store(worst_iters, std::memory_order_relaxed);
    std::uint32_t expected = 0;
    baseline_iters.compare_exchange_strong(expected, worst_iters,
                                           std::memory_order_relaxed);
  }
  /// Reassembles the global edge list (original vertex ids) from the
  /// per-component local lists; the input to full rebuilds.
  EdgeList assemble_global_edges() const {
    EdgeList out;
    std::size_t total = 0;
    for (const ComponentSetup& cs : components) total += cs.local_edges->size();
    out.reserve(total);
    for (const ComponentSetup& cs : components) {
      for (const Edge& e : *cs.local_edges) {
        out.push_back(Edge{cs.vertices[e.u], cs.vertices[e.v], e.w});
      }
    }
    return out;
  }
};

void SolverSetup::Impl::build(std::uint32_t num_vertices,
                              const EdgeList& edges) {
  n = num_vertices;
  Components comps = connected_components(n, edges);
  components.resize(comps.count);
  if (comps.count == 1) {
    // Connected input (the common case): the local numbering is the
    // identity, so membership and relabeling collapse to parallel copies.
    components[0].vertices = tabulate<std::uint32_t>(
        n, [](std::size_t v) { return static_cast<std::uint32_t>(v); });
    components[0].local_edges = std::make_shared<const EdgeList>(edges);
  } else {
    std::vector<std::vector<std::uint32_t>> members(comps.count);
    for (std::uint32_t v = 0; v < n; ++v) {
      members[comps.label[v]].push_back(v);
    }
    // Local index of each vertex inside its component.
    std::vector<std::uint32_t> local(n);
    for (auto& m : members) {
      for (std::size_t i = 0; i < m.size(); ++i) {
        local[m[i]] = static_cast<std::uint32_t>(i);
      }
    }
    std::vector<EdgeList> local_edges(comps.count);
    for (const Edge& e : edges) {
      std::uint32_t c = comps.label[e.u];
      local_edges[c].push_back(Edge{local[e.u], local[e.v], e.w});
    }
    for (std::uint32_t c = 0; c < comps.count; ++c) {
      components[c].vertices = std::move(members[c]);
      components[c].local_edges =
          std::make_shared<const EdgeList>(std::move(local_edges[c]));
    }
  }
  for (auto& cs : components) {
    if (cs.vertices.size() >= 2) {
      build_component(cs, opts);
    } else {  // isolated vertex: solution 0
      cs.laplacian = std::make_shared<const CsrMatrix>();
    }
  }
}

MultiVec SolverSetup::Impl::solve_batch_laplacian(
    const MultiVec& b, BatchSolveReport* report) const {
  // Shape is validated by SolverSetup::solve_batch before any Gremban lift;
  // by the time we are here b is n x k with k >= 1.
  std::size_t k = b.cols();
  MultiVec x(n, k, 0.0);
  if (report) {
    *report = BatchSolveReport{};
    report->column_stats.assign(k, IterStats{});
    report->components = static_cast<std::uint32_t>(components.size());
  }
  std::uint32_t worst_iters = 0;  // quality-monitor sample for this solve
  bool first_component = true;
  for (const ComponentSetup& cs : components) {
    std::uint32_t cn = static_cast<std::uint32_t>(cs.vertices.size());
    if (cn < 2) continue;
    MultiVec cb(cn, k);
    kernels::gather_rows(b, cs.vertices.data(), cb);
    kernels::project_out_constant_cols(cb);  // consistency for the singular Laplacian
    MultiVec cx(cn, k, 0.0);
    std::vector<IterStats> st;
    std::uint64_t visits_before =
        cs.recursive ? cs.recursive->bottom_visits() : 0;
    switch (opts.method) {
      // Both chain drivers take cs.laplacian as the outer operator.  For a
      // freshly built chain it is a copy of the chain's level-0 matrix
      // (build_component), so the outer and level-0 arithmetic agree bit
      // for bit; after a stale-chain update it is the *current* Laplacian,
      // so convergence is always measured against the updated system.
      case SolveMethod::kChainPcg: {
        RecursiveSolver::Workspace ws = cs.recursive->make_workspace();
        st = cs.recursive->solve_batch(cb, cx, opts.tolerance,
                                       opts.max_iterations, ws,
                                       cs.laplacian.get());
        break;
      }
      case SolveMethod::kChainRpch: {
        RecursiveSolver::Workspace ws = cs.recursive->make_workspace();
        st = cs.recursive->solve_rpch_batch(cb, cx, opts.tolerance,
                                            opts.max_iterations, ws,
                                            cs.laplacian.get());
        break;
      }
      case SolveMethod::kCg: {
        BlockLinOp a_op = [&cs](const MultiVec& in, MultiVec& out) {
          ensure_shape(out, in.rows(), in.cols());
          cs.laplacian->multiply(in, out);
        };
        CgOptions copts;
        copts.tolerance = opts.tolerance;
        copts.max_iterations = opts.max_iterations;
        copts.project_constant = true;
        st = block_conjugate_gradient(a_op, cb, cx, copts);
        break;
      }
      case SolveMethod::kJacobiPcg: {
        BlockLinOp a_op = [&cs](const MultiVec& in, MultiVec& out) {
          ensure_shape(out, in.rows(), in.cols());
          cs.laplacian->multiply(in, out);
        };
        BlockLinOp pre = jacobi_preconditioner_block(*cs.laplacian);
        CgOptions copts;
        copts.tolerance = opts.tolerance;
        copts.max_iterations = opts.max_iterations;
        copts.project_constant = true;
        st = block_conjugate_gradient(a_op, cb, cx, copts, &pre);
        break;
      }
    }
    kernels::project_out_constant_cols(cx);
    kernels::scatter_rows(cx, cs.vertices.data(), x);
    for (const IterStats& cst : st) {
      worst_iters = std::max(worst_iters, cst.iterations);
    }
    if (report) {
      // A column converged only if it converged in every component.
      for (std::size_t c = 0; c < k; ++c) {
        report->column_stats[c] =
            first_component ? st[c]
                            : merge_worst(report->column_stats[c], st[c]);
      }
      if (cs.chain) {
        report->chain_levels =
            std::max(report->chain_levels, cs.chain->depth());
        report->chain_edges += cs.chain->total_edges();
      }
      if (cs.recursive) {
        report->bottom_visits += cs.recursive->bottom_visits() - visits_before;
      }
    }
    first_component = false;
  }
  record_quality(worst_iters);
  return x;
}

SolverSetup::SolverSetup() : impl_(std::make_unique<Impl>()) {}
SolverSetup::SolverSetup(SolverSetup&&) noexcept = default;
SolverSetup& SolverSetup::operator=(SolverSetup&&) noexcept = default;
SolverSetup::~SolverSetup() = default;

SolverSetup SolverSetup::for_laplacian(std::uint32_t n, const EdgeList& edges,
                                       const SddSolverOptions& opts) {
  SolverSetup s;
  s.impl_->opts = opts;
  s.impl_->build(n, edges);
  return s;
}

SolverSetup SolverSetup::for_sdd(const CsrMatrix& a,
                                 const SddSolverOptions& opts) {
  GrembanReduction red = gremban_reduce(a);
  SolverSetup s;
  s.impl_->opts = opts;
  if (red.was_laplacian) {
    s.impl_->build(a.dimension(), edges_from_laplacian(a));
  } else {
    s.impl_->gremban = std::move(red);
    s.impl_->build(2 * a.dimension(), s.impl_->gremban->edges);
  }
  return s;
}

std::uint32_t SolverSetup::dimension() const {
  return impl_->gremban && !impl_->gremban->was_laplacian ? impl_->gremban->n
                                                          : impl_->n;
}

std::uint32_t SolverSetup::num_components() const {
  return static_cast<std::uint32_t>(impl_->components.size());
}

std::uint32_t SolverSetup::chain_levels() const {
  std::uint32_t levels = 0;
  for (const ComponentSetup& cs : impl_->components) {
    if (cs.chain) levels = std::max(levels, cs.chain->depth());
  }
  return levels;
}

std::size_t SolverSetup::chain_edges() const {
  std::size_t edges = 0;
  for (const ComponentSetup& cs : impl_->components) {
    if (cs.chain) edges += cs.chain->total_edges();
  }
  return edges;
}

StatusOr<MultiVec> SolverSetup::solve_batch(const MultiVec& b,
                                            BatchSolveReport* report) const {
  if (b.cols() == 0) {
    return InvalidArgumentError("SolverSetup::solve_batch: empty batch (k=0)");
  }
  // Validate against the ORIGINAL dimension before any Gremban lift: the
  // lifted block is always 2n rows, so a downstream check could not catch a
  // wrong-sized input.
  if (b.rows() != dimension()) {
    return InvalidArgumentError(
        "SolverSetup::solve_batch: dimension mismatch (got " +
        std::to_string(b.rows()) + " rows, setup has dimension " +
        std::to_string(dimension()) + ")");
  }
  if (!all_finite(b.data())) {
    return InvalidArgumentError(
        "SolverSetup::solve_batch: right-hand side has a NaN or infinite "
        "entry");
  }
  if (!impl_->gremban) {
    return impl_->solve_batch_laplacian(b, report);
  }
  MultiVec lifted = impl_->gremban->lift_rhs_block(b);
  MultiVec y = impl_->solve_batch_laplacian(lifted, report);
  return impl_->gremban->project_solution_block(y);
}

namespace {

// ---- dynamic updates (ROADMAP item 4) ----

// Canonical undirected key for an edge.
inline std::pair<std::uint32_t, std::uint32_t> edge_key(std::uint32_t u,
                                                        std::uint32_t v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

// The classified delta batch: the tier, plus per-component local delta
// streams (order preserved; local vertex ids) for the non-full-rebuild
// tiers.  `structural[c]` marks components whose chain must rebuild.
struct DeltaPlan {
  UpdateTier tier = UpdateTier::kStaleChain;
  std::vector<std::vector<EdgeDelta>> local;
  std::vector<std::uint8_t> structural;
};

// Validates and classifies a delta stream against the current component
// partition.  Sequential semantics: each delta sees the effect of the ones
// before it (tracked in live per-component edge sets), so a batch may
// insert an edge and then re-weight or remove it.
StatusOr<DeltaPlan> classify_deltas(std::uint32_t n,
                                    const std::vector<ComponentSetup>& comps,
                                    const std::vector<EdgeDelta>& deltas) {
  DeltaPlan plan;
  std::size_t nc = comps.size();
  plan.local.resize(nc);
  plan.structural.assign(nc, 0);
  std::vector<std::uint32_t> comp_of(n, 0), local_of(n, 0);
  for (std::size_t c = 0; c < nc; ++c) {
    const auto& verts = comps[c].vertices;
    for (std::size_t i = 0; i < verts.size(); ++i) {
      comp_of[verts[i]] = static_cast<std::uint32_t>(c);
      local_of[verts[i]] = static_cast<std::uint32_t>(i);
    }
  }
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  // Live per-component edge sets (local ids), built lazily for touched
  // components only; bridging insertions tracked separately (global ids).
  std::vector<std::map<Key, std::size_t>> live(nc);
  std::vector<std::uint8_t> live_built(nc, 0);
  std::map<Key, std::size_t> bridged;
  auto ensure_live = [&](std::size_t c) {
    if (live_built[c]) return;
    live_built[c] = 1;
    for (const Edge& e : *comps[c].local_edges) ++live[c][edge_key(e.u, e.v)];
  };
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const EdgeDelta& d = deltas[i];
    const std::string at = " (delta " + std::to_string(i) + ")";
    if (d.u >= n || d.v >= n) {
      return InvalidArgumentError(
          "update: edge endpoint out of range" + at);
    }
    if (d.u == d.v) {
      return InvalidArgumentError(
          "update: self loop at vertex " + std::to_string(d.u) + at);
    }
    if (!std::isfinite(d.w) || d.w < 0.0) {
      return InvalidArgumentError(
          "update: weight must be finite and >= 0" + at);
    }
    std::uint32_t cu = comp_of[d.u], cv = comp_of[d.v];
    if (cu != cv) {
      // The endpoints live in different components: an insertion bridges
      // them (the partition changes — full rebuild); a removal can only
      // target an earlier bridging insertion from this same batch.
      Key gkey = edge_key(d.u, d.v);
      bool exists = bridged.find(gkey) != bridged.end();
      if (d.w == 0.0) {
        if (!exists) {
          return InvalidArgumentError(
              "update: removing nonexistent edge {" + std::to_string(d.u) +
              "," + std::to_string(d.v) + "}" + at);
        }
        bridged.erase(gkey);
      } else if (!exists) {
        bridged.emplace(gkey, 1);
      }
      plan.tier = UpdateTier::kFullRebuild;
      continue;
    }
    ensure_live(cu);
    Key key = edge_key(local_of[d.u], local_of[d.v]);
    auto it = live[cu].find(key);
    bool exists = it != live[cu].end();
    if (d.w == 0.0) {
      if (!exists) {
        return InvalidArgumentError(
            "update: removing nonexistent edge {" + std::to_string(d.u) +
            "," + std::to_string(d.v) + "}" + at);
      }
      live[cu].erase(it);
      // Removal may disconnect the component; only a full re-setup
      // recomputes the partition.
      plan.tier = UpdateTier::kFullRebuild;
    } else if (!exists) {
      live[cu].emplace(key, 1);
      plan.structural[cu] = 1;
      if (plan.tier < UpdateTier::kComponentRebuild) {
        plan.tier = UpdateTier::kComponentRebuild;
      }
    }
    plan.local[cu].push_back(EdgeDelta{key.first, key.second, d.w});
  }
  return plan;
}

// Sequentially applies a (pre-validated) delta stream to an edge list.
// Set-weight rewrites the first matching entry and drops parallel
// duplicates, so the edge's total weight is exactly w afterwards; removal
// drops every match; insertion appends.  Ids are whatever space `edges`
// lives in (component-local or global) — the semantics are identical.
void apply_deltas(EdgeList& edges, const std::vector<EdgeDelta>& deltas,
                  UpdateReport& rep) {
  for (const EdgeDelta& d : deltas) {
    auto key = edge_key(d.u, d.v);
    std::size_t first = edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edge_key(edges[i].u, edges[i].v) == key) {
        first = i;
        break;
      }
    }
    if (d.w > 0.0 && first < edges.size()) {
      edges[first].w = d.w;
      std::size_t out = first + 1;
      for (std::size_t i = first + 1; i < edges.size(); ++i) {
        if (edge_key(edges[i].u, edges[i].v) != key) {
          edges[out++] = edges[i];
        }
      }
      edges.resize(out);
      ++rep.weight_updates;
    } else if (d.w > 0.0) {
      edges.push_back(Edge{d.u, d.v, d.w});
      ++rep.edges_added;
    } else {
      std::size_t out = 0;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edge_key(edges[i].u, edges[i].v) != key) {
          edges[out++] = edges[i];
        }
      }
      edges.resize(out);
      ++rep.edges_removed;
    }
  }
}

}  // namespace

StatusOr<UpdateTier> SolverSetup::plan_update(
    const std::vector<EdgeDelta>& deltas) const {
  if (impl_->gremban) {
    return InvalidArgumentError(
        "SolverSetup::update: not supported for Gremban-lifted SDD setups; "
        "rebuild from the updated matrix instead");
  }
  if (deltas.empty()) {
    return InvalidArgumentError("SolverSetup::update: empty delta batch");
  }
  StatusOr<DeltaPlan> plan =
      classify_deltas(impl_->n, impl_->components, deltas);
  if (!plan.ok()) return plan.status();
  return plan->tier;
}

StatusOr<SolverSetup> SolverSetup::update(const std::vector<EdgeDelta>& deltas,
                                          UpdateReport* report) const {
  if (impl_->gremban) {
    return InvalidArgumentError(
        "SolverSetup::update: not supported for Gremban-lifted SDD setups; "
        "rebuild from the updated matrix instead");
  }
  if (deltas.empty()) {
    return InvalidArgumentError("SolverSetup::update: empty delta batch");
  }
  StatusOr<DeltaPlan> plan =
      classify_deltas(impl_->n, impl_->components, deltas);
  if (!plan.ok()) return plan.status();
  UpdateReport rep;
  rep.tier = plan->tier;
  SolverSetup out;
  out.impl_->opts = impl_->opts;
  out.impl_->update_seq = impl_->update_seq + deltas.size();
  rep.update_seq = out.impl_->update_seq;
  if (plan->tier == UpdateTier::kFullRebuild) {
    // The partition may change: re-run the whole setup on the updated
    // global edge list.  Fresh chains, fresh quality baseline.
    EdgeList edges = impl_->assemble_global_edges();
    apply_deltas(edges, deltas, rep);
    out.impl_->build(impl_->n, edges);
    rep.components_rebuilt =
        static_cast<std::uint32_t>(out.impl_->components.size());
  } else {
    out.impl_->n = impl_->n;
    out.impl_->components.reserve(impl_->components.size());
    for (std::size_t c = 0; c < impl_->components.size(); ++c) {
      // Edges, Laplacian and chain are immutable and the recursive solver
      // is stateless across solves, so an untouched component is shared.
      ComponentSetup nc = impl_->components[c];
      if (!plan->local[c].empty()) {
        EdgeList edges = *nc.local_edges;
        apply_deltas(edges, plan->local[c], rep);
        nc.local_edges = std::make_shared<const EdgeList>(std::move(edges));
        // The outer CG solves against the current weights either way.
        if (plan->structural[c]) {
          // Component rebuild: a fresh chain for the new structure.
          build_component(nc, impl_->opts);
          ++rep.components_rebuilt;
        } else {
          nc.laplacian = std::make_shared<const CsrMatrix>(laplacian_from_edges(
              static_cast<std::uint32_t>(nc.vertices.size()), *nc.local_edges));
          // Stale-chain tier: keep preconditioning with the old chain.
          if (nc.chain) nc.chain_stale = true;
        }
      } else {
        ++rep.components_shared;
      }
      out.impl_->components.push_back(std::move(nc));
    }
    // Drift stays measured against the fresh-chain baseline across
    // stale-chain and component updates; a full rebuild resets it.
    out.impl_->baseline_iters.store(
        impl_->baseline_iters.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    out.impl_->last_iters.store(
        impl_->last_iters.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  for (const ComponentSetup& cs : out.impl_->components) {
    if (cs.chain_stale) ++rep.components_stale;
  }
  if (report) *report = rep;
  return out;
}

SolverSetup SolverSetup::rebuild() const {
  SolverSetup out;
  out.impl_->opts = impl_->opts;
  out.impl_->update_seq = impl_->update_seq;
  if (impl_->gremban) {
    out.impl_->gremban = impl_->gremban;
    out.impl_->build(impl_->n, out.impl_->gremban->edges);
  } else {
    out.impl_->build(impl_->n, impl_->assemble_global_edges());
  }
  return out;
}

std::uint64_t SolverSetup::update_seq() const { return impl_->update_seq; }

SetupQuality SolverSetup::quality() const {
  SetupQuality q;
  q.baseline_iterations =
      impl_->baseline_iters.load(std::memory_order_relaxed);
  q.last_iterations = impl_->last_iters.load(std::memory_order_relaxed);
  for (const ComponentSetup& cs : impl_->components) {
    if (cs.chain_stale) ++q.stale_components;
  }
  q.drift = q.baseline_iterations > 0
                ? static_cast<double>(q.last_iterations) /
                      static_cast<double>(q.baseline_iterations)
                : 1.0;
  return q;
}

namespace {

// Byte tag opening every serialized SolverSetup body, so a setup embedded
// in a larger snapshot (e.g. the golden regression file) stays
// self-identifying.
constexpr std::uint8_t kSetupTag = 0x53;  // 'S'

// Options are serialized field by field (never as raw struct bytes): the
// encoding survives reordering/padding changes in the C++ structs, and a
// loaded setup reports exactly the options it was built with.
void save_options(serialize::Writer& w, const SddSolverOptions& o) {
  w.f64(o.tolerance);
  w.u32(o.max_iterations);
  w.u32(static_cast<std::uint32_t>(o.method));
  // The retired precision byte (0 = fp64; 1 was the removed fp32-refined
  // mode) keeps its slot so the v3 layout stays byte-compatible.
  w.u8(0);
  const ChainOptions& c = o.chain;
  w.u64(c.seed);
  w.u32(static_cast<std::uint32_t>(c.mode));
  w.f64(c.kappa);
  w.f64(c.kappa_growth);
  w.u32(c.bottom_size);
  w.u32(c.max_levels);
  w.f64(c.oversample);
  w.f64(c.p_floor);
  w.f64(c.subgraph_scale);
  w.u32(c.lambda);
  w.f64(c.theta);
  w.f64(c.subgraph_y);
  w.f64(c.subgraph_z);
  const RecursiveSolverOptions& rs = o.recursion;
  w.u32(static_cast<std::uint32_t>(rs.inner));
  w.f64(rs.inner_tolerance);
  w.u32(rs.inner_max_iterations);
  w.u32(rs.inner_iterations);
  w.f64(rs.kappa_cap);
  w.u32(rs.power_iterations);
  w.f64(rs.lambda_max_margin);
  w.u64(rs.seed);
}

SddSolverOptions load_options(serialize::Reader& r) {
  SddSolverOptions o;
  o.tolerance = r.f64();
  o.max_iterations = r.u32();
  std::uint32_t method = r.u32();
  if (method > static_cast<std::uint32_t>(SolveMethod::kJacobiPcg)) {
    r.fail("unknown SolveMethod value " + std::to_string(method));
  } else {
    o.method = static_cast<SolveMethod>(method);
  }
  std::uint8_t precision = r.u8();
  if (precision == 1) {
    r.fail("setup was built with the removed fp32-refined precision mode; "
           "rebuild it from its graph");
  } else if (precision != 0) {
    r.fail("unknown precision value " + std::to_string(precision));
  }
  ChainOptions& c = o.chain;
  c.seed = r.u64();
  std::uint32_t mode = r.u32();
  if (mode > static_cast<std::uint32_t>(ChainMode::kSampled)) {
    r.fail("unknown ChainMode value " + std::to_string(mode));
  } else {
    c.mode = static_cast<ChainMode>(mode);
  }
  c.kappa = r.f64();
  c.kappa_growth = r.f64();
  c.bottom_size = r.u32();
  c.max_levels = r.u32();
  c.oversample = r.f64();
  c.p_floor = r.f64();
  c.subgraph_scale = r.f64();
  c.lambda = r.u32();
  c.theta = r.f64();
  c.subgraph_y = r.f64();
  c.subgraph_z = r.f64();
  RecursiveSolverOptions& rs = o.recursion;
  std::uint32_t inner = r.u32();
  if (inner > static_cast<std::uint32_t>(InnerMethod::kFlexibleCg)) {
    r.fail("unknown InnerMethod value " + std::to_string(inner));
  } else {
    rs.inner = static_cast<InnerMethod>(inner);
  }
  rs.inner_tolerance = r.f64();
  rs.inner_max_iterations = r.u32();
  rs.inner_iterations = r.u32();
  rs.kappa_cap = r.f64();
  rs.power_iterations = r.u32();
  rs.lambda_max_margin = r.f64();
  rs.seed = r.u64();
  return o;
}

}  // namespace

void SolverSetup::save_to(serialize::Writer& w) const {
  w.u8(kSetupTag);
  save_options(w, impl_->opts);
  w.u32(impl_->n);
  // Format v3: the dynamic-update stream position and quality-monitor
  // counters, so a snapshot taken after updates reloads bitwise — same
  // update_seq, same drift baseline (see DESIGN.md §10).
  w.u64(impl_->update_seq);
  w.u32(impl_->baseline_iters.load(std::memory_order_relaxed));
  w.u32(impl_->last_iters.load(std::memory_order_relaxed));
  w.boolean(impl_->gremban.has_value());
  if (impl_->gremban) impl_->gremban->save(w);
  w.varint(impl_->components.size());
  for (const ComponentSetup& cs : impl_->components) {
    w.pod_vec(cs.vertices);
    save_edges(w, *cs.local_edges);
    cs.laplacian->save(w);
    w.boolean(cs.chain != nullptr);
    w.boolean(cs.chain_stale);  // v3: stale-chain tier marker
    if (cs.chain) {
      save_chain(w, *cs.chain);
      // The spectral bounds the recursive solver measured at build time
      // (Chebyshev mode; empty in flexible-CG mode).  Persisting them keeps
      // the loaded solver bitwise-faithful without re-running the power
      // iteration on load.
      const auto& bounds = cs.recursive->level_bounds();
      w.varint(bounds.size());
      for (const auto& [lo, hi] : bounds) {
        w.f64(lo);
        w.f64(hi);
      }
    }
  }
}

StatusOr<SolverSetup> SolverSetup::load_from(serialize::Reader& r) {
  if (std::uint8_t tag = r.u8(); r.status().ok() && tag != kSetupTag) {
    r.fail("payload is not a SolverSetup (tag " + std::to_string(tag) + ")");
  }
  SolverSetup s;
  s.impl_->opts = load_options(r);
  s.impl_->n = r.u32();
  s.impl_->update_seq = r.u64();
  s.impl_->baseline_iters.store(r.u32(), std::memory_order_relaxed);
  s.impl_->last_iters.store(r.u32(), std::memory_order_relaxed);
  if (r.boolean()) {
    s.impl_->gremban = GrembanReduction::load(r);
    if (r.status().ok() &&
        static_cast<std::uint64_t>(s.impl_->n) !=
            2 * static_cast<std::uint64_t>(s.impl_->gremban->n)) {
      r.fail("Gremban lift dimension disagrees with the system size");
    }
  }
  std::uint64_t count = r.varint();
  for (std::uint64_t i = 0; i < count && r.status().ok(); ++i) {
    ComponentSetup cs;
    cs.vertices = r.pod_vec<std::uint32_t>();
    // Read in place: with a current chain these are the bytes of its level
    // 0, which the component then shares instead of decoding a copy.
    EdgeListView edges = load_edges_view(r);
    CsrMatrix::View laplacian = CsrMatrix::load_view(r);
    if (!r.status().ok()) break;
    // The solve gathers b.row(vertices[i]) from an n-row block and scatters
    // local edges over a vertices.size()-row component; both index spaces
    // must be validated before a forged snapshot can reach them (the edges
    // below, unless they are the chain's already validated level 0).
    std::uint32_t cn = static_cast<std::uint32_t>(cs.vertices.size());
    auto out_of_bounds = [&] {
      r.fail("component " + std::to_string(i) +
             " indexes out of bounds for the system size");
    };
    bool ok = cs.vertices.size() <= s.impl_->n;
    for (std::size_t v = 0; ok && v < cs.vertices.size(); ++v) {
      ok = cs.vertices[v] < s.impl_->n;
    }
    if (!ok || laplacian.n != (cn >= 2 ? cn : 0)) {
      out_of_bounds();
      break;
    }
    bool has_chain = r.boolean();
    cs.chain_stale = r.boolean();
    if (r.status().ok() && cs.chain_stale && !has_chain) {
      r.fail("component " + std::to_string(i) +
             " marked chain-stale without a chain");
      break;
    }
    if (has_chain) {
      cs.chain = std::make_shared<const SolverChain>(load_chain(r));
      if (r.status().ok() &&
          (cs.chain->levels.empty() || cs.chain->levels.front().n != cn)) {
        r.fail("component " + std::to_string(i) +
               " chain does not start at the component size");
        break;
      }
      std::uint64_t num_bounds = r.varint();
      if (num_bounds > r.remaining() / (2 * sizeof(double))) {
        r.fail("level-bound count exceeds remaining bytes");
        break;
      }
      std::vector<std::pair<double, double>> bounds(
          static_cast<std::size_t>(num_bounds));
      for (auto& [lo, hi] : bounds) {
        lo = r.f64();
        hi = r.f64();
      }
      if (!r.status().ok()) break;
      // The Chebyshev inner solver reads level_bounds_[i] per level; any
      // other count would index past the vector at solve time.
      if (num_bounds != 0 && num_bounds != cs.chain->levels.size()) {
        r.fail("level-bound count disagrees with the chain depth");
        break;
      }
      if (s.impl_->opts.recursion.inner == InnerMethod::kChebyshev &&
          num_bounds == 0) {
        r.fail("Chebyshev recursion requires saved spectral bounds");
        break;
      }
      cs.recursive = std::make_shared<RecursiveSolver>(
          *cs.chain, s.impl_->opts.recursion, std::move(bounds));
    }
    if (cs.chain && edges.matches(cs.chain->levels.front().edges) &&
        cs.chain->levels.front().laplacian.matches(laplacian)) {
      share_level0(cs);
    } else {
      for (std::size_t e = 0; ok && e < edges.size(); ++e) {
        ok = edges[e].u < cn && edges[e].v < cn;
      }
      if (!ok) {
        out_of_bounds();
        break;
      }
      cs.local_edges = std::make_shared<const EdgeList>(edges.decode());
      cs.laplacian = std::make_shared<const CsrMatrix>(
          CsrMatrix::decode(laplacian, r));
      if (!r.status().ok()) break;
    }
    // The chain-method solve dereferences cs.recursive unconditionally for
    // every non-trivial component; a forged snapshot must not be able to
    // clear the chain flag out from under it.
    if ((s.impl_->opts.method == SolveMethod::kChainPcg ||
         s.impl_->opts.method == SolveMethod::kChainRpch) &&
        cs.vertices.size() >= 2 && !cs.recursive) {
      r.fail("component " + std::to_string(i) +
             " is missing the chain its solve method requires");
      break;
    }
    s.impl_->components.push_back(std::move(cs));
  }
  if (!r.status().ok()) return r.status();
  return s;
}

Status SolverSetup::Save(const std::string& path) const {
  serialize::Writer w;
  w.header();
  save_to(w);
  return w.to_file(path);
}

StatusOr<SolverSetup> SolverSetup::Load(const std::string& path) {
  StatusOr<serialize::Reader> r = serialize::Reader::from_file(path);
  if (!r.ok()) return r.status();
  PARSDD_RETURN_IF_ERROR(r->check_header());
  StatusOr<SolverSetup> setup = load_from(*r);
  if (!setup.ok()) return setup;
  if (!r->exhausted()) {
    return InvalidArgumentError("SolverSetup::Load: " +
                                std::to_string(r->remaining()) +
                                " trailing bytes after payload in " + path);
  }
  return setup;
}

StatusOr<Vec> SolverSetup::solve(const Vec& b, SddSolveReport* report) const {
  // A single solve is a 1-column batch: both entry points share one code
  // path, so batched and single solves are arithmetically identical.
  MultiVec bb(b.size(), 1);
  bb.set_column(0, b);
  BatchSolveReport batch_report;
  StatusOr<MultiVec> xx = solve_batch(bb, report ? &batch_report : nullptr);
  if (!xx.ok()) return xx.status();
  if (report) {
    *report = SddSolveReport{};
    if (!batch_report.column_stats.empty()) {
      report->stats = batch_report.column_stats.front();
    }
    report->chain_levels = batch_report.chain_levels;
    report->chain_edges = batch_report.chain_edges;
    report->bottom_visits = batch_report.bottom_visits;
    report->components = batch_report.components;
  }
  return xx->column(0);
}

}  // namespace parsdd
