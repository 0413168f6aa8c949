// The setup phase of the setup/solve split.
//
// A production deployment never solves one system once: it builds the
// preconditioner chain (Definition 6.3) for a fixed Laplacian/SDD matrix
// once and then answers many right-hand sides against it — one solve per
// queried edge in apps/effective_resistance, one per channel in
// apps/harmonic.  SolverSetup owns everything that is expensive and
// RHS-independent (Gremban reduction, connected components, per-component
// chain + recursive solver), and exposes two cheap query entry points:
//
//   * solve(b)        — one RHS (internally a 1-column batch);
//   * solve_batch(B)  — k RHS in lockstep, sharing every matrix traversal,
//                       elimination fold, and bottom dense solve across the
//                       whole block (SpMM-style amortization).
//
// Both are const and allocate per-call workspaces, so any number of threads
// may solve concurrently against one shared SolverSetup.  Both return
// StatusOr (util/status.h): a malformed request (dimension mismatch, empty
// batch) is an InvalidArgument result, not a crash — the contract the
// serving front door (service/solver_service.h) relies on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "linalg/csr_matrix.h"
#include "linalg/gremban.h"
#include "linalg/iterative.h"
#include "linalg/multivec.h"
#include "solver/chain.h"
#include "solver/recursive_solver.h"
#include "util/status.h"

namespace parsdd {

enum class SolveMethod {
  kChainPcg,    // flexible PCG + recursive chain preconditioner (default)
  kChainRpch,   // pure recursive preconditioned Chebyshev (Theorem 1.1)
  kCg,          // unpreconditioned conjugate gradient (baseline)
  kJacobiPcg,   // diagonally preconditioned CG (baseline)
};

struct SddSolverOptions {
  double tolerance = 1e-8;
  std::uint32_t max_iterations = 5000;
  SolveMethod method = SolveMethod::kChainPcg;
  ChainOptions chain;
  RecursiveSolverOptions recursion;
};

/// One mutation in a dynamic-graph update stream (ROADMAP item 4): "set the
/// weight of undirected edge {u, v} to w".
///   * existing edge, w > 0  — weight perturbation (stale-chain tier);
///   * existing edge, w == 0 — removal (structural: full rebuild, since the
///                             component partition may change);
///   * new edge,      w > 0  — insertion (structural: component rebuild
///                             when both endpoints share a component, full
///                             rebuild when it bridges two).
/// Vertices are never added or removed: u and v must be < dimension(), and
/// u != v.  Deltas in one batch apply sequentially, so a batch may insert
/// an edge and then re-weight it.
struct EdgeDelta {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double w = 0.0;
};

/// How update() absorbed a delta batch; ordered cheapest to costliest.
enum class UpdateTier : std::uint8_t {
  /// Weight-only perturbations: touched components share the old
  /// preconditioner chain (marked stale); only the Laplacian the outer
  /// fp64 CG measures residuals against is rebuilt, so the returned x
  /// still meets `tolerance` against the *updated* matrix — the stale
  /// chain merely preconditions, possibly costing extra iterations.
  kStaleChain = 0,
  /// Structural change confined to existing components: only the touched
  /// components rebuild their chains; every other component is shared
  /// with the pre-update setup.
  kComponentRebuild = 1,
  /// A removal or component-bridging insertion (the component partition
  /// itself may change): full re-setup from the updated edge list.
  kFullRebuild = 2,
};

/// What update() did, for telemetry and the service's swap bookkeeping.
struct UpdateReport {
  UpdateTier tier = UpdateTier::kStaleChain;
  std::uint32_t weight_updates = 0;
  std::uint32_t edges_added = 0;
  std::uint32_t edges_removed = 0;
  std::uint32_t components_rebuilt = 0;  // chains rebuilt by this update
  std::uint32_t components_stale = 0;    // total on a stale chain afterwards
  std::uint32_t components_shared = 0;   // untouched, shared with old setup
  std::uint64_t update_seq = 0;          // deltas absorbed since first build
};

/// The residual-based quality estimate behind the stale-chain tier: the
/// worst outer-CG iteration count of the most recent solve, against the
/// count recorded for the first solve of the fresh (never-updated) chain.
/// A stale chain preconditions an updated matrix, so degradation shows up
/// exactly here — `drift` rising past a threshold is the service's signal
/// to schedule an async rebuild (ServiceOptions::stale_rebuild_factor).
struct SetupQuality {
  std::uint32_t baseline_iterations = 0;  // first recorded fresh-chain solve
  std::uint32_t last_iterations = 0;      // most recent solve
  std::uint32_t stale_components = 0;     // components on a stale chain
  double drift = 1.0;  // last / baseline; 1.0 until both are known
};

struct SddSolveReport {
  IterStats stats;                // worst component's iteration stats
  std::uint32_t chain_levels = 0; // deepest chain
  std::size_t chain_edges = 0;    // total edges across all chain levels
  std::uint64_t bottom_visits = 0;
  std::uint32_t components = 0;
};

struct BatchSolveReport {
  /// Worst-component iteration stats, one entry per RHS column.
  std::vector<IterStats> column_stats;
  std::uint32_t chain_levels = 0;
  std::size_t chain_edges = 0;
  /// Bottom-level dense solves during this batch (a batched visit counts
  /// once for the whole block); approximate under concurrent solves.
  std::uint64_t bottom_visits = 0;
  std::uint32_t components = 0;
};

class SolverSetup {
 public:
  /// Builds the chain(s) for the Laplacian of (V=[0,n), edges).  The graph
  /// may be disconnected; isolated vertices get solution 0.
  static SolverSetup for_laplacian(std::uint32_t n, const EdgeList& edges,
                                   const SddSolverOptions& opts = {});

  /// Builds for a general SDD matrix (Gremban double cover applied when A
  /// is not already a Laplacian).
  static SolverSetup for_sdd(const CsrMatrix& a,
                             const SddSolverOptions& opts = {});

  SolverSetup(SolverSetup&&) noexcept;
  SolverSetup& operator=(SolverSetup&&) noexcept;
  ~SolverSetup();

  /// Size of the original system (before any Gremban lift).
  std::uint32_t dimension() const;
  std::uint32_t num_components() const;
  std::uint32_t chain_levels() const;
  std::size_t chain_edges() const;

  /// Solves A x = b.  For Laplacian blocks b is projected per component.
  /// Thread-safe: concurrent calls share the setup, never the scratch.
  /// InvalidArgument when b.size() != dimension() or b has a NaN or
  /// infinite entry.  With several components, the report's stats are the
  /// worst over them: converged only if every component converged.
  StatusOr<Vec> solve(const Vec& b, SddSolveReport* report = nullptr) const;

  /// Solves A X = B column-wise; column c equals solve(B[:,c]) bitwise.  One
  /// chain pass serves the whole block, amortizing setup traversals over k
  /// RHS.  InvalidArgument when B has zero columns, the wrong row count or
  /// a NaN or infinite entry.
  StatusOr<MultiVec> solve_batch(const MultiVec& b,
                                 BatchSolveReport* report = nullptr) const;

  /// Classifies a delta batch (the tier update() would pick) without
  /// applying it — the service uses this to decide synchronous apply vs.
  /// async rebuild.  Same error contract as update().
  StatusOr<UpdateTier> plan_update(const std::vector<EdgeDelta>& deltas) const;

  /// Applies a delta batch and returns a NEW setup; this one is untouched
  /// (still const and thread-safe), so a server can keep answering solves
  /// against it until the result swaps in.  Untouched components — and, on
  /// the stale-chain tier, their preconditioner chains — are shared between
  /// the two setups, which is safe because chains are immutable after
  /// construction.  InvalidArgument for out-of-range endpoints, self
  /// loops, negative/non-finite weights, removal of a nonexistent edge, or
  /// a Gremban-lifted SDD setup (rebuild from the updated matrix instead).
  StatusOr<SolverSetup> update(const std::vector<EdgeDelta>& deltas,
                               UpdateReport* report = nullptr) const;

  /// Full fresh re-setup from the current (post-update) edge list: every
  /// chain rebuilt, staleness and the quality baseline cleared, update_seq
  /// kept.  The escape hatch the quality monitor triggers when stale-chain
  /// drift crosses the rebuild threshold.
  SolverSetup rebuild() const;

  /// Deltas absorbed via update() since the original build (0 = pristine).
  std::uint64_t update_seq() const;

  /// Residual-quality monitor sample; cheap, thread-safe, updated by every
  /// solve/solve_batch.  See SetupQuality.
  SetupQuality quality() const;

  /// Persists the complete RHS-independent setup state — options, Gremban
  /// lift, per-component graphs, chain levels, elimination records, dense
  /// bottom factors, and measured spectral bounds — as a versioned,
  /// checksummed binary snapshot (util/serialize.h).  A setup loaded in a
  /// fresh process produces bitwise-identical solves to this one; see
  /// DESIGN.md, "Snapshot format".
  Status Save(const std::string& path) const;
  /// NotFound for a missing file; InvalidArgument for truncated, corrupt,
  /// endian-foreign, or version-mismatched snapshots, and for snapshots
  /// built with the removed fp32-refined precision mode.  Never throws.
  static StatusOr<SolverSetup> Load(const std::string& path);

  /// Body-only encode/decode, for embedding a setup inside a larger
  /// snapshot (the golden regression file in tests/data does this);
  /// Save/Load wrap these with the file header and checksum trailer.
  void save_to(serialize::Writer& w) const;
  static StatusOr<SolverSetup> load_from(serialize::Reader& r);

 private:
  SolverSetup();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace parsdd
