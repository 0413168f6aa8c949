// Dynamic graph updates (ROADMAP item 4; DESIGN.md §10).
//
// Contracts under test:
//   * plan_update classifies a delta batch into the documented tiers
//     (weight-only -> stale chain, intra-component insertion -> component
//     rebuild, removal / bridging insertion -> full rebuild) and rejects
//     malformed batches with typed InvalidArgument;
//   * update() returns a NEW setup whose solves meet the residual contract
//     against the UPDATED Laplacian on every tier, across all five fuzzer
//     graph families, while the pre-update setup stays valid;
//   * a batch applies sequentially (insert-then-reweight-then-remove);
//   * update_seq accumulates, rebuild() clears staleness and the quality
//     baseline while keeping the sequence number;
//   * a snapshot taken after updates reloads bitwise (format v3 carries
//     update_seq, the quality counters, and chain staleness);
//   * through SolverService: weight-only updates apply synchronously with
//     no rebuild, structural updates swap in asynchronously with zero
//     failed in-flight solves, a stream of updates under concurrent
//     clients fails no solve and no update, the quality monitor schedules
//     a rebuild when stale-chain drift crosses the threshold, and an
//     updated handle never aliases its pre-update setup-cache entry (the
//     fingerprint extension contract);
//   * post-update solves stay bitwise deterministic across pool sizes and
//     SIMD backends (subprocess matrix, same idiom as test_determinism).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "file_test_util.h"
#include "graph/generators.h"
#include "kernels/kernels.h"
#include "linalg/laplacian.h"
#include "service/solver_service.h"
#include "solver/solver_setup.h"

namespace parsdd {
namespace {

constexpr double kTol = 1e-8;
// Convergence is measured in the preconditioned norm, so the Euclidean
// residual can sit a small factor above the target (same headroom as
// test_property_solve).
constexpr double kResidualHeadroom = 100 * kTol;

Vec consistent_rhs(std::uint32_t n, std::uint64_t seed) {
  Vec b = random_unit_like(n, seed);
  kernels::project_out_constant(b);
  return b;
}

double rel_residual(std::uint32_t n, const EdgeList& edges, const Vec& x,
                    const Vec& b) {
  CsrMatrix lap = laplacian_from_edges(n, edges);
  return kernels::norm2(kernels::subtract(lap.apply(x), b)) /
         std::max(kernels::norm2(b), 1e-300);
}

// Mirrors update()'s sequential delta semantics on a plain edge list, for
// building the from-scratch reference setup: a weight-set rewrites the
// first matching edge and drops parallel duplicates, w == 0 removes every
// copy, an unmatched positive weight appends.
EdgeList apply_deltas_reference(EdgeList edges,
                                const std::vector<EdgeDelta>& deltas) {
  auto matches = [](const Edge& e, const EdgeDelta& d) {
    return (e.u == d.u && e.v == d.v) || (e.u == d.v && e.v == d.u);
  };
  for (const EdgeDelta& d : deltas) {
    bool found = false;
    EdgeList next;
    next.reserve(edges.size() + 1);
    for (const Edge& e : edges) {
      if (!matches(e, d)) {
        next.push_back(e);
      } else if (d.w > 0.0 && !found) {
        next.push_back(Edge{e.u, e.v, d.w});
        found = true;
      }  // removal, or a parallel duplicate of a weight-set: drop
    }
    if (d.w > 0.0 && !found) next.push_back(Edge{d.u, d.v, d.w});
    edges = std::move(next);
  }
  return edges;
}

struct Family {
  std::string name;
  GeneratedGraph graph;
};

// The five fuzzer families of test_property_solve, at fixed sizes.  Each
// gets an extra cycle-closing edge so single-edge removals in the tests
// below can never disconnect the graph (a disconnected reference residual
// would need per-component RHS projection and test nothing extra).
std::vector<Family> families() {
  std::vector<Family> out;
  out.push_back({"grid2d(8,8)", grid2d(8, 8)});
  out.push_back({"random_regular(48,3)", random_regular(48, 3, 7)});
  out.push_back({"barbell(5,6)", barbell(5, 6)});
  out.push_back({"star(40)", star(40)});
  out.push_back({"path(60)", path(60)});
  for (Family& f : out) {
    f.graph.edges.push_back(Edge{1, f.graph.n - 1, 1.0});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tier classification.

TEST(PlanUpdate, ClassifiesTiers) {
  GeneratedGraph g = grid2d(6, 6);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);

  // Weight perturbation of an existing edge: cheapest tier.
  Edge e0 = g.edges.front();
  EXPECT_EQ(setup.plan_update({{e0.u, e0.v, e0.w * 2}}).value(),
            UpdateTier::kStaleChain);
  // Insertion inside the (single) component: component rebuild.
  EXPECT_EQ(setup.plan_update({{0, 7, 1.0}}).value(),
            UpdateTier::kComponentRebuild);
  // Removal: the partition may change, full rebuild.
  EXPECT_EQ(setup.plan_update({{e0.u, e0.v, 0.0}}).value(),
            UpdateTier::kFullRebuild);
  // A mixed batch classifies as its costliest member.
  EXPECT_EQ(setup
                .plan_update({{e0.u, e0.v, e0.w * 2}, {0, 7, 1.0}})
                .value(),
            UpdateTier::kComponentRebuild);
}

TEST(PlanUpdate, BridgingInsertionIsFullRebuild) {
  // Two disjoint grids in one vertex set.
  GeneratedGraph g = grid2d(4, 4);
  GeneratedGraph h = grid2d(3, 3);
  std::uint32_t base = g.n;
  for (const Edge& e : h.edges) {
    g.edges.push_back(Edge{base + e.u, base + e.v, e.w});
  }
  g.n += h.n;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  ASSERT_EQ(setup.num_components(), 2u);
  EXPECT_EQ(setup.plan_update({{0, base, 1.0}}).value(),
            UpdateTier::kFullRebuild);
}

TEST(PlanUpdate, RejectsMalformedBatches) {
  GeneratedGraph g = grid2d(4, 4);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  // Every rejection is a typed InvalidArgument naming the offending delta.
  EXPECT_EQ(setup.plan_update({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(setup.plan_update({{0, g.n, 1.0}}).status().code(),
            StatusCode::kInvalidArgument);  // endpoint out of range
  EXPECT_EQ(setup.plan_update({{3, 3, 1.0}}).status().code(),
            StatusCode::kInvalidArgument);  // self loop
  EXPECT_EQ(setup.plan_update({{0, 1, -1.0}}).status().code(),
            StatusCode::kInvalidArgument);  // negative weight
  EXPECT_EQ(setup.plan_update({{0, 1, std::nan("")}}).status().code(),
            StatusCode::kInvalidArgument);  // non-finite weight
  EXPECT_EQ(setup.plan_update({{0, 15, 0.0}}).status().code(),
            StatusCode::kInvalidArgument);  // removing a nonexistent edge
}

TEST(PlanUpdate, GrembanLiftedSetupRefuses) {
  // Positive off-diagonals force the Gremban double cover; the lifted
  // internal graph has no 1:1 edge mapping to the user's matrix, so update
  // is refused (rebuild from the updated matrix instead).
  std::vector<Triplet> ts = {
      {0, 0, 3.0},  {0, 1, 1.0},  {1, 0, 1.0},  {1, 1, 4.0},
      {1, 2, -2.0}, {2, 1, -2.0}, {2, 2, 3.0},
  };
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  SolverSetup setup = SolverSetup::for_sdd(a);
  EXPECT_EQ(setup.plan_update({{0, 1, 2.0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(setup.update({{0, 1, 2.0}}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Residual contract per tier, across all five graph families.  Every case
// also builds the from-scratch setup of the updated edge list as the
// reference: both must meet the residual contract against the updated
// Laplacian (the stale-chain tier is allowed extra iterations, never extra
// residual).

TEST(Update, StaleChainMeetsResidualAcrossFamilies) {
  for (Family& f : families()) {
    SddSolverOptions opts;
    opts.tolerance = kTol;
    SolverSetup setup =
        SolverSetup::for_laplacian(f.graph.n, f.graph.edges, opts);
    // Perturb three existing edge weights (x16, x0.25, x9).
    const double factors[] = {16.0, 0.25, 9.0};
    std::vector<EdgeDelta> deltas;
    for (int i = 0; i < 3; ++i) {
      const Edge& e = f.graph.edges[static_cast<std::size_t>(i) * 2];
      deltas.push_back({e.u, e.v, e.w * factors[i]});
    }
    UpdateReport report;
    StatusOr<SolverSetup> updated = setup.update(deltas, &report);
    ASSERT_TRUE(updated.ok()) << f.name << ": " << updated.status().to_string();
    EXPECT_EQ(report.tier, UpdateTier::kStaleChain) << f.name;
    EXPECT_EQ(report.weight_updates, 3u) << f.name;
    EXPECT_EQ(report.components_rebuilt, 0u) << f.name;
    EXPECT_GT(updated->quality().stale_components, 0u) << f.name;

    EdgeList ref_edges = apply_deltas_reference(f.graph.edges, deltas);
    Vec b = consistent_rhs(f.graph.n, 42);
    Vec x = updated->solve(b).value();
    EXPECT_LE(rel_residual(f.graph.n, ref_edges, x, b), kResidualHeadroom)
        << f.name << ": stale-chain solve misses the updated-matrix contract";
    // From-scratch reference converges too — and the pre-update setup still
    // answers for the OLD matrix (it was never touched).
    SolverSetup fresh =
        SolverSetup::for_laplacian(f.graph.n, ref_edges, opts);
    Vec xf = fresh.solve(b).value();
    EXPECT_LE(rel_residual(f.graph.n, ref_edges, xf, b), kResidualHeadroom)
        << f.name;
    Vec x_old = setup.solve(b).value();
    EXPECT_LE(rel_residual(f.graph.n, f.graph.edges, x_old, b),
              kResidualHeadroom)
        << f.name << ": pre-update setup was disturbed by update()";
  }
}

TEST(Update, ComponentRebuildMeetsResidualAcrossFamilies) {
  for (Family& f : families()) {
    SddSolverOptions opts;
    opts.tolerance = kTol;
    SolverSetup setup =
        SolverSetup::for_laplacian(f.graph.n, f.graph.edges, opts);
    ASSERT_EQ(setup.num_components(), 1u) << f.name;
    // Insert a fresh chord inside the single component.
    std::vector<EdgeDelta> deltas = {{2, f.graph.n - 2, 3.0}};
    UpdateReport report;
    StatusOr<SolverSetup> updated = setup.update(deltas, &report);
    ASSERT_TRUE(updated.ok()) << f.name << ": " << updated.status().to_string();
    EXPECT_EQ(report.tier, UpdateTier::kComponentRebuild) << f.name;
    EXPECT_EQ(report.edges_added, 1u) << f.name;
    EXPECT_EQ(report.components_rebuilt, 1u) << f.name;
    EXPECT_EQ(updated->quality().stale_components, 0u)
        << f.name << ": a rebuilt chain is fresh, not stale";

    EdgeList ref_edges = apply_deltas_reference(f.graph.edges, deltas);
    Vec b = consistent_rhs(f.graph.n, 43);
    Vec x = updated->solve(b).value();
    EXPECT_LE(rel_residual(f.graph.n, ref_edges, x, b), kResidualHeadroom)
        << f.name;
  }
}

TEST(Update, FullRebuildOnRemovalMeetsResidualAcrossFamilies) {
  for (Family& f : families()) {
    SddSolverOptions opts;
    opts.tolerance = kTol;
    SolverSetup setup =
        SolverSetup::for_laplacian(f.graph.n, f.graph.edges, opts);
    // Remove the cycle-closing edge families() appended: connectivity is
    // preserved, the tier is still a full rebuild (removal may split
    // components in general; the planner does not prove otherwise).
    std::vector<EdgeDelta> deltas = {{1, f.graph.n - 1, 0.0}};
    UpdateReport report;
    StatusOr<SolverSetup> updated = setup.update(deltas, &report);
    ASSERT_TRUE(updated.ok()) << f.name << ": " << updated.status().to_string();
    EXPECT_EQ(report.tier, UpdateTier::kFullRebuild) << f.name;
    EXPECT_EQ(report.edges_removed, 1u) << f.name;
    EXPECT_EQ(updated->quality().stale_components, 0u) << f.name;

    EdgeList ref_edges = apply_deltas_reference(f.graph.edges, deltas);
    Vec b = consistent_rhs(f.graph.n, 44);
    Vec x = updated->solve(b).value();
    EXPECT_LE(rel_residual(f.graph.n, ref_edges, x, b), kResidualHeadroom)
        << f.name;
  }
}

TEST(Update, BridgingInsertionJoinsComponents) {
  GeneratedGraph g = grid2d(5, 5);
  GeneratedGraph h = path(12);
  std::uint32_t base = g.n;
  for (const Edge& e : h.edges) {
    g.edges.push_back(Edge{base + e.u, base + e.v, e.w});
  }
  g.n += h.n;
  SddSolverOptions opts;
  opts.tolerance = kTol;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
  ASSERT_EQ(setup.num_components(), 2u);
  std::vector<EdgeDelta> deltas = {{3, base + 4, 2.0}};
  UpdateReport report;
  SolverSetup updated = setup.update(deltas, &report).value();
  EXPECT_EQ(report.tier, UpdateTier::kFullRebuild);
  EXPECT_EQ(updated.num_components(), 1u);
  // Now connected: one globally consistent RHS solves across the bridge.
  EdgeList ref_edges = apply_deltas_reference(g.edges, deltas);
  Vec b = consistent_rhs(g.n, 45);
  Vec x = updated.solve(b).value();
  EXPECT_LE(rel_residual(g.n, ref_edges, x, b), kResidualHeadroom);
}

TEST(Update, BatchAppliesSequentially) {
  GeneratedGraph g = grid2d(6, 6);
  SddSolverOptions opts;
  opts.tolerance = kTol;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
  // Insert an edge, re-weight it, remove it: net structural no-op.  A
  // batch that validated against the ORIGINAL edge list (instead of
  // applying sequentially) would refuse the re-weight and the removal.
  std::vector<EdgeDelta> deltas = {{0, 14, 1.0}, {0, 14, 5.0}, {0, 14, 0.0}};
  UpdateReport report;
  SolverSetup updated = setup.update(deltas, &report).value();
  EXPECT_EQ(report.tier, UpdateTier::kFullRebuild);  // batch contains removal
  EXPECT_EQ(report.edges_added, 1u);
  EXPECT_EQ(report.weight_updates, 1u);
  EXPECT_EQ(report.edges_removed, 1u);
  EXPECT_EQ(report.update_seq, 3u);
  Vec b = consistent_rhs(g.n, 46);
  Vec x = updated.solve(b).value();
  // Net no-op: the updated setup answers for the original Laplacian.
  EXPECT_LE(rel_residual(g.n, g.edges, x, b), kResidualHeadroom);
}

TEST(Update, UpdateSeqAccumulatesAndRebuildClearsStaleness) {
  GeneratedGraph g = grid2d(6, 6);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  EXPECT_EQ(setup.update_seq(), 0u);
  Edge e0 = g.edges.front();
  SolverSetup u1 = setup.update({{e0.u, e0.v, 2.0}}).value();
  EXPECT_EQ(u1.update_seq(), 1u);
  Edge e1 = g.edges[3];
  SolverSetup u2 =
      u1.update({{e1.u, e1.v, 3.0}, {e0.u, e0.v, 1.5}}).value();
  EXPECT_EQ(u2.update_seq(), 3u);
  EXPECT_GT(u2.quality().stale_components, 0u);
  // rebuild(): fresh chains, staleness and baseline cleared, seq kept.
  SolverSetup fresh = u2.rebuild();
  EXPECT_EQ(fresh.update_seq(), 3u);
  EXPECT_EQ(fresh.quality().stale_components, 0u);
  EXPECT_EQ(fresh.quality().baseline_iterations, 0u);
  Vec b = consistent_rhs(g.n, 47);
  EdgeList ref = apply_deltas_reference(
      g.edges, {{e0.u, e0.v, 2.0}, {e1.u, e1.v, 3.0}, {e0.u, e0.v, 1.5}});
  Vec x = fresh.solve(b).value();
  EXPECT_LE(rel_residual(g.n, ref, x, b), kResidualHeadroom);
}

TEST(Update, QualityMonitorTracksDrift) {
  GeneratedGraph g = grid2d(10, 10);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  EXPECT_EQ(setup.quality().baseline_iterations, 0u);
  Vec b = consistent_rhs(g.n, 48);
  (void)setup.solve(b).value();
  SetupQuality q0 = setup.quality();
  EXPECT_GT(q0.baseline_iterations, 0u);
  EXPECT_EQ(q0.baseline_iterations, q0.last_iterations);
  EXPECT_DOUBLE_EQ(q0.drift, 1.0);
  // A violent weight perturbation leaves the stale chain preconditioning a
  // very different matrix: the fp64 outer CG still converges, but needs
  // more iterations — exactly what drift measures.  The baseline carries
  // over from the pre-update setup (same chain).
  std::vector<EdgeDelta> deltas;
  for (std::size_t i = 0; i < g.edges.size(); i += 2) {
    const Edge& e = g.edges[i];
    deltas.push_back({e.u, e.v, e.w * 1e3});
  }
  SolverSetup updated = setup.update(deltas).value();
  EXPECT_EQ(updated.quality().baseline_iterations, q0.baseline_iterations);
  (void)updated.solve(b).value();
  SetupQuality q1 = updated.quality();
  EXPECT_GT(q1.last_iterations, q1.baseline_iterations);
  EXPECT_GT(q1.drift, 1.0);
}

// ---------------------------------------------------------------------------
// Snapshot format v3: a snapshot taken AFTER updates reloads bitwise —
// including update_seq, the quality counters, and chain staleness.

TEST(UpdateSnapshot, UpdatedSetupRoundTripsBitwise) {
  GeneratedGraph g = grid2d(9, 9);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  Vec b = consistent_rhs(g.n, 49);
  (void)setup.solve(b).value();  // record the fresh-chain baseline
  Edge e0 = g.edges.front();
  SolverSetup updated = setup.update({{e0.u, e0.v, e0.w * 8}}).value();
  (void)updated.solve(b).value();  // record post-update last_iterations
  SetupQuality q = updated.quality();
  ASSERT_GT(updated.update_seq(), 0u);
  ASSERT_GT(q.stale_components, 0u);

  std::string dir = ::testing::TempDir();
  std::string path1 =
      dir + "parsdd_upd_" + std::to_string(::getpid()) + "_a.snap";
  std::string path2 =
      dir + "parsdd_upd_" + std::to_string(::getpid()) + "_b.snap";
  ASSERT_TRUE(updated.Save(path1).ok());
  SolverSetup loaded = SolverSetup::Load(path1).value();
  // v3 carries the full dynamic state.
  EXPECT_EQ(loaded.update_seq(), updated.update_seq());
  EXPECT_EQ(loaded.quality().baseline_iterations, q.baseline_iterations);
  EXPECT_EQ(loaded.quality().last_iterations, q.last_iterations);
  EXPECT_EQ(loaded.quality().stale_components, q.stale_components);
  // Bitwise solve fidelity and bitwise re-save fidelity.
  Vec x0 = updated.solve(b).value();
  Vec x1 = loaded.solve(b).value();
  ASSERT_EQ(x0.size(), x1.size());
  EXPECT_EQ(std::memcmp(x0.data(), x1.data(), x0.size() * sizeof(double)), 0);
  ASSERT_TRUE(loaded.Save(path2).ok());
  EXPECT_EQ(test_util::file_bytes(path1), test_util::file_bytes(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// ---------------------------------------------------------------------------
// SolverService integration.

TEST(ServiceUpdate, WeightOnlyAppliesSynchronouslyWithNoRebuild) {
  SolverService service;
  GeneratedGraph g = grid2d(8, 8);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  SetupInfo before = service.info(h).value();
  ASSERT_NE(before.fingerprint_lo | before.fingerprint_hi, 0u);
  EXPECT_EQ(before.update_seq, 0u);

  Edge e0 = g.edges.front();
  std::vector<EdgeDelta> deltas = {{e0.u, e0.v, e0.w * 4}};
  UpdateAck ack = service.update(h, deltas).value();
  EXPECT_EQ(ack.tier, UpdateTier::kStaleChain);
  EXPECT_FALSE(ack.deferred);
  EXPECT_FALSE(ack.rebuild_scheduled);
  EXPECT_EQ(ack.update_seq, 1u);

  SetupInfo after = service.info(h).value();
  EXPECT_EQ(after.update_seq, 1u);
  EXPECT_GT(after.stale_components, 0u);
  // The fingerprint extended: the updated handle can never alias the
  // pre-update cache entry.
  EXPECT_TRUE(after.fingerprint_lo != before.fingerprint_lo ||
              after.fingerprint_hi != before.fingerprint_hi);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.rebuilds_completed, 0u);
  EXPECT_EQ(stats.rebuilds_in_flight, 0u);

  EdgeList ref = apply_deltas_reference(g.edges, deltas);
  Vec b = consistent_rhs(g.n, 50);
  Vec x = service.submit(h, b).get().value().x;
  EXPECT_LE(rel_residual(g.n, ref, x, b), kResidualHeadroom);
}

TEST(ServiceUpdate, StructuralSwapsAsyncWithZeroFailedSolves) {
  ServiceOptions sopts;
  sopts.workers = 2;
  SolverService service(sopts);
  GeneratedGraph g = grid2d(12, 12);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  Vec b = consistent_rhs(g.n, 51);

  // Keep solves in flight across the update and the swap.
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(service.submit(h, b));

  std::vector<EdgeDelta> deltas = {{0, 27, 2.0}};  // intra-component insert
  UpdateAck ack = service.update(h, deltas).value();
  EXPECT_TRUE(ack.rebuild_scheduled);

  for (int i = 0; i < 16; ++i) futures.push_back(service.submit(h, b));
  for (auto& f : futures) {
    StatusOr<SolveResult> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  }
  service.drain();  // waits for the rebuild swap too

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.rebuilds_completed, 1u);
  EXPECT_EQ(stats.rebuilds_in_flight, 0u);
  EXPECT_GE(stats.updates_applied, 1u);
  SetupInfo info = service.info(h).value();
  EXPECT_EQ(info.update_seq, 1u);
  EXPECT_EQ(info.stale_components, 0u);

  // Post-swap solves answer for the UPDATED graph.
  EdgeList ref = apply_deltas_reference(g.edges, deltas);
  Vec x = service.submit(h, b).get().value().x;
  EXPECT_LE(rel_residual(g.n, ref, x, b), kResidualHeadroom);
}

TEST(ServiceUpdate, UpdateStreamUnderConcurrentSolvesHasZeroFailures) {
  // Client threads solve in a loop while the main thread streams
  // weight-only batches, then inserts and removes a chord (each an async
  // rebuild).  No solve and no update may fail, and the handle ends up
  // answering for the original graph again.
  ServiceOptions sopts;
  sopts.workers = 2;
  SolverService service(sopts);
  GeneratedGraph g = grid2d(12, 12);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  std::vector<Vec> rhs;
  for (std::uint64_t j = 0; j < 4; ++j) {
    rhs.push_back(consistent_rhs(g.n, 60 + j));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; !stop.load(); ++i) {
        StatusOr<SolveResult> r = service.submit(h, rhs[(c + i) % 4]).get();
        (r.ok() ? ok : failed).fetch_add(1);
      }
    });
  }
  auto await_swap = [&service] {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (service.stats().rebuilds_in_flight != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(service.stats().rebuilds_in_flight, 0u);
  };

  // Rescale the same 8 edges up and back down, so the weights end where
  // they started.  EXPECT, not ASSERT, until the clients are joined: an
  // early return would destroy joinable threads.
  constexpr int kWeightBatches = 16;
  for (int i = 0; i < kWeightBatches; ++i) {
    std::vector<EdgeDelta> batch;
    const double scale = i % 2 == 0 ? 1.5 : 1.0;
    for (std::size_t e = 0; e < 8; ++e) {
      batch.push_back({g.edges[e].u, g.edges[e].v, g.edges[e].w * scale});
    }
    StatusOr<UpdateAck> ack = service.update(h, batch);
    EXPECT_TRUE(ack.ok()) << ack.status().to_string();
  }
  const EdgeDelta chord{0, 40, 2.0};
  StatusOr<UpdateAck> ins = service.update(h, {chord});
  EXPECT_TRUE(ins.ok()) << ins.status().to_string();
  await_swap();
  StatusOr<UpdateAck> rem = service.update(h, {{chord.u, chord.v, 0.0}});
  EXPECT_TRUE(rem.ok()) << rem.status().to_string();
  await_swap();

  stop.store(true);
  for (std::thread& t : clients) t.join();
  service.drain();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GE(service.stats().rebuilds_completed, 2u);

  Vec x = service.submit(h, rhs[0]).get().value().x;
  EXPECT_LE(rel_residual(g.n, g.edges, x, rhs[0]), kResidualHeadroom);
}

TEST(ServiceUpdate, CacheNeverServesUpdatedSetup) {
  SolverService service;
  GeneratedGraph g = grid2d(8, 8);
  SetupHandle h1 = service.register_laplacian(g.n, g.edges).value();
  Edge e0 = g.edges.front();
  std::vector<EdgeDelta> deltas = {{e0.u, e0.v, e0.w * 100}};
  ASSERT_TRUE(service.update(h1, deltas).ok());

  // Registering the ORIGINAL graph again must hit the cache with the
  // pristine pre-update setup — never the updated one.
  SetupHandle h2 = service.register_laplacian(g.n, g.edges).value();
  EXPECT_EQ(service.stats().setup_cache_hits, 1u);
  SetupInfo i1 = service.info(h1).value();
  SetupInfo i2 = service.info(h2).value();
  EXPECT_EQ(i2.update_seq, 0u);
  EXPECT_TRUE(i1.fingerprint_lo != i2.fingerprint_lo ||
              i1.fingerprint_hi != i2.fingerprint_hi);

  // h2 answers bitwise as a from-scratch build of the original graph.
  Vec b = consistent_rhs(g.n, 52);
  Vec x2 = service.submit(h2, b).get().value().x;
  SolverSetup fresh = SolverSetup::for_laplacian(g.n, g.edges);
  Vec xf = fresh.solve(b).value();
  ASSERT_EQ(x2.size(), xf.size());
  EXPECT_EQ(std::memcmp(x2.data(), xf.data(), x2.size() * sizeof(double)), 0);
  // And h1 answers for the updated graph (the two genuinely differ).
  EdgeList ref = apply_deltas_reference(g.edges, deltas);
  Vec x1 = service.submit(h1, b).get().value().x;
  EXPECT_LE(rel_residual(g.n, ref, x1, b), kResidualHeadroom);
  EXPECT_NE(std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)), 0);
}

TEST(ServiceUpdate, QualityMonitorSchedulesRebuild) {
  ServiceOptions sopts;
  sopts.stale_rebuild_factor = 1.05;  // low threshold: trigger reliably
  SolverService service(sopts);
  GeneratedGraph g = grid2d(10, 10);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  Vec b = consistent_rhs(g.n, 53);
  // Record the fresh-chain baseline.
  ASSERT_TRUE(service.submit(h, b).get().ok());
  // Violent weight-only perturbation: stale chain, high drift.
  std::vector<EdgeDelta> deltas;
  for (std::size_t i = 0; i < g.edges.size(); i += 2) {
    const Edge& e = g.edges[i];
    deltas.push_back({e.u, e.v, e.w * 1e3});
  }
  UpdateAck ack = service.update(h, deltas).value();
  EXPECT_EQ(ack.tier, UpdateTier::kStaleChain);
  // The next solves run on the stale chain, measure the drift, and the
  // monitor schedules the async refresh.
  for (int i = 0; i < 4 && service.stats().quality_rebuilds == 0; ++i) {
    ASSERT_TRUE(service.submit(h, b).get().ok());
    service.drain();
  }
  ServiceStats stats = service.stats();
  EXPECT_GE(stats.quality_rebuilds, 1u);
  EXPECT_GE(stats.rebuilds_completed, 1u);
  SetupInfo info = service.info(h).value();
  EXPECT_EQ(info.stale_components, 0u);  // refreshed chains
  EXPECT_EQ(info.update_seq, deltas.size());
  // Still serving the updated graph, now on fresh chains.
  EdgeList ref = apply_deltas_reference(g.edges, deltas);
  Vec x = service.submit(h, b).get().value().x;
  EXPECT_LE(rel_residual(g.n, ref, x, b), kResidualHeadroom);
}

TEST(ServiceUpdate, ErrorsAreTyped) {
  SolverService service;
  GeneratedGraph g = grid2d(4, 4);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  EXPECT_EQ(service.update(SetupHandle{9999}, {{0, 1, 1.0}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.update(h, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.update(h, {{0, g.n, 1.0}}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Bitwise determinism of post-update setups across pool sizes and SIMD
// backends (subprocess matrix; the env vars are latched on first use, so
// each configuration is a child re-execution, as in test_determinism).

MultiVec update_child_solve() {
  GeneratedGraph g = grid2d(40, 30);
  randomize_weights_log_uniform(g.edges, 1e3, 17);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  // One weight-only batch (stale-chain path), then one structural batch
  // (component rebuild path): the solve below exercises both shared and
  // rebuilt chains.
  Edge e0 = g.edges.front();
  SolverSetup staled = setup.update({{e0.u, e0.v, e0.w * 3}}).value();
  SolverSetup updated = staled.update({{5, 777, 2.0}}).value();
  MultiVec b(g.n, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    b.set_column(c, consistent_rhs(g.n, 19 + c));
  }
  return updated.solve_batch(b).value();
}

// Child mode: invoked by the matrix test below with PARSDD_UPDATE_OUT set;
// a plain ctest run executes the workload once as a smoke test.
TEST(UpdateDeterminismChild, SolveAndDump) {
  MultiVec x = update_child_solve();
  ASSERT_GT(x.rows(), 0u);
  const char* out = std::getenv("PARSDD_UPDATE_OUT");
  if (!out) return;
  std::FILE* f = std::fopen(out, "wb");
  ASSERT_NE(f, nullptr) << out;
  ASSERT_EQ(std::fwrite(x.data().data(), sizeof(double), x.data().size(), f),
            x.data().size());
  std::fclose(f);
}

TEST(UpdateDeterminism, BitwiseAcrossPoolSizesAndBackends) {
  std::string exe = test_util::self_exe();
  ASSERT_FALSE(exe.empty());
  std::string dir = ::testing::TempDir();
  // Pool sizes 1/2/8 crossed with representative SIMD backends
  // (unsupported explicit requests fall back, and the contract is that the
  // bytes agree wherever each lands).
  struct Config {
    int threads;
    const char* simd;
  };
  const Config configs[] = {{1, "scalar"}, {2, "scalar"}, {8, "scalar"},
                            {1, "auto"},   {2, "avx2"},   {8, "avx512"}};
  std::vector<std::vector<std::uint8_t>> results;
  std::vector<std::string> paths;
  for (const Config& c : configs) {
    std::string out = dir + "parsdd_upddet_" + std::to_string(::getpid()) +
                      "_" + std::to_string(c.threads) + "_" + c.simd + ".bin";
    paths.push_back(out);
    std::string cmd = "PARSDD_THREADS=" + std::to_string(c.threads) +
                      " PARSDD_SIMD=" + c.simd + " PARSDD_UPDATE_OUT='" + out +
                      "' '" + exe +
                      "' --gtest_filter=UpdateDeterminismChild.SolveAndDump"
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    ASSERT_EQ(rc, 0) << "child PARSDD_THREADS=" << c.threads
                     << " PARSDD_SIMD=" << c.simd << " failed";
    results.push_back(test_util::file_bytes(out));
    ASSERT_FALSE(results.back().empty());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i])
        << "config (threads=" << configs[i].threads << ", simd="
        << configs[i].simd << ") diverged bitwise from (1, scalar)";
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

}  // namespace
}  // namespace parsdd
