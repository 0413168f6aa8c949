// SolverService: the async serving front door.
//
// Contracts under test:
//   * registration returns live handles; stale/unknown handles are NotFound;
//   * submit validates dimensions (InvalidArgument) and sheds load beyond
//     max_pending (ResourceExhausted) without crashing or blocking;
//   * every future resolves to the bitwise-identical vector an isolated
//     solve() of the same right-hand side produces, whether or not the
//     dispatcher coalesced it into a wider block;
//   * submit_batch round-trips a whole block;
//   * drain()/destruction answer everything that was accepted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <vector>

#include "graph/generators.h"
#include "linalg/laplacian.h"
#include "service/solver_service.h"
#include "solver/sdd_solver.h"

namespace parsdd {
namespace {

bool bitwise_equal(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SolverService, RegisterInfoUnregister) {
  SolverService service;
  GeneratedGraph g = grid2d(8, 8);
  StatusOr<SetupHandle> h = service.register_laplacian(g.n, g.edges);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->valid());

  StatusOr<SetupInfo> info = service.info(*h);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->dimension, g.n);
  EXPECT_EQ(info->components, 1u);

  EXPECT_TRUE(service.unregister(*h).ok());
  EXPECT_EQ(service.unregister(*h).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.info(*h).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.submit(*h, Vec(g.n, 0.0)).get().status().code(),
            StatusCode::kNotFound);
}

TEST(SolverService, RegisterRejectsMalformedGraph) {
  SolverService service;
  EdgeList bad = {{0, 7, 1.0}};  // endpoint 7 out of range for n=3
  EXPECT_EQ(service.register_laplacian(3, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.register_setup(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverService, SubmitValidatesDimensions) {
  SolverService service;
  GeneratedGraph g = grid2d(6, 6);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  EXPECT_EQ(service.submit(h, Vec(g.n + 1, 0.0)).get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.submit_batch(h, MultiVec(g.n, 0)).get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service.submit_batch(h, MultiVec(g.n - 1, 2)).get().status().code(),
      StatusCode::kInvalidArgument);
}

TEST(SolverService, SingleSubmitMatchesDirectSolveBitwise) {
  SolverService service;
  GeneratedGraph g = grid2d(12, 12);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  SddSolver direct = SddSolver::for_laplacian(g.n, g.edges);
  Vec b = random_unit_like(g.n, 21);
  StatusOr<SolveResult> res = service.submit(h, b).get();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->stats.converged);
  EXPECT_GE(res->coalesced_cols, 1u);
  EXPECT_TRUE(bitwise_equal(res->x, direct.solve(b).value()));
}

TEST(SolverService, CoalescedSubmitsMatchIndependentSolvesBitwise) {
  // Force maximal coalescing: a long linger and one executor mean the
  // burst below lands in a handful of wide blocks, and the determinism
  // contract says nobody can tell the difference.
  ServiceOptions opts;
  opts.max_batch = 16;
  opts.max_linger_us = 20000;
  SolverService service(opts);
  GeneratedGraph g = grid2d(12, 12);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  SddSolver direct = SddSolver::for_laplacian(g.n, g.edges);

  constexpr std::size_t kReqs = 24;
  std::vector<Vec> rhs;
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (std::size_t i = 0; i < kReqs; ++i) {
    rhs.push_back(random_unit_like(g.n, 500 + i));
    futures.push_back(service.submit(h, rhs.back()));
  }
  bool saw_coalesced = false;
  for (std::size_t i = 0; i < kReqs; ++i) {
    StatusOr<SolveResult> res = futures[i].get();
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    saw_coalesced |= res->coalesced_cols > 1;
    EXPECT_TRUE(bitwise_equal(res->x, direct.solve(rhs[i]).value()))
        << "request " << i << " (rode in a " << res->coalesced_cols
        << "-column block)";
  }
  // With a 20ms linger and a burst submitted faster than one solve, at
  // least one block must have carried more than one column.
  EXPECT_TRUE(saw_coalesced);
  service.drain();  // counters are final only once in-flight accounting is
  ServiceStats st = service.stats();
  EXPECT_EQ(st.submitted, kReqs);
  EXPECT_EQ(st.completed, kReqs);
  EXPECT_LT(st.dispatched_blocks, static_cast<std::uint64_t>(kReqs));
}

TEST(SolverService, NonFiniteRhsFailsAloneInCoalescedBlock) {
  // The bad requests arrive inside the good ones' 20 ms linger window.
  // They are refused at submit, before coalescing, so the good ones still
  // get bitwise their solo answers.
  ServiceOptions opts;
  opts.max_batch = 16;
  opts.max_linger_us = 20000;
  SolverService service(opts);
  GeneratedGraph g = grid2d(12, 12);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  SddSolver direct = SddSolver::for_laplacian(g.n, g.edges);

  Vec good1 = random_unit_like(g.n, 31), good2 = random_unit_like(g.n, 32);
  Vec nan_rhs = random_unit_like(g.n, 33);
  nan_rhs[5] = std::nan("");
  MultiVec inf_block(g.n, 2, 0.0);
  inf_block.at(3, 1) = std::numeric_limits<double>::infinity();

  auto f1 = service.submit(h, good1);
  auto fbad = service.submit(h, nan_rhs);
  auto fbad_batch = service.submit_batch(h, inf_block);
  auto f2 = service.submit(h, good2);

  EXPECT_EQ(fbad.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fbad_batch.get().status().code(), StatusCode::kInvalidArgument);
  StatusOr<SolveResult> r1 = f1.get(), r2 = f2.get();
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();
  ASSERT_TRUE(r2.ok()) << r2.status().to_string();
  EXPECT_TRUE(bitwise_equal(r1->x, direct.solve(good1).value()));
  EXPECT_TRUE(bitwise_equal(r2->x, direct.solve(good2).value()));
  service.drain();
  EXPECT_EQ(service.stats().submitted, 2u);
}

TEST(SolverService, SubmitBatchRoundTrips) {
  SolverService service;
  GeneratedGraph g = grid2d(10, 10);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  SddSolver direct = SddSolver::for_laplacian(g.n, g.edges);
  std::vector<Vec> cols;
  for (std::size_t c = 0; c < 4; ++c) {
    cols.push_back(random_unit_like(g.n, 70 + c));
  }
  MultiVec b = MultiVec::from_columns(cols);
  StatusOr<BatchSolveResult> res = service.submit_batch(h, b).get();
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->x.cols(), cols.size());
  ASSERT_EQ(res->report.column_stats.size(), cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    EXPECT_TRUE(res->report.column_stats[c].converged);
    EXPECT_TRUE(bitwise_equal(res->x.column(c), direct.solve(cols[c]).value()))
        << "column " << c;
  }
}

TEST(SolverService, BackpressureReturnsResourceExhausted) {
  ServiceOptions opts;
  opts.max_pending = 4;
  opts.max_linger_us = 50000;  // hold the first block open so the queue fills
  opts.max_batch = 4;
  SolverService service(opts);
  GeneratedGraph g = grid2d(10, 10);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();

  std::vector<std::future<StatusOr<SolveResult>>> futures;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(service.submit(h, Vec(g.n, 1.0)));
  }
  for (auto& f : futures) {
    StatusOr<SolveResult> res = f.get();
    if (!res.ok()) {
      EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  // 64 submits against a 4-deep queue faster than any solve completes:
  // some must be shed, and the shed ones are typed, not crashed.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(service.stats().rejected, rejected);
}

TEST(SolverService, UncoalescedModeStillCorrect) {
  ServiceOptions opts;
  opts.max_batch = 1;  // every request rides alone in a 1-column block
  SolverService service(opts);
  GeneratedGraph g = grid2d(8, 8);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  SddSolver direct = SddSolver::for_laplacian(g.n, g.edges);
  std::vector<Vec> rhs;
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    rhs.push_back(random_unit_like(g.n, 900 + i));
    futures.push_back(service.submit(h, rhs.back()));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    StatusOr<SolveResult> res = futures[i].get();
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->coalesced_cols, 1u);
    EXPECT_TRUE(bitwise_equal(res->x, direct.solve(rhs[i]).value()));
  }
}

TEST(SolverService, StatsGaugesTrackQueueAndInFlight) {
  ServiceOptions opts;
  opts.max_linger_us = 200000;  // park the burst so the sample below sees it
  opts.max_batch = 4;
  SolverService service(opts);
  GeneratedGraph g = grid2d(8, 8);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();

  ServiceStats idle = service.stats();
  EXPECT_EQ(idle.queue_depth, 0u);
  EXPECT_EQ(idle.in_flight_cols, 0u);
  EXPECT_EQ(idle.in_flight_blocks, 0u);
  EXPECT_TRUE(idle.per_handle_pending.empty());

  constexpr std::size_t kReqs = 6;
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (std::size_t i = 0; i < kReqs; ++i) {
    futures.push_back(service.submit(h, Vec(g.n, 1.0)));
  }
  ServiceStats busy = service.stats();
  // Conservation: every accepted request is queued, in flight, or already
  // answered at the instant of the sample — never unaccounted for.
  EXPECT_EQ(busy.queue_depth + busy.in_flight_cols + busy.completed, kReqs);
  EXPECT_LE(busy.in_flight_blocks, busy.in_flight_cols);
  std::uint64_t per_handle_total = 0;
  for (const auto& [id, pending] : busy.per_handle_pending) {
    EXPECT_EQ(id, h.id);
    per_handle_total += pending;
  }
  EXPECT_EQ(per_handle_total, busy.queue_depth);

  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  service.drain();
  ServiceStats done = service.stats();
  EXPECT_EQ(done.queue_depth, 0u);
  EXPECT_EQ(done.in_flight_cols, 0u);
  EXPECT_EQ(done.in_flight_blocks, 0u);
  EXPECT_TRUE(done.per_handle_pending.empty());
  EXPECT_EQ(done.completed, kReqs);
}

TEST(SolverService, StatsCountEveryAnswerAlreadyInHand) {
  // A block is counted completed before any of its promises is set, so a
  // stats() read made right after future.get() counts that answer — even
  // while the executor is still setting the promises of the block's other
  // columns.
  ServiceOptions opts;
  opts.max_linger_us = 20000;  // coalesce each burst into wide blocks
  SolverService service(opts);
  GeneratedGraph g = grid2d(32, 32);
  SetupHandle h = service.register_laplacian(g.n, g.edges).value();
  constexpr std::uint64_t kRounds = 20, kBurst = 16;
  std::uint64_t answered = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    std::vector<std::future<StatusOr<SolveResult>>> futures;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      futures.push_back(
          service.submit(h, random_unit_like(g.n, round * kBurst + i)));
    }
    for (auto& f : futures) {
      ASSERT_TRUE(f.get().ok());
      ++answered;
      ASSERT_GE(service.stats().completed, answered) << "round " << round;
    }
    ServiceStats s = service.stats();
    ASSERT_EQ(s.completed, answered);
    ASSERT_EQ(s.in_flight_cols, 0u);
    ASSERT_EQ(s.in_flight_blocks, 0u);
  }
  MultiVec b = MultiVec::from_columns({random_unit_like(g.n, 0)});
  ASSERT_TRUE(service.submit_batch(h, b).get().ok());
  ServiceStats s = service.stats();
  EXPECT_EQ(s.completed, answered + 1);
  EXPECT_EQ(s.in_flight_cols, 0u);
  EXPECT_EQ(s.in_flight_blocks, 0u);
}

TEST(SolverService, ShutdownWithPendingNeverHangsOrDrops) {
  // Tighter variant of the destruction test below: with load shedding in
  // play, every accepted future must still resolve — OK or typed — when
  // the service dies mid-burst.  (TSan lane covers the teardown races.)
  GeneratedGraph g = grid2d(10, 10);
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  {
    ServiceOptions opts;
    opts.max_linger_us = 50000;
    opts.max_pending = 8;
    SolverService service(opts);
    SetupHandle h = service.register_laplacian(g.n, g.edges).value();
    for (std::size_t i = 0; i < 32; ++i) {
      futures.push_back(service.submit(h, random_unit_like(g.n, 800 + i)));
    }
  }
  std::size_t answered = 0, typed = 0;
  for (auto& f : futures) {
    StatusOr<SolveResult> res = f.get();
    if (res.ok()) {
      EXPECT_TRUE(res->stats.converged);
      ++answered;
    } else {
      EXPECT_TRUE(res.status().code() == StatusCode::kResourceExhausted ||
                  res.status().code() == StatusCode::kUnavailable)
          << res.status().to_string();
      ++typed;
    }
  }
  EXPECT_EQ(answered + typed, 32u);
  EXPECT_GT(answered, 0u);
}

TEST(SolverService, DestructionAnswersEverythingAccepted) {
  GeneratedGraph g = grid2d(10, 10);
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  {
    ServiceOptions opts;
    opts.max_linger_us = 10000;
    SolverService service(opts);
    SetupHandle h = service.register_laplacian(g.n, g.edges).value();
    for (std::size_t i = 0; i < 12; ++i) {
      futures.push_back(service.submit(h, random_unit_like(g.n, 40 + i)));
    }
    // Service destroyed here with requests still queued/lingering.
  }
  for (auto& f : futures) {
    StatusOr<SolveResult> res = f.get();  // must not hang on a broken promise
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_TRUE(res->stats.converged);
  }
}

TEST(SolverService, AdoptsSharedSetupFromSddSolver) {
  SolverService service;
  GeneratedGraph g = grid2d(8, 8);
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges);
  SetupHandle h = service.register_setup(solver.shared_setup()).value();
  Vec b = random_unit_like(g.n, 77);
  StatusOr<SolveResult> res = service.submit(h, b).get();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(bitwise_equal(res->x, solver.solve(b).value()));
}

TEST(SolverService, GrembanSddHandleServesRequests) {
  SolverService service;
  std::vector<Triplet> ts = {
      {0, 0, 3.0},  {0, 1, 1.0},  {1, 0, 1.0},  {1, 1, 4.0},
      {1, 2, -2.0}, {2, 1, -2.0}, {2, 2, 3.0},
  };
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  SetupHandle h = service.register_sdd(a).value();
  EXPECT_EQ(service.info(h).value().dimension, 3u);
  SddSolver direct = SddSolver::for_sdd(a);
  Vec b = {1.0, 0.0, -1.0};
  StatusOr<SolveResult> res = service.submit(h, b).get();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(bitwise_equal(res->x, direct.solve(b).value()));
}

TEST(Status, BasicsAndStatusOr) {
  EXPECT_TRUE(OkStatus().ok());
  Status s = InvalidArgumentError("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad k");

  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e = NotFoundError("gone");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);

  // Copy/move keep the active member straight.
  StatusOr<std::vector<int>> a = std::vector<int>{1, 2, 3};
  StatusOr<std::vector<int>> b = a;
  EXPECT_EQ(b.value().size(), 3u);
  StatusOr<std::vector<int>> c = std::move(a);
  EXPECT_EQ(c.value().size(), 3u);
  c = NotFoundError("replaced");
  EXPECT_FALSE(c.ok());
  c = std::vector<int>{4};
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)[0], 4);
}

}  // namespace
}  // namespace parsdd
