// SolverService: the asynchronous serving front door.
//
// PR 1 made batching the fast path — solve_batch amortizes each chain
// traversal (Definition 6.3) across k right-hand sides — but only callers
// who hand-assemble a MultiVec block get the win.  A serving workload is
// the opposite shape: many independent clients, each asking for ONE solve.
// SolverService closes that gap with dynamic micro-batching:
//
//   1. register_*() builds a SolverSetup once and returns an opaque
//      SetupHandle; the registry owns the setup, clients own the handle.
//   2. submit(handle, b) enqueues a single-RHS request from any thread and
//      returns a std::future immediately.
//   3. A dispatcher thread coalesces the single-RHS requests pending
//      against the same handle into one solve_batch block (bounded by
//      max_batch columns and max_linger_us of waiting), then hands the
//      block to executor threads (parallel/task_queue.h) so it can keep
//      collecting the next block while the solve runs.
//
// Setup builds themselves are amortized two further ways (PR 5):
//
//   * an LRU SetupCache (service/setup_cache.h) keyed by a fingerprint of
//     the graph + build options answers repeat register_laplacian /
//     register_sdd calls with the already-built setup — each registration
//     still gets its own handle, but the chain is built once;
//   * snapshot(handle, path) persists a registered setup as a versioned
//     binary snapshot (SolverSetup::Save), and register_from_snapshot(path)
//     warm-starts a fresh process from it, skipping the build entirely
//     while answering bitwise-identically (the persistence contract
//     test_persistence locks in).
//
// Because column c of a solve_batch performs the exact arithmetic sequence
// of an independent solve (multivec.h determinism contract), coalescing is
// invisible to clients: every future resolves to the bitwise-identical
// vector an isolated solve() would have produced — only sooner.
//
// All failures are typed Status values delivered through the future (or
// returned directly from registration): InvalidArgument for malformed
// requests, NotFound for stale handles, ResourceExhausted for queue
// backpressure, Unavailable once shutdown has begun.  The service never
// throws and never aborts on client input.  See DESIGN.md, "Service
// dispatch" for the queueing model.
//
// Locking model: one service Mutex (util/thread_annotations.h) guards the
// registry, the per-handle queues, the ticket FIFO, the pipeline counters,
// and the SetupCache; every guarded member and lock-requiring helper in the
// Impl carries clang thread-safety annotations, so the discipline is
// enforced at compile time under -Wthread-safety (DESIGN.md §7 has the full
// mutex → state → tool matrix).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "linalg/csr_matrix.h"
#include "linalg/multivec.h"
#include "solver/solver_setup.h"
#include "util/status.h"

namespace parsdd {

class TaskQueue;

/// Opaque ticket for a registered SolverSetup.  Copyable, trivially
/// shareable between threads; id 0 is never issued.
struct SetupHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

struct ServiceOptions {
  /// Most columns a dispatched block may carry.
  std::uint32_t max_batch = 64;
  /// How long the dispatcher lets a non-full block linger, measured from
  /// the arrival of its oldest request, waiting for co-batchable requests.
  /// 0 dispatches immediately with whatever is pending.
  std::uint32_t max_linger_us = 200;
  /// Queued-request cap across all handles; beyond it submits are rejected
  /// with ResourceExhausted (shed load at the door, not in the kernels).
  std::size_t max_pending = 4096;
  /// Executor threads running the dispatched solve_batch blocks.
  std::uint32_t workers = 1;
  /// When false every request is dispatched as its own 1-column block —
  /// the "no micro-batching" baseline bench_service measures against.
  bool coalesce = true;
  /// Built setups kept for fingerprint-matched reuse across registrations
  /// (service/setup_cache.h); 0 disables the cache.  Snapshot-loaded
  /// setups bypass it (their build inputs are not known to the service).
  std::size_t setup_cache_capacity = 8;
  /// Stale-chain quality threshold (DESIGN.md §10): when a handle that took
  /// weight-only updates sees its outer-CG iteration count drift to >= this
  /// factor times the fresh-chain baseline, the service schedules an async
  /// full rebuild (fresh chains, reset baseline) that swaps in atomically
  /// while the stale setup keeps serving.  <= 0 disables the monitor.
  double stale_rebuild_factor = 2.0;
};

/// One client's answer: the solution column plus its iteration stats and
/// how many columns shared the dispatched block (1 = rode alone).
struct SolveResult {
  Vec x;
  IterStats stats;
  std::uint32_t coalesced_cols = 1;
};

/// Answer for an explicit submit_batch request.
struct BatchSolveResult {
  MultiVec x;
  BatchSolveReport report;
};

/// Counters and gauges; read with stats() at any time.  The first block is
/// monotone; the gauges below it are instantaneous values sampled under the
/// service mutex at the stats() call — the load signal the distributed
/// coordinator (dist/coordinator.h) reads per worker to drive rebalancing.
struct ServiceStats {
  std::uint64_t submitted = 0;          // accepted requests (single + batch)
  std::uint64_t rejected = 0;           // backpressure rejections
  std::uint64_t completed = 0;          // requests answered (incl. errors)
  std::uint64_t dispatched_blocks = 0;  // solve_batch calls issued
  std::uint64_t dispatched_cols = 0;    // columns across those blocks
  std::uint64_t setup_cache_hits = 0;   // registrations served from cache
  std::uint64_t setup_cache_misses = 0;  // registrations that built a setup
  std::uint64_t updates_applied = 0;    // delta batches absorbed into serving
  std::uint64_t updates_deferred = 0;   // batches queued behind a rebuild
  std::uint64_t rebuilds_completed = 0;  // async rebuilds swapped in
  std::uint64_t quality_rebuilds = 0;   // rebuilds the drift monitor started
  std::uint64_t rebuild_failures = 0;   // delta batches dropped by a rebuild
  std::uint64_t last_rebuild_ms = 0;    // duration of the last swap-in
  // Live gauges (not monotone).
  std::uint64_t queue_depth = 0;       // accepted, not yet dispatched
  std::uint64_t in_flight_cols = 0;    // dispatched, not yet answered
  std::uint64_t in_flight_blocks = 0;  // solve_batch blocks executing now
  std::uint64_t rebuilds_in_flight = 0;  // async rebuilds running now
  /// Queued (undispatched) requests per handle, ascending handle id;
  /// handles with nothing queued are omitted.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_handle_pending;
};

/// Shape summary of a registered setup.
struct SetupInfo {
  std::uint32_t dimension = 0;
  std::uint32_t components = 0;
  std::uint32_t chain_levels = 0;
  std::size_t chain_edges = 0;
  /// Deltas absorbed via update() since the setup was first built.
  std::uint64_t update_seq = 0;
  /// Components currently preconditioned by a stale chain (quality monitor).
  std::uint32_t stale_components = 0;
  /// The handle's current 128-bit fingerprint (setup_cache.h), extended by
  /// every absorbed delta batch so an updated handle never aliases its
  /// pre-update cache entry.  Both zero when the service has no fingerprint
  /// for the handle (register_setup / register_from_snapshot paths).
  std::uint64_t fingerprint_lo = 0;
  std::uint64_t fingerprint_hi = 0;
};

/// What SolverService::update did with a delta batch.
struct UpdateAck {
  /// The tier the batch classified as (solver_setup.h).
  UpdateTier tier = UpdateTier::kStaleChain;
  /// True when an async rebuild was already absorbing this handle's deltas:
  /// the batch was validated, queued, and will be replayed by that rebuild
  /// before it swaps in — update_seq below is 0 (unknown until the swap).
  bool deferred = false;
  /// True when this call left an async rebuild running (structural batch or
  /// deferred behind one); solves keep running against the old setup until
  /// the rebuilt one swaps in atomically (drain() waits for the swap).
  bool rebuild_scheduled = false;
  /// The handle's update_seq after the batch was absorbed (synchronous
  /// stale-chain tier only; 0 when the apply is asynchronous).
  std::uint64_t update_seq = 0;
};

class SolverService {
 public:
  explicit SolverService(const ServiceOptions& opts = {});
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;
  /// Stops intake, answers every queued request, joins all threads.
  ~SolverService();

  /// Builds a SolverSetup for the Laplacian of (V=[0,n), edges) and
  /// registers it.  InvalidArgument on out-of-range edge endpoints.
  StatusOr<SetupHandle> register_laplacian(std::uint32_t n,
                                           const EdgeList& edges,
                                           const SddSolverOptions& opts = {});

  /// Builds a SolverSetup for a general SDD matrix and registers it.
  StatusOr<SetupHandle> register_sdd(const CsrMatrix& a,
                                     const SddSolverOptions& opts = {});

  /// Adopts an existing setup (e.g. from SddSolver::shared_setup()).
  StatusOr<SetupHandle> register_setup(
      std::shared_ptr<const SolverSetup> setup);

  /// Warm-start: loads a SolverSetup snapshot (SolverSetup::Load) and
  /// registers it — a restarted server resumes serving a graph without
  /// rebuilding its chain.  NotFound for a missing file, InvalidArgument
  /// for a corrupt/mismatched one.
  StatusOr<SetupHandle> register_from_snapshot(const std::string& path);

  /// Persists a registered setup as a snapshot a later
  /// register_from_snapshot (any process) can load.  NotFound for stale
  /// handles.
  Status snapshot(SetupHandle handle, const std::string& path) const;

  /// Drops the handle.  In-flight and queued requests against it still
  /// complete (they hold their own reference to the setup); new submits
  /// get NotFound.
  Status unregister(SetupHandle handle);

  /// Shape of a registered setup; NotFound for stale handles.
  StatusOr<SetupInfo> info(SetupHandle handle) const;

  /// Enqueues one right-hand side.  The future resolves to the solution
  /// (bitwise identical to an isolated solve of b) or to a Status error.
  /// Never blocks on the solve; may briefly take the service mutex.  A b
  /// of the wrong size or with a NaN or infinite entry resolves to
  /// InvalidArgument at once and never joins a coalesced block.
  std::future<StatusOr<SolveResult>> submit(SetupHandle handle, Vec b);

  /// Enqueues a pre-assembled k-column block; dispatched as its own
  /// solve_batch (already amortized — no re-coalescing).  Validated like
  /// submit().
  std::future<StatusOr<BatchSolveResult>> submit_batch(SetupHandle handle,
                                                       MultiVec b);

  /// Applies a dynamic edge-delta batch to a registered handle (ROADMAP
  /// item 4; DESIGN.md §10).  Weight-only batches apply synchronously on
  /// the stale-chain tier — the handle keeps its preconditioner chains and
  /// only the measured Laplacian changes, so no solve ever waits on a
  /// rebuild.  Structural batches (or batches arriving while a rebuild is
  /// in flight) are absorbed by an async rebuild on a dedicated thread;
  /// in-flight and future solves keep using the old setup until the new one
  /// swaps in atomically under the registry mutex.  Updated handles get an
  /// extended fingerprint and are never inserted into the setup cache, so a
  /// stale pre-update cache entry can never be served for this handle (nor
  /// the updated setup for a fresh registration of the original graph).
  /// Errors: NotFound for stale handles, InvalidArgument for malformed
  /// deltas or a Gremban-lifted SDD setup, Unavailable during shutdown.
  StatusOr<UpdateAck> update(SetupHandle handle,
                             const std::vector<EdgeDelta>& deltas);

  /// Blocks until every accepted request has been answered and every async
  /// rebuild has swapped in (or been abandoned).
  void drain();

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace parsdd
