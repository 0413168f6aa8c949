// Coordinator: the sharded multi-process front door (DESIGN.md §8).
//
// SolverService scales a single address space; the ROADMAP north star —
// heavy traffic from many clients — needs more processes.  Coordinator
// supervises N local parsdd_worker processes (dist/process_supervisor.h),
// each hosting the unchanged in-process SolverService, and exposes the
// same register_* / submit -> future<StatusOr<SolveResult>> surface, so a
// client ports from SolverService with one type change.
//
// Shard placement: every registered setup is backed by a snapshot file
// (PR 5 format), and the snapshot's trailer checksum — a content digest of
// the complete setup — is the shard key: worker = digest % N.  Shipping
// the snapshot *path* (workers share a filesystem with the coordinator;
// they mmap the file themselves) makes registration, migration, and
// post-crash re-registration all the same ~50 ms warm-start instead of a
// ~1 s rebuild.  register_laplacian / register_sdd build once in the
// coordinator process, save the snapshot into `snapshot_dir`, and then
// take the same shipping path.  rebalance() migrates a handle to an
// explicit worker (load gauges from worker_stats() are the signal).
//
// Fault recovery: each worker has a receiver thread whose blocking read
// observes worker death (stream EOF / reset) the instant it happens.  The
// receiver fails every in-flight request on that worker with a clean
// Unavailable (accepted requests are never silently dropped), reaps the
// corpse, respawns the binary, replays every owned handle's
// register-from-snapshot, and only then reopens the shard for submits.
// Requests submitted while the shard is down are refused Unavailable
// up front.  See DESIGN.md §8 for the full state machine.
//
// Backpressure mirrors the in-process dispatcher: a global max_pending
// bound over accepted-but-unanswered requests sheds load at the door with
// ResourceExhausted; per-worker fairness is delegated to each worker's own
// dispatcher (stale-ticket FIFO + linger), which this layer feeds the
// moment requests arrive so cross-client coalescing still happens.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "linalg/csr_matrix.h"
#include "service/solver_service.h"
#include "util/status.h"

namespace parsdd::dist {

struct CoordinatorOptions {
  /// Worker processes to spawn.
  std::uint32_t workers = 2;
  /// Path to the parsdd_worker binary; when empty, the PARSDD_WORKER_BIN
  /// environment variable is consulted.
  std::string worker_binary;
  /// Directory where register_laplacian / register_sdd persist the
  /// snapshots that back shard placement and crash recovery.  Registration
  /// by build fails InvalidArgument when unset; register_from_snapshot
  /// works regardless (the caller's path is the recovery medium).
  std::string snapshot_dir;
  /// Accepted-but-unanswered cap across all workers; beyond it submits are
  /// rejected ResourceExhausted (same load-shedding contract as the
  /// in-process service).
  std::size_t max_pending = 4096;
  /// Respawn dead workers and re-register their handles from snapshots.
  /// Off, a dead worker's shard stays down (tests use this).
  bool respawn = true;
  /// Forwarded to each worker's embedded SolverService (executor threads,
  /// micro-batch shape, per-worker backpressure).  The setup cache is a
  /// worker-local concern and keeps its default.
  std::uint32_t worker_threads = 1;
  std::uint32_t worker_max_batch = 64;
  std::uint32_t worker_linger_us = 200;
  std::size_t worker_max_pending = 4096;
};

/// Aggregated coordinator counters plus per-worker health; stats() samples
/// the gauges under the coordinator mutex.
struct DistWorkerInfo {
  bool up = false;
  std::uint64_t deaths = 0;     // stream-death events observed
  std::uint64_t handles = 0;    // setups currently placed on this worker
  std::uint64_t in_flight = 0;  // requests awaiting this worker's answer
};

struct DistStats {
  std::uint64_t submitted = 0;      // accepted (single + batch + RPCs)
  std::uint64_t rejected = 0;       // backpressure rejections
  std::uint64_t completed = 0;      // answered, incl. typed errors
  std::uint64_t worker_deaths = 0;  // across all shards
  std::uint64_t respawns = 0;       // successful recoveries
  /// Wall-clock of the most recent recovery: stream death -> shard
  /// reopened with every handle re-registered.  0 before any recovery.
  double last_recovery_ms = 0.0;
  std::uint64_t in_flight = 0;  // gauge: accepted, not yet answered
  std::vector<DistWorkerInfo> workers;
  /// Handles whose setup could not be restored during recovery (typically
  /// the backing snapshot was deleted from snapshot_dir), with the typed
  /// reason: submits against them fail Unavailable (never NotFound — the
  /// handle is still registered) until they are unregistered.
  std::vector<std::pair<std::uint64_t, std::string>> lost_handles;
};

class Coordinator {
 public:
  /// Spawns the workers and validates their kHello handshakes.  Fails
  /// (Internal / InvalidArgument) when the binary cannot be spawned or
  /// speaks the wrong wire version; no half-started coordinator escapes.
  static StatusOr<std::unique_ptr<Coordinator>> Start(
      const CoordinatorOptions& opts);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;
  /// Stops intake, asks every worker to drain (each answers everything it
  /// accepted), fails anything unanswerable with Unavailable, reaps the
  /// processes.  Never hangs on a wedged worker: SIGKILL backstop.
  ~Coordinator();

  /// Builds the setup in this process, snapshots it into snapshot_dir, and
  /// ships it to its shard.  InvalidArgument on malformed input or a
  /// fingerprint collision with an already-registered setup.
  StatusOr<SetupHandle> register_laplacian(std::uint32_t n,
                                           const EdgeList& edges,
                                           const SddSolverOptions& opts = {});
  StatusOr<SetupHandle> register_sdd(const CsrMatrix& a,
                                     const SddSolverOptions& opts = {});

  /// Ships an existing snapshot (by path) to its shard, which warm-starts
  /// it through its SetupCache-backed register_from_snapshot.  NotFound for
  /// a missing file; InvalidArgument for a truncated/corrupt one (the
  /// worker's load validation travels back as the same typed Status) or
  /// for a fingerprint collision; Unavailable while the target shard is
  /// respawning.
  StatusOr<SetupHandle> register_from_snapshot(const std::string& path);

  /// Forgets the handle and tells its worker.  In-flight requests still
  /// complete.  NotFound for stale handles.
  Status unregister(SetupHandle handle);

  /// Shape of a registered setup, served locally from the registration
  /// acknowledgement.
  StatusOr<SetupInfo> info(SetupHandle handle) const;

  /// Enqueues one right-hand side on the handle's worker.  Same future
  /// contract as SolverService::submit; answers are bitwise identical to
  /// an in-process solve against the same snapshot.
  std::future<StatusOr<SolveResult>> submit(SetupHandle handle, Vec b);
  std::future<StatusOr<BatchSolveResult>> submit_batch(SetupHandle handle,
                                                       MultiVec b);

  /// Forwards a dynamic edge-delta batch (solver_setup.h) to the worker
  /// owning the handle and blocks for its acknowledgement.  On success the
  /// batch is appended to the handle's update log, which the coordinator
  /// replays after the snapshot registration whenever the setup must be
  /// reconstructed — worker respawn and rebalance — so a recovered shard
  /// serves the *updated* graph, never the stale snapshot.  Same error
  /// contract as SolverService::update, plus Unavailable while the owning
  /// shard is down.
  StatusOr<UpdateAck> update(SetupHandle handle,
                             const std::vector<EdgeDelta>& deltas);

  /// Blocks until every accepted request and RPC has been answered.
  void drain();

  DistStats stats() const;
  /// The worker's own ServiceStats (counters + live load gauges), fetched
  /// over the wire — the rebalancing signal.
  StatusOr<ServiceStats> worker_stats(std::uint32_t worker);

  std::uint32_t num_workers() const;
  /// Which worker currently serves the handle.
  StatusOr<std::uint32_t> worker_of(SetupHandle handle) const;
  /// Explicitly migrates a handle: registers its snapshot on `worker`,
  /// then unregisters it from the old shard.  On any failure the original
  /// placement is untouched.
  Status rebalance(SetupHandle handle, std::uint32_t worker);

  /// Fault injection for tests: SIGKILLs the worker
  /// process.  Recovery (when opts.respawn) proceeds exactly as for a real
  /// crash.
  Status kill_worker(std::uint32_t worker);

 private:
  Coordinator();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace parsdd::dist
