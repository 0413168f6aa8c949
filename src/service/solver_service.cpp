#include "service/solver_service.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "linalg/vector_ops.h"
#include "parallel/task_queue.h"
#include "service/setup_cache.h"
#include "util/thread_annotations.h"

namespace parsdd {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

struct SolverService::Impl {
  // One client's queued single-RHS request.  The setup pointer is
  // snapshotted at submit time, so unregister() can never invalidate a
  // request that was already accepted.
  struct PendingSingle {
    std::shared_ptr<const SolverSetup> setup;
    Vec b;
    std::promise<StatusOr<SolveResult>> promise;
    Clock::time_point arrival;
  };
  struct PendingBatch {
    std::shared_ptr<const SolverSetup> setup;
    MultiVec b;
    std::promise<StatusOr<BatchSolveResult>> promise;
    std::uint64_t handle_id = 0;
  };
  struct HandleQueues {
    std::deque<PendingSingle> singles;
    std::deque<PendingBatch> batches;
  };
  // Arrival-order dispatch ticket.  Tickets may go stale when coalescing
  // consumes several singles at once; the dispatcher skips tickets whose
  // queue is already empty.  Invariant: a handle never holds more queued
  // requests than live tickets, so nothing starves.
  struct Token {
    std::uint64_t id;
    bool is_batch;
  };
  // A coalesced block in flight: k requests answered by one solve_batch.
  // handle_id feeds the post-solve quality check (maybe_quality_rebuild);
  // the solve itself only ever touches the snapshotted setup.
  struct SingleBlockJob {
    std::shared_ptr<const SolverSetup> setup;
    std::vector<PendingSingle> reqs;
    std::uint64_t handle_id = 0;
  };

  // A registered handle.  `setup` is what solves snapshot at submit time;
  // update() swaps it for a new immutable setup under `mu`, which is the
  // atomic-swap point of the update protocol — requests already holding the
  // old pointer finish against it, later submits see the new one.
  struct Registration {
    std::shared_ptr<const SolverSetup> setup;
    /// The handle's cache fingerprint, extended per absorbed delta batch
    /// (extend_fingerprint); has_fp is false for register_setup /
    /// register_from_snapshot handles, whose build inputs are unknown.
    SetupFingerprint fp;
    bool has_fp = false;
    /// An async rebuild for this handle is queued or running; new delta
    /// batches append to pending_deltas instead of applying directly.
    bool rebuild_inflight = false;
    /// Quality monitor asked for a fresh re-setup (chains rebuilt, drift
    /// baseline reset) before replaying pending_deltas.
    bool refresh_requested = false;
    /// Delta batches awaiting the in-flight rebuild, in arrival order.
    std::vector<EdgeDelta> pending_deltas;
  };

  explicit Impl(const ServiceOptions& options)
      : opts(options), setup_cache(options.setup_cache_capacity) {
    opts.max_batch = std::max<std::uint32_t>(opts.max_batch, 1);
  }

  /// Immutable after construction; read without the mutex.
  ServiceOptions opts;

  mutable Mutex mu;
  CondVar cv_dispatch;  // work for the dispatcher
  CondVar cv_idle;      // a request finished (for drain)
  /// Serializes update() callers so synchronous (stale-chain) delta batches
  /// apply in call order.  Lock order: update_mu strictly before mu; the
  /// rebuild thread and the quality monitor take only mu, so they can make
  /// progress while an updater builds outside both locks.
  Mutex update_mu;
  std::unordered_map<std::uint64_t, Registration> registry
      PARSDD_GUARDED_BY(mu);
  std::uint64_t next_id PARSDD_GUARDED_BY(mu) = 1;
  // Ordered map: stats() walks it to report per-handle gauges, and the
  // determinism contract forbids iterating an unordered container.
  std::map<std::uint64_t, HandleQueues> queues PARSDD_GUARDED_BY(mu);
  std::deque<Token> tokens PARSDD_GUARDED_BY(mu);
  /// Accepted requests not yet dispatched.
  std::size_t queued PARSDD_GUARDED_BY(mu) = 0;
  /// Dispatched requests not yet answered.
  std::size_t in_flight PARSDD_GUARDED_BY(mu) = 0;
  /// Dispatched blocks not yet answered (the in-flight batch gauge).
  std::size_t in_flight_blocks PARSDD_GUARDED_BY(mu) = 0;
  /// Blocks already counted completed whose promises or post-solve quality
  /// check are still running (drain() waits for zero).
  std::size_t answering_blocks PARSDD_GUARDED_BY(mu) = 0;
  bool stopping PARSDD_GUARDED_BY(mu) = false;
  /// Async rebuilds queued or running (drain() waits for zero).
  std::size_t rebuilds_inflight_n PARSDD_GUARDED_BY(mu) = 0;
  ServiceStats counters PARSDD_GUARDED_BY(mu);
  SetupCache setup_cache PARSDD_GUARDED_BY(mu);

  std::unique_ptr<TaskQueue> exec;
  /// Dedicated single-thread queue for async setup rebuilds, so a ~1 s
  /// chain rebuild never occupies a solve executor.
  std::unique_ptr<TaskQueue> rebuild_exec;
  std::thread dispatcher;

  StatusOr<SetupHandle> add_setup(std::shared_ptr<const SolverSetup> setup)
      PARSDD_EXCLUDES(mu);
  /// Registry insertion shared by every registration path.  One definition
  /// of handle allocation, so the cache-hit and build paths cannot diverge.
  /// `fp` non-null records the build fingerprint for later extension.
  StatusOr<SetupHandle> add_setup_locked(std::shared_ptr<const SolverSetup> setup,
                                         const SetupFingerprint* fp = nullptr)
      PARSDD_REQUIRES(mu);
  /// Cache-aware build-and-register shared by register_laplacian and
  /// register_sdd: `fp` keys the cache, `build` runs the chain
  /// construction on a miss.  The build runs outside the service mutex, so
  /// two concurrent first registrations of the same graph may both build —
  /// the second put simply refreshes the entry (correct either way, since
  /// equal fingerprints mean deterministically identical setups).
  template <typename BuildFn>
  StatusOr<SetupHandle> register_built(const SetupFingerprint& fp,
                                       const char* what, BuildFn&& build)
      PARSDD_EXCLUDES(mu);
  void dispatcher_loop() PARSDD_EXCLUDES(mu);

  /// True when any ticket for a different handle is waiting — the signal
  /// that cuts a linger window short (no head-of-line blocking).
  bool other_handle_waiting(std::uint64_t id) const PARSDD_REQUIRES(mu);
  /// Lingers (lock released while waiting), then coalesces up to max_batch
  /// pending singles for the handle into one job; null for a stale ticket.
  std::shared_ptr<SingleBlockJob> collect_singles(
      MutexLock& lock, std::uint64_t id, std::deque<PendingSingle>& singles)
      PARSDD_REQUIRES(mu);
  /// Pops the oldest pre-assembled block; null for a stale ticket.
  std::shared_ptr<PendingBatch> take_batch(std::deque<PendingBatch>& batches)
      PARSDD_REQUIRES(mu);
  /// Hand-off to the executors; called with the mutex released so the
  /// dispatcher never holds it across a post.
  void post_single_block(std::shared_ptr<SingleBlockJob> job)
      PARSDD_EXCLUDES(mu);
  void post_batch(std::shared_ptr<PendingBatch> job) PARSDD_EXCLUDES(mu);

  void execute_single_block(SingleBlockJob& job);
  /// Counts a block's `count` requests completed and releases their
  /// in-flight slots.  Runs before any of the block's promises is set, so a
  /// stats() read made after a client holds its answer counts that answer.
  void settle(std::size_t count) PARSDD_EXCLUDES(mu);
  /// Ends a settled block once its promises are set and its quality check
  /// ran; drain() returns only after every settled block finished.
  void finish() PARSDD_EXCLUDES(mu);

  /// The update() entry point body (handle resolution, tier dispatch,
  /// atomic swap / rebuild scheduling).  Takes update_mu, then mu.
  StatusOr<UpdateAck> apply_update(std::uint64_t id,
                                   const std::vector<EdgeDelta>& deltas)
      PARSDD_EXCLUDES(mu);
  /// Rebuild-thread body: repeatedly absorbs this handle's pending delta
  /// batches (optionally after a fresh re-setup) and swaps the result in;
  /// returns once nothing is pending or the handle/service went away.
  void run_rebuild(std::uint64_t id) PARSDD_EXCLUDES(mu);
  /// Posts run_rebuild(id); unwinds the in-flight marker if the queue has
  /// already stopped.
  void post_rebuild(std::uint64_t id) PARSDD_EXCLUDES(mu);
  /// Called by executors after a solve: schedules a quality rebuild when
  /// the handle's stale-chain drift crossed opts.stale_rebuild_factor.
  void maybe_quality_rebuild(std::uint64_t id,
                             const std::shared_ptr<const SolverSetup>& setup)
      PARSDD_EXCLUDES(mu);

  /// Backpressure measures the whole pipeline: accepted-but-undispatched
  /// PLUS dispatched-but-unanswered.  Counting only the former would let
  /// the executor queue grow without bound whenever solves are the
  /// bottleneck (the dispatcher drains `queued` faster than solves finish).
  bool at_capacity() const PARSDD_REQUIRES(mu) {
    return queued + in_flight >= opts.max_pending;
  }

  /// Frees the per-handle queue slot once the handle is unregistered and
  /// nothing is pending against it; ids are never reused, so without this
  /// a register/serve/unregister churn pattern would leak one map node per
  /// handle for the process lifetime.
  void gc_queues(std::uint64_t id) PARSDD_REQUIRES(mu) {
    auto it = queues.find(id);
    if (it != queues.end() && it->second.singles.empty() &&
        it->second.batches.empty() && registry.find(id) == registry.end()) {
      queues.erase(it);
    }
  }
};

SolverService::SolverService(const ServiceOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {
  impl_->exec = std::make_unique<TaskQueue>(
      std::max<std::uint32_t>(impl_->opts.workers, 1));
  impl_->rebuild_exec = std::make_unique<TaskQueue>(1);
  impl_->dispatcher = std::thread([this] { impl_->dispatcher_loop(); });
}

SolverService::~SolverService() {
  {
    MutexLock lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv_dispatch.notify_all();
  impl_->dispatcher.join();    // dispatches everything still queued
  impl_->exec->stop();         // runs every dispatched block to completion
  impl_->rebuild_exec->stop();  // rebuild tasks see `stopping` and abandon
}

StatusOr<SetupHandle> SolverService::Impl::add_setup_locked(
    std::shared_ptr<const SolverSetup> setup, const SetupFingerprint* fp) {
  if (stopping) {
    return UnavailableError("SolverService: shutting down");
  }
  std::uint64_t id = next_id++;
  Registration reg;
  reg.setup = std::move(setup);
  if (fp != nullptr) {
    reg.fp = *fp;
    reg.has_fp = true;
  }
  registry.emplace(id, std::move(reg));
  return SetupHandle{id};
}

StatusOr<SetupHandle> SolverService::Impl::add_setup(
    std::shared_ptr<const SolverSetup> setup) {
  if (!setup) {
    return InvalidArgumentError("SolverService: null setup");
  }
  MutexLock lock(mu);
  return add_setup_locked(std::move(setup));
}

template <typename BuildFn>
StatusOr<SetupHandle> SolverService::Impl::register_built(
    const SetupFingerprint& fp, const char* what, BuildFn&& build) {
  {
    MutexLock lock(mu);
    if (stopping) {
      return UnavailableError("SolverService: shutting down");
    }
    if (std::shared_ptr<const SolverSetup> cached = setup_cache.get(fp)) {
      ++counters.setup_cache_hits;
      return add_setup_locked(std::move(cached), &fp);
    }
    ++counters.setup_cache_misses;
  }
  std::shared_ptr<const SolverSetup> setup;
  try {
    setup = std::make_shared<const SolverSetup>(build());
  } catch (const std::exception& e) {
    // The setup phase still speaks exceptions for construction-time
    // failures; the service boundary translates them.
    return InvalidArgumentError(std::string(what) + ": " + e.what());
  }
  MutexLock lock(mu);
  setup_cache.put(fp, setup);
  return add_setup_locked(std::move(setup), &fp);
}

StatusOr<SetupHandle> SolverService::register_laplacian(
    std::uint32_t n, const EdgeList& edges, const SddSolverOptions& opts) {
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      return InvalidArgumentError(
          "register_laplacian: edge endpoint out of range");
    }
  }
  return impl_->register_built(
      fingerprint_laplacian_setup(n, edges, opts), "register_laplacian",
      [&] { return SolverSetup::for_laplacian(n, edges, opts); });
}

StatusOr<SetupHandle> SolverService::register_sdd(
    const CsrMatrix& a, const SddSolverOptions& opts) {
  return impl_->register_built(fingerprint_sdd_setup(a, opts), "register_sdd",
                               [&] { return SolverSetup::for_sdd(a, opts); });
}

StatusOr<SetupHandle> SolverService::register_from_snapshot(
    const std::string& path) {
  StatusOr<SolverSetup> setup = SolverSetup::Load(path);
  if (!setup.ok()) return setup.status();
  return impl_->add_setup(
      std::make_shared<const SolverSetup>(std::move(*setup)));
}

Status SolverService::snapshot(SetupHandle handle,
                               const std::string& path) const {
  std::shared_ptr<const SolverSetup> setup;
  {
    MutexLock lock(impl_->mu);
    auto it = impl_->registry.find(handle.id);
    if (it == impl_->registry.end()) {
      return NotFoundError("snapshot: unknown handle " +
                           std::to_string(handle.id));
    }
    setup = it->second.setup;
  }
  // Serialization runs outside the service mutex: the setup is immutable
  // and the local shared_ptr keeps it alive even across an unregister.
  return setup->Save(path);
}

StatusOr<SetupHandle> SolverService::register_setup(
    std::shared_ptr<const SolverSetup> setup) {
  return impl_->add_setup(std::move(setup));
}

Status SolverService::unregister(SetupHandle handle) {
  MutexLock lock(impl_->mu);
  if (impl_->registry.erase(handle.id) == 0) {
    return NotFoundError("unregister: unknown handle " +
                         std::to_string(handle.id));
  }
  // Still-pending requests keep the queue slot alive; the dispatcher GCs
  // it after draining them.
  impl_->gc_queues(handle.id);
  return OkStatus();
}

StatusOr<SetupInfo> SolverService::info(SetupHandle handle) const {
  MutexLock lock(impl_->mu);
  auto it = impl_->registry.find(handle.id);
  if (it == impl_->registry.end()) {
    return NotFoundError("info: unknown handle " + std::to_string(handle.id));
  }
  SetupInfo out;
  const SolverSetup& s = *it->second.setup;
  out.dimension = s.dimension();
  out.components = s.num_components();
  out.chain_levels = s.chain_levels();
  out.chain_edges = s.chain_edges();
  out.update_seq = s.update_seq();
  out.stale_components = s.quality().stale_components;
  if (it->second.has_fp) {
    out.fingerprint_lo = it->second.fp.lo;
    out.fingerprint_hi = it->second.fp.hi;
  }
  return out;
}

std::future<StatusOr<SolveResult>> SolverService::submit(SetupHandle handle,
                                                         Vec b) {
  std::promise<StatusOr<SolveResult>> promise;
  std::future<StatusOr<SolveResult>> future = promise.get_future();
  // Scanned outside the lock; a bad request fails alone, never its
  // block-mates.
  const bool finite = all_finite(b);
  bool notify = false;
  {
    MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      promise.set_value(UnavailableError("submit: shutting down"));
      return future;
    }
    auto it = impl_->registry.find(handle.id);
    if (it == impl_->registry.end()) {
      promise.set_value(
          NotFoundError("submit: unknown handle " + std::to_string(handle.id)));
      return future;
    }
    const std::shared_ptr<const SolverSetup>& setup = it->second.setup;
    if (b.size() != setup->dimension()) {
      promise.set_value(InvalidArgumentError(
          "submit: rhs has size " + std::to_string(b.size()) +
          ", setup has dimension " + std::to_string(setup->dimension())));
      return future;
    }
    if (!finite) {
      promise.set_value(InvalidArgumentError(
          "submit: rhs has a NaN or infinite entry"));
      return future;
    }
    if (impl_->at_capacity()) {
      ++impl_->counters.rejected;
      promise.set_value(
          ResourceExhaustedError("submit: queue full (max_pending=" +
                                 std::to_string(impl_->opts.max_pending) +
                                 "), retry later"));
      return future;
    }
    impl_->queues[handle.id].singles.push_back(Impl::PendingSingle{
        setup, std::move(b), std::move(promise), Clock::now()});
    impl_->tokens.push_back(Impl::Token{handle.id, /*is_batch=*/false});
    ++impl_->queued;
    ++impl_->counters.submitted;
    notify = true;
  }
  if (notify) impl_->cv_dispatch.notify_all();
  return future;
}

std::future<StatusOr<BatchSolveResult>> SolverService::submit_batch(
    SetupHandle handle, MultiVec b) {
  std::promise<StatusOr<BatchSolveResult>> promise;
  std::future<StatusOr<BatchSolveResult>> future = promise.get_future();
  const bool finite = all_finite(b.data());
  bool notify = false;
  {
    MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      promise.set_value(UnavailableError("submit_batch: shutting down"));
      return future;
    }
    auto it = impl_->registry.find(handle.id);
    if (it == impl_->registry.end()) {
      promise.set_value(NotFoundError("submit_batch: unknown handle " +
                                      std::to_string(handle.id)));
      return future;
    }
    if (b.cols() == 0) {
      promise.set_value(
          InvalidArgumentError("submit_batch: empty batch (k=0)"));
      return future;
    }
    const std::shared_ptr<const SolverSetup>& setup = it->second.setup;
    if (b.rows() != setup->dimension()) {
      promise.set_value(InvalidArgumentError(
          "submit_batch: block has " + std::to_string(b.rows()) +
          " rows, setup has dimension " + std::to_string(setup->dimension())));
      return future;
    }
    if (!finite) {
      promise.set_value(InvalidArgumentError(
          "submit_batch: block has a NaN or infinite entry"));
      return future;
    }
    if (impl_->at_capacity()) {
      ++impl_->counters.rejected;
      promise.set_value(
          ResourceExhaustedError("submit_batch: queue full, retry later"));
      return future;
    }
    impl_->queues[handle.id].batches.push_back(Impl::PendingBatch{
        setup, std::move(b), std::move(promise), handle.id});
    impl_->tokens.push_back(Impl::Token{handle.id, /*is_batch=*/true});
    ++impl_->queued;
    ++impl_->counters.submitted;
    notify = true;
  }
  if (notify) impl_->cv_dispatch.notify_all();
  return future;
}

void SolverService::drain() {
  MutexLock lock(impl_->mu);
  while (impl_->queued != 0 || impl_->in_flight != 0 ||
         impl_->answering_blocks != 0 || impl_->rebuilds_inflight_n != 0) {
    impl_->cv_idle.wait(lock);
  }
}

ServiceStats SolverService::stats() const {
  MutexLock lock(impl_->mu);
  ServiceStats out = impl_->counters;
  out.queue_depth = impl_->queued;
  out.in_flight_cols = impl_->in_flight;
  out.in_flight_blocks = impl_->in_flight_blocks;
  out.rebuilds_in_flight = impl_->rebuilds_inflight_n;
  for (const auto& [id, q] : impl_->queues) {
    std::uint64_t pending = q.singles.size() + q.batches.size();
    if (pending != 0) out.per_handle_pending.emplace_back(id, pending);
  }
  return out;
}

void SolverService::Impl::dispatcher_loop() {
  MutexLock lock(mu);
  for (;;) {
    while (!stopping && tokens.empty()) cv_dispatch.wait(lock);
    if (tokens.empty()) {
      if (stopping) return;  // fully drained
      continue;
    }
    Token token = tokens.front();
    tokens.pop_front();
    auto qit = queues.find(token.id);
    if (qit == queues.end()) continue;
    // Collect under the lock, post outside it: the unlock/relock pair lives
    // in the same scope as the MutexLock so the thread-safety analysis can
    // track the scoped release (and the dispatcher never holds the service
    // mutex across an executor hand-off).
    if (token.is_batch) {
      if (std::shared_ptr<PendingBatch> job = take_batch(qit->second.batches)) {
        lock.Unlock();
        post_batch(std::move(job));
        lock.Lock();
      }
    } else {
      if (std::shared_ptr<SingleBlockJob> job =
              collect_singles(lock, token.id, qit->second.singles)) {
        lock.Unlock();
        post_single_block(std::move(job));
        lock.Lock();
      }
    }
    gc_queues(token.id);
  }
}

bool SolverService::Impl::other_handle_waiting(std::uint64_t id) const {
  for (const Token& t : tokens) {
    if (t.id != id) return true;
  }
  return false;
}

std::shared_ptr<SolverService::Impl::SingleBlockJob>
SolverService::Impl::collect_singles(MutexLock& lock, std::uint64_t id,
                                     std::deque<PendingSingle>& singles) {
  if (singles.empty()) return nullptr;  // stale ticket: already coalesced
  if (opts.max_linger_us > 0) {
    // Let the block fill: wait (lock released) until max_batch columns are
    // pending or the oldest request has lingered its budget.  Shutdown cuts
    // the linger short so teardown never waits on the clock, and pending
    // work for ANY OTHER handle cuts it short too — the single dispatcher
    // must not head-of-line block handle B behind handle A's linger window
    // (requests for the same handle only push same-id tickets, so the hot
    // single-handle burst still coalesces fully).
    Clock::time_point deadline =
        singles.front().arrival + std::chrono::microseconds(opts.max_linger_us);
    while (!stopping && singles.size() < opts.max_batch &&
           Clock::now() < deadline && !other_handle_waiting(id)) {
      cv_dispatch.wait_until(lock, deadline);
    }
  }
  std::size_t take = std::min<std::size_t>(singles.size(), opts.max_batch);
  auto job = std::make_shared<SingleBlockJob>();
  job->setup = singles.front().setup;
  job->handle_id = id;
  job->reqs.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    job->reqs.push_back(std::move(singles.front()));
    singles.pop_front();
  }
  queued -= take;
  in_flight += take;
  ++in_flight_blocks;
  ++counters.dispatched_blocks;
  counters.dispatched_cols += take;
  return job;
}

std::shared_ptr<SolverService::Impl::PendingBatch>
SolverService::Impl::take_batch(std::deque<PendingBatch>& batches) {
  if (batches.empty()) return nullptr;
  auto job = std::make_shared<PendingBatch>(std::move(batches.front()));
  batches.pop_front();
  --queued;
  ++in_flight;
  ++in_flight_blocks;
  ++counters.dispatched_blocks;
  counters.dispatched_cols += job->b.cols();
  return job;
}

void SolverService::Impl::post_single_block(
    std::shared_ptr<SingleBlockJob> job) {
  bool posted = exec->post([this, job] {
    execute_single_block(*job);
    maybe_quality_rebuild(job->handle_id, job->setup);
    finish();
  });
  if (!posted) {
    settle(job->reqs.size());
    for (PendingSingle& r : job->reqs) {
      r.promise.set_value(UnavailableError("service stopped"));
    }
    finish();
  }
}

void SolverService::Impl::post_batch(std::shared_ptr<PendingBatch> job) {
  bool posted = exec->post([this, job] {
    BatchSolveReport report;
    StatusOr<MultiVec> x = job->setup->solve_batch(job->b, &report);
    settle(1);
    if (x.ok()) {
      job->promise.set_value(
          BatchSolveResult{std::move(*x), std::move(report)});
    } else {
      job->promise.set_value(x.status());
    }
    maybe_quality_rebuild(job->handle_id, job->setup);
    finish();
  });
  if (!posted) {
    settle(1);
    job->promise.set_value(UnavailableError("service stopped"));
    finish();
  }
}

void SolverService::Impl::execute_single_block(SingleBlockJob& job) {
  std::size_t k = job.reqs.size();
  std::uint32_t n = job.setup->dimension();
  MultiVec b(n, k);
  for (std::size_t c = 0; c < k; ++c) {
    b.set_column(c, job.reqs[c].b);
  }
  BatchSolveReport report;
  StatusOr<MultiVec> x = job.setup->solve_batch(b, &report);
  settle(k);
  if (!x.ok()) {
    // Cannot happen for requests validated at submit; surface it anyway.
    for (PendingSingle& r : job.reqs) r.promise.set_value(x.status());
    return;
  }
  for (std::size_t c = 0; c < k; ++c) {
    SolveResult res;
    res.x = x->column(c);
    res.stats = report.column_stats[c];
    res.coalesced_cols = static_cast<std::uint32_t>(k);
    job.reqs[c].promise.set_value(std::move(res));
  }
}

void SolverService::Impl::settle(std::size_t count) {
  MutexLock lock(mu);
  in_flight -= count;
  --in_flight_blocks;  // every settle() answers exactly one block
  counters.completed += count;
  ++answering_blocks;
}

void SolverService::Impl::finish() {
  {
    MutexLock lock(mu);
    --answering_blocks;
  }
  cv_idle.notify_all();
}

StatusOr<UpdateAck> SolverService::update(SetupHandle handle,
                                          const std::vector<EdgeDelta>& deltas) {
  return impl_->apply_update(handle.id, deltas);
}

StatusOr<UpdateAck> SolverService::Impl::apply_update(
    std::uint64_t id, const std::vector<EdgeDelta>& deltas) {
  // Serialize updaters: synchronous batches apply in call order, and at
  // most one caller at a time builds an updated setup.  The rebuild thread
  // and the quality monitor take only `mu`, so they stay live while an
  // updater builds outside both locks.
  MutexLock ulock(update_mu);
  std::shared_ptr<const SolverSetup> base;
  bool behind_rebuild = false;
  {
    MutexLock lock(mu);
    if (stopping) return UnavailableError("update: shutting down");
    auto it = registry.find(id);
    if (it == registry.end()) {
      return NotFoundError("update: unknown handle " + std::to_string(id));
    }
    base = it->second.setup;
    behind_rebuild = it->second.rebuild_inflight;
  }
  for (;;) {
    StatusOr<UpdateTier> tier = base->plan_update(deltas);
    if (!tier.ok()) return tier.status();
    if (behind_rebuild) {
      // An async rebuild is already absorbing this handle's deltas.  The
      // batch was validated against the current serving setup (best
      // effort: the rebuild may still reject it when replaying against its
      // own result) and queues for that rebuild to replay before the swap.
      MutexLock lock(mu);
      if (stopping) return UnavailableError("update: shutting down");
      auto it = registry.find(id);
      if (it == registry.end()) {
        return NotFoundError("update: unknown handle " + std::to_string(id));
      }
      if (!it->second.rebuild_inflight) {
        // The rebuild finished while we validated; apply directly.
        base = it->second.setup;
        behind_rebuild = false;
        continue;
      }
      it->second.pending_deltas.insert(it->second.pending_deltas.end(),
                                       deltas.begin(), deltas.end());
      ++counters.updates_deferred;
      UpdateAck ack;
      ack.tier = *tier;
      ack.deferred = true;
      ack.rebuild_scheduled = true;
      return ack;
    }
    if (*tier != UpdateTier::kStaleChain) {
      // Structural: hand the batch to the rebuild thread.  Solves keep
      // dispatching against the old setup until the rebuilt one swaps in.
      bool schedule = false;
      {
        MutexLock lock(mu);
        if (stopping) return UnavailableError("update: shutting down");
        auto it = registry.find(id);
        if (it == registry.end()) {
          return NotFoundError("update: unknown handle " + std::to_string(id));
        }
        it->second.pending_deltas.insert(it->second.pending_deltas.end(),
                                         deltas.begin(), deltas.end());
        if (it->second.rebuild_inflight) {
          // A quality rebuild started since our snapshot; it replays the
          // queued batch before swapping.
          ++counters.updates_deferred;
        } else {
          it->second.rebuild_inflight = true;
          ++rebuilds_inflight_n;
          schedule = true;
        }
      }
      if (schedule) post_rebuild(id);
      UpdateAck ack;
      ack.tier = *tier;
      ack.deferred = !schedule;
      ack.rebuild_scheduled = true;
      return ack;
    }
    // Stale-chain tier: build the updated setup outside every lock, then
    // swap it in atomically under `mu`.
    StatusOr<SolverSetup> next = base->update(deltas);
    if (!next.ok()) return next.status();
    auto next_sp = std::make_shared<const SolverSetup>(std::move(*next));
    {
      MutexLock lock(mu);
      if (stopping) return UnavailableError("update: shutting down");
      auto it = registry.find(id);
      if (it == registry.end()) {
        return NotFoundError("update: unknown handle " + std::to_string(id));
      }
      if (it->second.rebuild_inflight) {
        // A quality rebuild started while we built: our result would race
        // its swap (lost-update), so defer the batch to it instead.
        it->second.pending_deltas.insert(it->second.pending_deltas.end(),
                                         deltas.begin(), deltas.end());
        ++counters.updates_deferred;
        UpdateAck ack;
        ack.tier = *tier;
        ack.deferred = true;
        ack.rebuild_scheduled = true;
        return ack;
      }
      if (it->second.setup != base) {
        // A rebuild swapped in between our snapshot and now; redo the
        // apply against the fresh setup.
        base = it->second.setup;
        behind_rebuild = false;
        continue;
      }
      it->second.setup = next_sp;
      if (it->second.has_fp) {
        it->second.fp = extend_fingerprint(it->second.fp, deltas);
      }
      ++counters.updates_applied;
    }
    UpdateAck ack;
    ack.tier = *tier;
    ack.update_seq = next_sp->update_seq();
    return ack;
  }
}

void SolverService::Impl::post_rebuild(std::uint64_t id) {
  bool posted = rebuild_exec->post([this, id] { run_rebuild(id); });
  if (posted) return;
  // The queue already stopped: unwind the in-flight marker so drain() and
  // the destructor do not wait on a rebuild that will never run.
  {
    MutexLock lock(mu);
    auto it = registry.find(id);
    if (it != registry.end()) {
      it->second.rebuild_inflight = false;
      it->second.refresh_requested = false;
      it->second.pending_deltas.clear();
    }
    --rebuilds_inflight_n;
  }
  cv_idle.notify_all();
}

void SolverService::Impl::run_rebuild(std::uint64_t id) {
  Clock::time_point t0 = Clock::now();
  for (;;) {
    std::shared_ptr<const SolverSetup> base;
    std::vector<EdgeDelta> batch;
    bool refresh = false;
    {
      MutexLock lock(mu);
      auto it = registry.find(id);
      if (stopping || it == registry.end()) {
        // Teardown or unregistered mid-rebuild: abandon.
        if (it != registry.end()) {
          it->second.rebuild_inflight = false;
          it->second.refresh_requested = false;
          it->second.pending_deltas.clear();
        }
        --rebuilds_inflight_n;
        break;
      }
      Registration& reg = it->second;
      if (reg.pending_deltas.empty() && !reg.refresh_requested) {
        // Everything absorbed: the rebuild is complete.
        reg.rebuild_inflight = false;
        --rebuilds_inflight_n;
        ++counters.rebuilds_completed;
        counters.last_rebuild_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                  t0)
                .count());
        break;
      }
      base = reg.setup;
      batch.swap(reg.pending_deltas);
      refresh = reg.refresh_requested;
      reg.refresh_requested = false;
    }
    // Build outside the locks; solves keep dispatching against `base`.
    std::shared_ptr<const SolverSetup> next;
    bool batch_applied = !batch.empty();
    try {
      if (refresh) {
        SolverSetup fresh = base->rebuild();
        if (!batch.empty()) {
          StatusOr<SolverSetup> up = fresh.update(batch);
          if (up.ok()) {
            next = std::make_shared<const SolverSetup>(std::move(*up));
          } else {
            // Keep the fresh re-setup, drop the unreplayable batch.
            next = std::make_shared<const SolverSetup>(std::move(fresh));
            batch_applied = false;
            MutexLock lock(mu);
            ++counters.rebuild_failures;
          }
        } else {
          next = std::make_shared<const SolverSetup>(std::move(fresh));
        }
      } else {
        StatusOr<SolverSetup> up = base->update(batch);
        if (!up.ok()) {
          MutexLock lock(mu);
          ++counters.rebuild_failures;
          continue;  // batch dropped; loop to absorb anything newer
        }
        next = std::make_shared<const SolverSetup>(std::move(*up));
      }
    } catch (const std::exception&) {
      MutexLock lock(mu);
      ++counters.rebuild_failures;
      continue;
    }
    {
      MutexLock lock(mu);
      auto it = registry.find(id);
      if (it == registry.end()) {
        --rebuilds_inflight_n;
        break;
      }
      // The atomic swap: submits from here on snapshot the rebuilt setup;
      // requests already in flight finish against the old one (they hold
      // their own shared_ptr), so no in-flight solve can fail.
      it->second.setup = next;
      if (it->second.has_fp && batch_applied) {
        it->second.fp = extend_fingerprint(it->second.fp, batch);
      }
      if (batch_applied) ++counters.updates_applied;
    }
    // Loop: absorb batches that arrived while building, then complete.
  }
  cv_idle.notify_all();
}

void SolverService::Impl::maybe_quality_rebuild(
    std::uint64_t id, const std::shared_ptr<const SolverSetup>& setup) {
  if (opts.stale_rebuild_factor <= 0.0 || id == 0) return;
  SetupQuality q = setup->quality();
  if (q.stale_components == 0 || q.baseline_iterations == 0) return;
  if (q.drift < opts.stale_rebuild_factor) return;
  bool schedule = false;
  {
    MutexLock lock(mu);
    if (stopping) return;
    auto it = registry.find(id);
    // Only rebuild what is still serving: the handle must exist, still
    // point at the setup whose drift we measured, and not already be
    // rebuilding.
    if (it == registry.end() || it->second.setup != setup ||
        it->second.rebuild_inflight) {
      return;
    }
    it->second.rebuild_inflight = true;
    it->second.refresh_requested = true;
    ++rebuilds_inflight_n;
    ++counters.quality_rebuilds;
    schedule = true;
  }
  if (schedule) post_rebuild(id);
}

}  // namespace parsdd
