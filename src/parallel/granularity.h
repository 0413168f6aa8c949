// Oracular granularity control for the fork-join primitives, in the style of
// sptl's spguard/spestimator (Acar, Charguéraud, Rainey: "Oracle-guided
// scheduling for controlling granularity in implicitly parallel programs").
//
// The granularity-control problem: a parallel_for over n items pays a fixed
// dispatch cost (publishing a job, waking workers, the join barrier) that is
// pure overhead when the loop body finishes faster than the dispatch.  A
// static item-count cutoff cannot solve this — 2048 SpMM rows with 64
// columns are worth parallelizing while 2048 flag writes are not.  The
// oracular approach instead predicts the loop's *running time*: every
// call site owns a GranularitySite whose estimator learns the site's
// nanoseconds-per-work-unit constant from measured sequential executions,
// and the loop runs in parallel only when
//
//     predicted_ns = work * ns_per_unit  >  kSpawnThresholdNs
//
// i.e. only when the loop amortizes its own spawn cost.  `work` is a caller
// abstraction: iterations for uniform loops, nnz * cols for SpMM-shaped
// loops, steps * cols for elimination folds.
//
// Determinism contract (load-bearing — see DESIGN.md "Parallelization"):
// the controller decides only HOW a loop executes (pool vs. inline), never
// WHAT it computes.  Floating-point reductions, scans, and sorts in
// primitives.h always evaluate on the *canonical block partition* — a pure
// function of (n, grain), independent of the pool size, the estimator
// state, and the sequential/parallel decision — so results are bitwise
// identical across pool sizes 1..N and across estimator warm-up.  The
// estimator's dynamic state can therefore be racy-updated and
// timing-dependent without ever touching numerics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace parsdd {

/// Default work-units-per-block for the canonical partition, and the
/// threshold below which loops are never worth timing.  Kept at the historic
/// kSeqCutoff so small-n reductions fold in the same order as before.
inline constexpr std::size_t kDefaultGrain = 2048;

/// Canonical number of blocks for a loop of n iterations with the given
/// grain (0 means kDefaultGrain).  PURE in (n, grain): never consults the
/// pool size.  Reductions and scans fold block-by-block in index order, so
/// this function fixes the shape of every deterministic reduction tree.
std::size_t canonical_blocks(std::size_t n, std::size_t grain);

/// Per-call-site cost estimator + spawn decision.  Sites are cheap,
/// lock-free, and meant to be function-local statics:
///
///   static GranularitySite site("csr.spmm");
///   parallel_for(site, 0, n, body, /*grain=*/256, /*work=*/nnz * k);
///
/// Thread safety: all state is relaxed atomics; a lost estimator update is
/// harmless (the next measured run replaces it).  There is deliberately no
/// mutex here — and therefore nothing for the thread-safety analysis
/// (util/thread_annotations.h) to annotate: the static enforcement for this
/// class is the determinism lint (tools/lint/determinism_lint.py), which
/// checks that every raw ThreadPool dispatch in the determinism-critical
/// directories is gated by a GranularitySite.  See DESIGN.md §7.
class GranularitySite {
 public:
  /// `name` must outlive the site (string literals).  `init_ns_per_unit`
  /// seeds the estimator before the first measurement; 1 ns/unit is a sane
  /// default for memory-bound loop bodies.
  explicit GranularitySite(const char* name, double init_ns_per_unit = 1.0);

  GranularitySite(const GranularitySite&) = delete;
  GranularitySite& operator=(const GranularitySite&) = delete;

  /// True when a loop with this much total work should be dispatched to the
  /// pool: predicted time exceeds the spawn threshold, the pool has more
  /// than one lane, and the caller is not already inside a parallel region.
  /// Pure with respect to numerics: callers must not let the answer change
  /// the reduction shape (primitives.h guarantees this).
  bool should_parallelize(std::uint64_t work) const;

  /// Whether this sequential execution should be timed: sampling is
  /// throttled (1 in 8) so tiny hot loops don't pay two clock reads each.
  bool should_measure();

  /// Feed one measured sequential execution into the estimator (EWMA,
  /// alpha = 1/4).  `elapsed_ns` is the wall time of the whole loop.
  void record_sequential(std::uint64_t work, double elapsed_ns);

  /// Current estimate (ns per work unit).
  double ns_per_unit() const;

  /// Number of measurements folded into the estimate so far.
  std::uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

  const char* name() const { return name_; }

  /// Spawn threshold in nanoseconds: 20000 ns ~ a handful of pool
  /// dispatches.
  static constexpr double kSpawnThresholdNs = 20000.0;

  /// Execution-mode override from PARSDD_PARALLEL: "always" forces the
  /// pool path whenever legal (stress tests), "never" forces inline
  /// execution, anything else (or unset) is the oracular decision.  Never
  /// affects results, only scheduling.
  enum class Mode : std::uint8_t { kAuto, kAlways, kNever };
  static Mode mode();

 private:
  const char* name_;
  std::atomic<std::uint64_t> ns_per_unit_bits_;  // double, bit-cast
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> tick_{0};  // measurement throttle counter
};

/// The shared site used by the untagged parallel_for/reduce overloads.
/// Hot loops should own a named site instead so the estimator constant is
/// not polluted by unrelated bodies.
GranularitySite& default_granularity_site();

namespace detail {

/// Scoped timer for sequential loop executions: arms itself only when the
/// site elects to sample (throttled) and the loop is big enough for the
/// measurement to beat clock noise; feeds the estimator on destruction.
class SeqTimer {
 public:
  SeqTimer(GranularitySite& site, std::uint64_t work);
  ~SeqTimer();
  SeqTimer(const SeqTimer&) = delete;
  SeqTimer& operator=(const SeqTimer&) = delete;

 private:
  GranularitySite* site_ = nullptr;
  std::uint64_t work_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace detail

}  // namespace parsdd
