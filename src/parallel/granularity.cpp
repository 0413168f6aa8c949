#include "parallel/granularity.h"

#include <bit>
#include <cstdlib>
#include <cstring>

#include "parallel/thread_pool.h"

namespace parsdd {

std::size_t canonical_blocks(std::size_t n, std::size_t grain) {
  if (n == 0) return 1;
  std::size_t g = grain ? grain : kDefaultGrain;
  return (n + g - 1) / g;
}

GranularitySite::GranularitySite(const char* name, double init_ns_per_unit)
    : name_(name),
      ns_per_unit_bits_(std::bit_cast<std::uint64_t>(init_ns_per_unit)) {}

double GranularitySite::ns_per_unit() const {
  return std::bit_cast<double>(
      ns_per_unit_bits_.load(std::memory_order_relaxed));
}

bool GranularitySite::should_parallelize(std::uint64_t work) const {
  Mode m = mode();
  if (m == Mode::kNever) return false;
  // Checked before touching instance(): under PARSDD_PARALLEL=never the
  // pool is never even constructed, which gives benches a true 1-thread
  // baseline process.
  if (ThreadPool::in_parallel()) return false;
  if (ThreadPool::instance().concurrency() <= 1) return false;
  if (m == Mode::kAlways) return true;
  return static_cast<double>(work) * ns_per_unit() > kSpawnThresholdNs;
}

bool GranularitySite::should_measure() {
  return (tick_.fetch_add(1, std::memory_order_relaxed) & 7u) == 0;
}

void GranularitySite::record_sequential(std::uint64_t work,
                                        double elapsed_ns) {
  if (work == 0 || elapsed_ns <= 0.0) return;
  double sample = elapsed_ns / static_cast<double>(work);
  std::uint64_t seen = samples_.fetch_add(1, std::memory_order_relaxed);
  // First measurement replaces the seed guess outright; afterwards an EWMA
  // tracks drift (cache effects, input-shape changes) without jitter.
  double next = seen == 0 ? sample : ns_per_unit() + 0.25 * (sample - ns_per_unit());
  ns_per_unit_bits_.store(std::bit_cast<std::uint64_t>(next),
                          std::memory_order_relaxed);
}

GranularitySite::Mode GranularitySite::mode() {
  static const Mode m = [] {
    const char* s = std::getenv("PARSDD_PARALLEL");
    if (!s) return Mode::kAuto;
    if (std::strcmp(s, "always") == 0) return Mode::kAlways;
    if (std::strcmp(s, "never") == 0) return Mode::kNever;
    return Mode::kAuto;
  }();
  return m;
}

GranularitySite& default_granularity_site() {
  static GranularitySite site("default");
  return site;
}

namespace detail {

SeqTimer::SeqTimer(GranularitySite& site, std::uint64_t work) : work_(work) {
  if (work >= 256 && site.should_measure()) {
    site_ = &site;
    start_ = std::chrono::steady_clock::now();
  }
}

SeqTimer::~SeqTimer() {
  if (!site_) return;
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
  site_->record_sequential(work_, static_cast<double>(ns));
}

}  // namespace detail

}  // namespace parsdd
