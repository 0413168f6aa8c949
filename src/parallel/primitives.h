// Flat data-parallel primitives: parallel_for, reduce, scan, pack, sort.
//
// These realize the standard PRAM building blocks used throughout the paper:
// O(n) work / O(log n) depth reductions and prefix sums ([JaJ92, Lei92], cited
// in Lemma 5.7's "standard techniques"), and parallel packing/filtering used
// by contraction and sampling steps.
//
// Determinism: every order-sensitive primitive (reduce, scan, sort) evaluates
// on the CANONICAL block partition from canonical_blocks(n, grain) — a pure
// function of the problem size, never of the pool size — and folds blocks in
// index order.  The granularity controller (granularity.h) only picks the
// execution strategy (pool vs. inline) for that fixed structure, so results
// are bitwise identical across pool sizes and across estimator warm-up.
// parallel_for bodies must be independent per index, so their partition is
// unconstrained.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "parallel/granularity.h"
#include "parallel/thread_pool.h"

namespace parsdd {

/// Historic sequential cutoff, equal to the canonical grain: loops under
/// this size are a single canonical block and always run inline.
inline constexpr std::size_t kSeqCutoff = kDefaultGrain;

/// Sorts below this size are a single block (plain std::sort), matching the
/// pre-parallel behavior bit for bit.
inline constexpr std::size_t kSortGrain = 4 * kDefaultGrain;

/// Picks a POOL-SIZE-DEPENDENT block count for a loop of n iterations:
/// enough blocks for load balancing (4 per hardware context) without
/// excessive scheduling overhead.  Only legal for loops whose OUTPUT is
/// invariant to the partition (per-block scratch lists that get length-
/// concatenated, claim loops resolved by min, pure elementwise writes) —
/// order-sensitive folds must use canonical_blocks instead.
std::size_t num_blocks_for(std::size_t n, std::size_t grain);

/// parallel_for(site, lo, hi, f): applies f(i) for i in [lo, hi).
/// `work` is the site's abstract cost of the whole loop (defaults to the
/// iteration count); the site parallelizes only when the predicted time
/// amortizes a pool dispatch.  Work O(hi-lo), depth O(1) parallel rounds.
template <typename F>
void parallel_for(GranularitySite& site, std::size_t lo, std::size_t hi,
                  F&& f, std::size_t grain = 0, std::uint64_t work = 0) {
  if (hi <= lo) return;
  std::size_t n = hi - lo;
  if (work == 0) work = n;
  std::size_t nb = canonical_blocks(n, grain);
  if (nb > 1 && site.should_parallelize(work)) {
    std::size_t g = grain ? grain : kDefaultGrain;
    ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
      std::size_t s = lo + b * g;
      std::size_t e = std::min(hi, s + g);
      for (std::size_t i = s; i < e; ++i) f(i);
    });
    return;
  }
  detail::SeqTimer timer(site, work);
  for (std::size_t i = lo; i < hi; ++i) f(i);
}

template <typename F>
void parallel_for(std::size_t lo, std::size_t hi, F&& f,
                  std::size_t grain = 0) {
  parallel_for(default_granularity_site(), lo, hi, std::forward<F>(f), grain);
}

/// parallel_for for counting-sort scatters: the body is f(i, bump), where
/// bump(slot) post-increments an integer slot and returns its old value.
/// On the pool bump is a relaxed atomic fetch_add; inline it is a plain
/// increment, since an uncontended `lock xadd` costs as much as the rest of
/// a scatter body.  The body must not care which it got: slots claimed on
/// the pool land in scheduling-dependent order, so callers canonicalize
/// what they scatter or use an order nothing observes.
template <typename F>
void parallel_for_bump(GranularitySite& site, std::size_t lo, std::size_t hi,
                       F&& f) {
  if (hi <= lo) return;
  std::size_t nb = canonical_blocks(hi - lo, 0);
  if (nb > 1 && site.should_parallelize(hi - lo)) {
    auto bump = [](auto& slot) {
      return std::atomic_ref(slot).fetch_add(1, std::memory_order_relaxed);
    };
    ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
      std::size_t s = lo + b * kDefaultGrain;
      std::size_t e = std::min(hi, s + kDefaultGrain);
      for (std::size_t i = s; i < e; ++i) f(i, bump);
    });
    return;
  }
  detail::SeqTimer timer(site, hi - lo);
  auto bump = [](auto& slot) { return slot++; };
  for (std::size_t i = lo; i < hi; ++i) f(i, bump);
}

/// parallel_reduce: returns combine-fold of map(i) over [lo, hi) with the
/// given identity.  `combine` must be associative.  The fold ALWAYS follows
/// the canonical block structure — per-block left fold, then blocks combined
/// in index order — whether it executes on the pool or inline, so
/// floating-point results are a pure function of (input, n, grain).
template <typename T, typename Map, typename Combine>
T parallel_reduce(GranularitySite& site, std::size_t lo, std::size_t hi,
                  T identity, Map&& map, Combine&& combine,
                  std::size_t grain = 0, std::uint64_t work = 0) {
  if (hi <= lo) return identity;
  std::size_t n = hi - lo;
  if (work == 0) work = n;
  std::size_t nb = canonical_blocks(n, grain);
  if (nb == 1) {
    detail::SeqTimer timer(site, work);
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
    return acc;
  }
  std::size_t g = grain ? grain : kDefaultGrain;
  // One whole object per block: the wrapper keeps T = bool out of
  // std::vector<bool>, whose packed bits would make concurrent blocks
  // read-modify-write a shared word.
  struct Slot {
    T value;
  };
  std::vector<Slot> partial(nb, Slot{identity});
  auto block_fold = [&](std::size_t b) {
    std::size_t s = lo + b * g;
    std::size_t e = std::min(hi, s + g);
    T acc = identity;
    for (std::size_t i = s; i < e; ++i) acc = combine(acc, map(i));
    partial[b].value = acc;
  };
  if (site.should_parallelize(work)) {
    ThreadPool::instance().run_blocks(nb, block_fold);
  } else {
    detail::SeqTimer timer(site, work);
    for (std::size_t b = 0; b < nb; ++b) block_fold(b);
  }
  T acc = identity;
  for (std::size_t b = 0; b < nb; ++b) acc = combine(acc, partial[b].value);
  return acc;
}

template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t lo, std::size_t hi, T identity, Map&& map,
                  Combine&& combine) {
  return parallel_reduce(default_granularity_site(), lo, hi,
                         std::move(identity), std::forward<Map>(map),
                         std::forward<Combine>(combine));
}

/// Exclusive prefix sum of `values` in place; returns the total.
/// Two-pass blocked scan over the canonical partition: O(n) work,
/// O(log n)-style depth; same fold structure inline and on the pool.
template <typename T>
T scan_exclusive(std::vector<T>& values) {
  static GranularitySite site("primitives.scan");
  std::size_t n = values.size();
  if (n == 0) return T{};
  std::size_t nb = canonical_blocks(n, 0);
  if (nb == 1) {
    detail::SeqTimer timer(site, n);
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = values[i];
      values[i] = acc;
      acc += v;
    }
    return acc;
  }
  std::size_t g = kDefaultGrain;
  std::vector<T> sums(nb);
  auto block_sum = [&](std::size_t b) {
    std::size_t s = b * g, e = std::min(n, s + g);
    T acc{};
    for (std::size_t i = s; i < e; ++i) acc += values[i];
    sums[b] = acc;
  };
  auto block_scan = [&](std::size_t b) {
    std::size_t s = b * g, e = std::min(n, s + g);
    T acc = sums[b];
    for (std::size_t i = s; i < e; ++i) {
      T v = values[i];
      values[i] = acc;
      acc += v;
    }
  };
  // Decide once for both passes; the two-pass structure itself is fixed.
  bool pool = site.should_parallelize(2 * n);
  detail::SeqTimer timer(site, pool ? 0 : 2 * n);
  if (pool) {
    ThreadPool::instance().run_blocks(nb, block_sum);
  } else {
    for (std::size_t b = 0; b < nb; ++b) block_sum(b);
  }
  T total{};
  for (std::size_t b = 0; b < nb; ++b) {
    T v = sums[b];
    sums[b] = total;
    total += v;
  }
  if (pool) {
    ThreadPool::instance().run_blocks(nb, block_scan);
  } else {
    for (std::size_t b = 0; b < nb; ++b) block_scan(b);
  }
  return total;
}

/// pack_index: returns, in increasing order, all i in [0, n) with pred(i).
/// O(n) work; parallel two-pass (count then write).
template <typename Pred>
std::vector<std::uint32_t> pack_index(std::size_t n, Pred&& pred) {
  std::vector<std::uint32_t> flags(n);
  parallel_for(0, n, [&](std::size_t i) { flags[i] = pred(i) ? 1u : 0u; });
  std::vector<std::uint32_t> offsets = flags;
  std::uint32_t total = scan_exclusive(offsets);
  std::vector<std::uint32_t> out(total);
  parallel_for(0, n, [&](std::size_t i) {
    if (flags[i]) out[offsets[i]] = static_cast<std::uint32_t>(i);
  });
  return out;
}

/// pack: keeps items[i] for which pred(i) holds, preserving order.
template <typename T, typename Pred>
std::vector<T> pack(const std::vector<T>& items, Pred&& pred) {
  std::size_t n = items.size();
  std::vector<std::uint32_t> flags(n);
  parallel_for(0, n, [&](std::size_t i) { flags[i] = pred(i) ? 1u : 0u; });
  std::vector<std::uint32_t> offsets = flags;
  std::uint32_t total = scan_exclusive(offsets);
  std::vector<T> out(total);
  parallel_for(0, n, [&](std::size_t i) {
    if (flags[i]) out[offsets[i]] = items[i];
  });
  return out;
}

/// Parallel comparison sort: block-sort then pairwise merges over a
/// power-of-two block layout that depends only on n.  The comparators used
/// at call sites need not be total orders (ties happen), so the element
/// ORDER produced must not depend on scheduling either: std::sort and
/// std::merge are deterministic algorithms, and the block layout is
/// canonical, so the permutation is a pure function of the input whether
/// the rounds run inline or on the pool.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort(std::vector<T>& v, Cmp cmp = Cmp{}) {
  static GranularitySite site("primitives.sort", /*init_ns_per_unit=*/10.0);
  std::size_t n = v.size();
  if (n < kSortGrain) {
    std::sort(v.begin(), v.end(), cmp);
    return;
  }
  std::size_t nb = 1;
  while (nb * kSortGrain < n) nb <<= 1;
  std::size_t block = (n + nb - 1) / nb;
  auto begin_of = [&](std::size_t b) { return std::min(n, b * block); };

  bool pool = site.should_parallelize(n);
  detail::SeqTimer timer(site, pool ? 0 : n);
  auto run = [&](std::size_t count, auto&& fn) {
    if (pool) {
      ThreadPool::instance().run_blocks(count, fn);
    } else {
      for (std::size_t b = 0; b < count; ++b) fn(b);
    }
  };

  run(nb, [&](std::size_t b) {
    std::sort(v.begin() + begin_of(b), v.begin() + begin_of(b + 1), cmp);
  });
  std::vector<T> buf(n);
  for (std::size_t width = 1; width < nb; width <<= 1) {
    std::size_t pairs = nb / (2 * width);
    run(pairs, [&](std::size_t p) {
      std::size_t lo = begin_of(2 * p * width);
      std::size_t mid = begin_of(2 * p * width + width);
      std::size_t hi = begin_of(2 * p * width + 2 * width);
      std::merge(v.begin() + lo, v.begin() + mid, v.begin() + mid,
                 v.begin() + hi, buf.begin() + lo, cmp);
      std::copy(buf.begin() + lo, buf.begin() + hi, v.begin() + lo);
    });
  }
}

/// Stable LSD radix sort of the indices [0, keys.size()) by 64-bit key:
/// returns `order` with keys[order[0]] <= keys[order[1]] <= ..., equal keys
/// in index order — the unique stable permutation, so the result cannot
/// depend on the pool.  Eight 8-bit digit passes, minus every pass whose
/// digit is the same for all keys (all-equal keys need none).  Each pass
/// runs on the canonical block partition: per-block digit histograms,
/// scanned digit-major then in block order, give every block a private,
/// stable output range for each digit.  O(passes * (n + 256 * blocks)) work.
inline std::vector<std::uint32_t> radix_sort_indices(
    const std::vector<std::uint64_t>& keys) {
  static GranularitySite site("primitives.radix_sort", /*init_ns_per_unit=*/2.0);
  constexpr std::size_t kRadix = 256;
  std::size_t n = keys.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n < 2) return order;
  struct Bits {
    std::uint64_t all_or, all_and;
  };
  Bits bits = parallel_reduce(
      0, n, Bits{0, ~std::uint64_t{0}},
      [&](std::size_t i) { return Bits{keys[i], keys[i]}; },
      [](Bits a, Bits b) {
        return Bits{a.all_or | b.all_or, a.all_and & b.all_and};
      });
  std::uint64_t varying = bits.all_or ^ bits.all_and;
  if (varying == 0) return order;

  std::size_t nb = canonical_blocks(n, 0);
  std::size_t g = kDefaultGrain;
  // Pass buffers ping-pong; the first pass reads `keys` in place.
  std::vector<std::uint64_t> key_a(n), key_b(n);
  std::vector<std::uint32_t> idx_out(n);
  const std::uint64_t* key_in = keys.data();
  std::vector<std::uint32_t> hist(nb * kRadix);
  bool pool = site.should_parallelize(2 * n);
  detail::SeqTimer timer(site, pool ? 0 : 2 * n);
  auto run = [&](auto&& fn) {
    if (pool) {
      ThreadPool::instance().run_blocks(nb, fn);
    } else {
      for (std::size_t b = 0; b < nb; ++b) fn(b);
    }
  };
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & (kRadix - 1)) == 0) continue;
    std::uint64_t* key_out = key_in == key_a.data() ? key_b.data() : key_a.data();
    run([&](std::size_t b) {
      std::uint32_t* h = hist.data() + b * kRadix;
      std::fill(h, h + kRadix, 0u);
      for (std::size_t i = b * g, e = std::min(n, i + g); i < e; ++i) {
        ++h[(key_in[i] >> shift) & (kRadix - 1)];
      }
    });
    std::uint32_t at = 0;
    for (std::size_t d = 0; d < kRadix; ++d) {
      for (std::size_t b = 0; b < nb; ++b) {
        std::uint32_t c = hist[b * kRadix + d];
        hist[b * kRadix + d] = at;
        at += c;
      }
    }
    run([&](std::size_t b) {
      std::uint32_t* cursor = hist.data() + b * kRadix;
      for (std::size_t i = b * g, e = std::min(n, i + g); i < e; ++i) {
        std::uint32_t p = cursor[(key_in[i] >> shift) & (kRadix - 1)]++;
        key_out[p] = key_in[i];
        idx_out[p] = order[i];
      }
    });
    key_in = key_out;
    order.swap(idx_out);
  }
  return order;
}

/// Fills `out[i] = f(i)` for i in [0, n) and returns the vector.
template <typename T, typename F>
std::vector<T> tabulate(std::size_t n, F&& f) {
  std::vector<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace parsdd
