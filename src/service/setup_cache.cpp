#include "service/setup_cache.h"

#include <cstring>

#include "util/serialize.h"

namespace parsdd {

namespace {

// Field-by-field mixing (serialize::fnv1a64 over each value's bytes) rather
// than hashing a struct image: struct padding holds indeterminate bytes and
// would make equal inputs fingerprint differently.  Two independently
// seeded lanes feed the 128-bit SetupFingerprint a hit must fully match.
class Mix {
 public:
  template <typename T>
  Mix& operator<<(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
    return *this;
  }
  /// Bulk ingestion: one hash pass per lane over the whole buffer, which is
  /// what lets fnv1a64's 4-lane word path carry the O(m) graph content —
  /// the cache-hit fast path must not hash millions of edges field by field.
  Mix& bytes(const void* data, std::size_t size) {
    lo_ = serialize::fnv1a64(data, size, lo_);
    hi_ = serialize::fnv1a64(data, size, hi_);
    return *this;
  }
  SetupFingerprint hash() const { return SetupFingerprint{lo_, hi_}; }

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ull;
  std::uint64_t hi_ = 0x6c62272e07bb0142ull;
};

void mix_options(Mix& m, const SddSolverOptions& o) {
  m << o.tolerance << o.max_iterations << static_cast<std::uint32_t>(o.method);
  // ChainOptions' LSSubgraph fields (lambda, theta, subgraph_y/z) are left
  // out: build_chain does not read them, so requests that differ only
  // there build identical setups and should share one.
  const ChainOptions& c = o.chain;
  m << c.seed << static_cast<std::uint32_t>(c.mode) << c.kappa
    << c.kappa_growth << c.bottom_size << c.max_levels << c.oversample
    << c.p_floor << c.subgraph_scale;
  const RecursiveSolverOptions& r = o.recursion;
  m << static_cast<std::uint32_t>(r.inner) << r.inner_tolerance
    << r.inner_max_iterations << r.inner_iterations << r.kappa_cap
    << r.power_iterations << r.lambda_max_margin << r.seed;
}

}  // namespace

SetupFingerprint fingerprint_laplacian_setup(std::uint32_t n,
                                             const EdgeList& edges,
                                             const SddSolverOptions& opts) {
  Mix m;
  m << std::uint8_t{0x4c}  // 'L': laplacian-vs-sdd registrations never alias
    << n << static_cast<std::uint64_t>(edges.size());
  // Edge has struct padding, so the image cannot be hashed directly; the
  // shared pack_edges buffers can, one bulk pass per lane.
  std::vector<std::uint32_t> endpoints;
  std::vector<double> weights;
  pack_edges(edges, endpoints, weights);
  m.bytes(endpoints.data(), endpoints.size() * sizeof(std::uint32_t));
  m.bytes(weights.data(), weights.size() * sizeof(double));
  mix_options(m, opts);
  return m.hash();
}

SetupFingerprint fingerprint_sdd_setup(const CsrMatrix& a,
                                       const SddSolverOptions& opts) {
  Mix m;
  m << std::uint8_t{0x41}  // 'A'
    << a.dimension() << static_cast<std::uint64_t>(a.num_nonzeros());
  for (std::uint32_t i = 0; i < a.dimension(); ++i) {
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    // The row length delimits the concatenated streams, so two matrices
    // with equal nonzeros split across different rows never alias.
    m << static_cast<std::uint64_t>(cols.size());
    m.bytes(cols.data(), cols.size() * sizeof(std::uint32_t));
    m.bytes(vals.data(), vals.size() * sizeof(double));
  }
  mix_options(m, opts);
  return m.hash();
}

SetupFingerprint extend_fingerprint(const SetupFingerprint& base,
                                    const std::vector<EdgeDelta>& deltas) {
  Mix m;
  m << std::uint8_t{0x55}  // 'U': an update chain never aliases a build
    << base.lo << base.hi << static_cast<std::uint64_t>(deltas.size());
  for (const EdgeDelta& d : deltas) {
    m << d.u << d.v << d.w;
  }
  return m.hash();
}

std::shared_ptr<const SolverSetup> SetupCache::get(const SetupFingerprint& key) {
  auto it = index_.find(slot(key));
  if (it == index_.end() || it->second->first != key) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return lru_.front().second;
}

void SetupCache::put(const SetupFingerprint& key,
                     std::shared_ptr<const SolverSetup> setup) {
  if (capacity_ == 0 || !setup) return;
  auto it = index_.find(slot(key));
  if (it != index_.end()) {
    // Same slot: refresh on a true match, replace on the (vanishingly
    // rare) slot collision — the full fingerprint stored in the entry is
    // what get() trusts, so a replaced entry can never be served wrongly.
    it->second->first = key;
    it->second->second = std::move(setup);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(setup));
  index_.emplace(slot(key), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(slot(lru_.back().first));
    lru_.pop_back();
  }
}

}  // namespace parsdd
