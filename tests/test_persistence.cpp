// Setup persistence: round-trips for every serialized type, the bitwise
// saved-vs-loaded solve contract, load cheaper than build, service
// warm-start, and clean typed failures on truncated / corrupt /
// version-mismatched snapshots.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "file_test_util.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "linalg/dense_ldlt.h"
#include "linalg/gremban.h"
#include "linalg/laplacian.h"
#include "service/solver_service.h"
#include "solver/chain.h"
#include "solver/greedy_elimination.h"
#include "solver/solver_setup.h"
#include "util/serialize.h"

#ifndef PARSDD_TEST_DATA_DIR
#define PARSDD_TEST_DATA_DIR "tests/data"
#endif

namespace parsdd {
namespace {

using test_util::TempFile;
using test_util::file_bytes;
using test_util::write_bytes;

// Rewrites `data` (a whole snapshot image) with a freshly computed checksum
// trailer, so tests can tamper with payload fields and still get past the
// integrity check to the targeted validation they want to exercise.
void reseal_checksum(std::vector<std::uint8_t>& data) {
  ASSERT_GE(data.size(), sizeof(std::uint64_t));
  std::size_t payload = data.size() - sizeof(std::uint64_t);
  std::uint64_t checksum = serialize::fnv1a64(data.data(), payload);
  std::memcpy(data.data() + payload, &checksum, sizeof(checksum));
}

TEST(Serialize, PrimitivesRoundTrip) {
  serialize::Writer w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.1);
  w.boolean(true);
  w.boolean(false);
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(0xffffffffffffffffull);
  std::vector<std::uint32_t> ids = {3, 1, 4, 1, 5};
  std::vector<double> vals = {2.71828, -1.0};
  std::vector<std::size_t> sizes = {0, 9, 1u << 20};
  w.pod_vec(ids);
  w.pod_vec(vals);
  w.size_vec(sizes);

  serialize::Reader r(w.take());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), 0xffffffffffffffffull);
  EXPECT_EQ(r.pod_vec<std::uint32_t>(), ids);
  EXPECT_EQ(r.pod_vec<double>(), vals);
  EXPECT_EQ(r.size_vec(), sizes);
  EXPECT_TRUE(r.status().ok()) << r.status().to_string();
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, ReadPastEndIsStickyNotFatal) {
  serialize::Writer w;
  w.u32(42);
  serialize::Reader r(w.take());
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.u64(), 0u);  // past end: zero, not a crash
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.u32(), 0u);  // sticky
  EXPECT_TRUE(r.pod_vec<double>().empty());
}

TEST(Serialize, HugeClaimedCountRejectedBeforeAllocation) {
  serialize::Writer w;
  w.varint(0x7fffffffffffffffull);  // element count far beyond the buffer
  serialize::Reader r(w.take());
  EXPECT_TRUE(r.pod_vec<double>().empty());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Persistence, EdgeListRoundTrip) {
  GeneratedGraph g = grid2d(5, 7);
  randomize_weights_log_uniform(g.edges, 100.0, 3);
  serialize::Writer w;
  save_edges(w, g.edges);
  serialize::Reader r(w.take());
  EdgeList loaded = load_edges(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  ASSERT_EQ(loaded.size(), g.edges.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].u, g.edges[i].u);
    EXPECT_EQ(loaded[i].v, g.edges[i].v);
    EXPECT_EQ(loaded[i].w, g.edges[i].w);
  }
}

TEST(Persistence, CsrMatrixRoundTripBitwise) {
  GeneratedGraph g = erdos_renyi(60, 200, 11);
  randomize_weights_log_uniform(g.edges, 1e4, 5);
  CsrMatrix a = laplacian_from_edges(g.n, g.edges);
  serialize::Writer w;
  a.save(w);
  serialize::Reader r(w.take());
  CsrMatrix b = CsrMatrix::load(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  ASSERT_EQ(b.dimension(), a.dimension());
  ASSERT_EQ(b.num_nonzeros(), a.num_nonzeros());
  Vec x = random_unit_like(g.n, 17);
  Vec ya = a.apply(x);
  Vec yb = b.apply(x);
  EXPECT_EQ(0, std::memcmp(ya.data(), yb.data(), ya.size() * sizeof(double)));
}

TEST(Persistence, ViewsMatchAndDecodeLikeLoad) {
  // The in-place views decode to what load() returns, match exactly the
  // objects they were saved from, and reject a one-weight difference.
  GeneratedGraph g = grid2d(6, 5);
  randomize_weights_log_uniform(g.edges, 100.0, 9);
  CsrMatrix a = laplacian_from_edges(g.n, g.edges);
  serialize::Writer w;
  save_edges(w, g.edges);
  a.save(w);
  serialize::Reader r(w.take());
  EdgeListView edges = load_edges_view(r);
  CsrMatrix::View lap = CsrMatrix::load_view(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(edges.matches(g.edges));
  EXPECT_TRUE(a.matches(lap));
  EdgeList decoded = edges.decode();
  ASSERT_EQ(decoded.size(), g.edges.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].u, g.edges[i].u);
    EXPECT_EQ(decoded[i].v, g.edges[i].v);
    EXPECT_EQ(decoded[i].w, g.edges[i].w);
  }
  CsrMatrix b = CsrMatrix::decode(lap, r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  EXPECT_TRUE(b.matches(lap));

  EdgeList heavier = g.edges;
  heavier.back().w *= 2.0;
  EXPECT_FALSE(edges.matches(heavier));
  EXPECT_FALSE(laplacian_from_edges(g.n, heavier).matches(lap));
}

TEST(Persistence, DefaultCsrMatrixRoundTrip) {
  serialize::Writer w;
  CsrMatrix().save(w);
  serialize::Reader r(w.take());
  CsrMatrix m = CsrMatrix::load(r);
  EXPECT_TRUE(r.status().ok()) << r.status().to_string();
  EXPECT_EQ(m.dimension(), 0u);
}

TEST(Persistence, DenseLdltRoundTripBitwise) {
  GeneratedGraph g = grid2d(6, 6);
  DenseLdlt f = DenseLdlt::factor_laplacian(laplacian_from_edges(g.n, g.edges));
  serialize::Writer w;
  f.save(w);
  serialize::Reader r(w.take());
  DenseLdlt loaded = DenseLdlt::load(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  ASSERT_EQ(loaded.dimension(), f.dimension());
  Vec b = random_unit_like(g.n, 23);
  Vec xa = f.solve(b);
  Vec xb = loaded.solve(b);
  EXPECT_EQ(0, std::memcmp(xa.data(), xb.data(), xa.size() * sizeof(double)));
}

TEST(Persistence, EliminationRoundTripBitwise) {
  GeneratedGraph g = grid2d(9, 4);
  GreedyEliminationResult e = greedy_eliminate(g.n, g.edges, 5);
  serialize::Writer w;
  e.save(w);
  serialize::Reader r(w.take());
  GreedyEliminationResult loaded = GreedyEliminationResult::load(r, g.n);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  ASSERT_EQ(loaded.steps.size(), e.steps.size());
  EXPECT_EQ(loaded.rounds, e.rounds);
  EXPECT_EQ(loaded.reduced_n, e.reduced_n);
  EXPECT_EQ(loaded.orig_of_reduced, e.orig_of_reduced);
  EXPECT_EQ(loaded.reduced_of_orig, e.reduced_of_orig);
  MultiVec b = MultiVec::from_columns({random_unit_like(g.n, 29)});
  MultiVec fa, fb, ra, rb;
  e.fold_rhs_block(b, fa, ra);
  loaded.fold_rhs_block(b, fb, rb);
  EXPECT_EQ(0, std::memcmp(fa.data().data(), fb.data().data(),
                           fa.data().size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(ra.data().data(), rb.data().data(),
                           ra.data().size() * sizeof(double)));
}

TEST(Persistence, GrembanRoundTrip) {
  // An SDD matrix with positive off-diagonals and diagonal excess, so the
  // reduction actually carries a double cover.
  std::vector<Triplet> ts = {{0, 0, 4.0}, {1, 1, 4.0}, {2, 2, 5.0},
                             {0, 1, 1.5}, {1, 0, 1.5}, {1, 2, -2.0},
                             {2, 1, -2.0}};
  GrembanReduction red = gremban_reduce(CsrMatrix::from_triplets(3, ts));
  ASSERT_FALSE(red.was_laplacian);
  serialize::Writer w;
  red.save(w);
  serialize::Reader r(w.take());
  GrembanReduction loaded = GrembanReduction::load(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  EXPECT_EQ(loaded.n, red.n);
  EXPECT_EQ(loaded.was_laplacian, red.was_laplacian);
  ASSERT_EQ(loaded.edges.size(), red.edges.size());
  Vec b = random_unit_like(red.n, 31);
  Vec la = red.lift_rhs(b);
  Vec lb = loaded.lift_rhs(b);
  EXPECT_EQ(0, std::memcmp(la.data(), lb.data(), la.size() * sizeof(double)));
}

TEST(Persistence, RootedTreeRoundTrip) {
  GeneratedGraph g = path(40);
  randomize_weights_log_uniform(g.edges, 50.0, 7);
  RootedTree t = RootedTree::from_edges(g.n, g.edges, 3);
  serialize::Writer w;
  t.save(w);
  serialize::Reader r(w.take());
  RootedTree loaded = RootedTree::load(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  ASSERT_EQ(loaded.num_vertices(), t.num_vertices());
  EXPECT_EQ(loaded.root(), t.root());
  for (std::uint32_t v = 0; v < g.n; ++v) {
    EXPECT_EQ(loaded.parent(v), t.parent(v));
    EXPECT_EQ(loaded.depth(v), t.depth(v));
    EXPECT_EQ(loaded.weighted_depth(v), t.weighted_depth(v));
  }
  EXPECT_EQ(loaded.lca(0, 39), t.lca(0, 39));
  EXPECT_EQ(loaded.distance(5, 31), t.distance(5, 31));
}

TEST(Persistence, ChainRoundTrip) {
  GeneratedGraph g = grid2d(12, 12);
  randomize_weights_two_level(g.edges, 100.0, 13);
  SolverChain chain = build_chain(g.n, g.edges);
  serialize::Writer w;
  save_chain(w, chain);
  serialize::Reader r(w.take());
  SolverChain loaded = load_chain(r);
  ASSERT_TRUE(r.status().ok()) << r.status().to_string();
  ASSERT_EQ(loaded.depth(), chain.depth());
  EXPECT_EQ(loaded.total_edges(), chain.total_edges());
  EXPECT_EQ(loaded.bottom.has_value(), chain.bottom.has_value());
  for (std::uint32_t i = 0; i < chain.depth(); ++i) {
    EXPECT_EQ(loaded.levels[i].n, chain.levels[i].n);
    EXPECT_EQ(loaded.levels[i].edges.size(), chain.levels[i].edges.size());
    EXPECT_EQ(loaded.levels[i].has_preconditioner,
              chain.levels[i].has_preconditioner);
    EXPECT_EQ(loaded.levels[i].kappa, chain.levels[i].kappa);
    EXPECT_EQ(loaded.levels[i].elimination.steps.size(),
              chain.levels[i].elimination.steps.size());
  }
}

// The tentpole contract: a loaded setup answers bitwise-identically, for
// single and batched RHS, across a disconnected weighted graph.
TEST(Persistence, SetupSaveLoadSolveBitwise) {
  GeneratedGraph g = grid2d(14, 11);
  randomize_weights_log_uniform(g.edges, 1e3, 41);
  // Second component + an isolated vertex to exercise the component maps.
  GeneratedGraph h = path(9);
  std::uint32_t base = g.n;
  for (const Edge& e : h.edges) {
    g.edges.push_back(Edge{base + e.u, base + e.v, 2.5});
  }
  std::uint32_t n = base + h.n + 1;

  SolverSetup setup = SolverSetup::for_laplacian(n, g.edges);
  TempFile file("setup_bitwise");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  EXPECT_EQ(loaded->dimension(), setup.dimension());
  EXPECT_EQ(loaded->num_components(), setup.num_components());
  EXPECT_EQ(loaded->chain_levels(), setup.chain_levels());
  EXPECT_EQ(loaded->chain_edges(), setup.chain_edges());

  Vec b = random_unit_like(n, 43);
  StatusOr<Vec> xa = setup.solve(b);
  StatusOr<Vec> xb = loaded->solve(b);
  ASSERT_TRUE(xa.ok() && xb.ok());
  ASSERT_EQ(xa->size(), xb->size());
  EXPECT_EQ(0,
            std::memcmp(xa->data(), xb->data(), xa->size() * sizeof(double)));

  MultiVec block(n, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    block.set_column(c, random_unit_like(n, 100 + c));
  }
  StatusOr<MultiVec> ya = setup.solve_batch(block);
  StatusOr<MultiVec> yb = loaded->solve_batch(block);
  ASSERT_TRUE(ya.ok() && yb.ok());
  EXPECT_EQ(0, std::memcmp(ya->data().data(), yb->data().data(),
                           ya->data().size() * sizeof(double)));
}

TEST(Persistence, LoadIsCheaperThanBuild) {
  // The warm-start claim: a restart pays snapshot-load time, not
  // chain-build time.  Best of three on each side damps scheduler noise;
  // the 4x bar sits under the ~10x a 100x100 grid measures in Release
  // (about 5-7x under ASan+UBSan).
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  GeneratedGraph g = grid2d(100, 100);
  TempFile file("load_vs_build");
  double build_s = std::numeric_limits<double>::infinity();
  double load_s = build_s;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
    build_s = std::min(build_s, seconds_since(t0));
    if (rep == 0) {
      ASSERT_TRUE(setup.Save(file.path()).ok());
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
    load_s = std::min(load_s, seconds_since(t0));
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  }
  EXPECT_LE(load_s, build_s / 4)
      << "best build " << 1e3 * build_s << " ms, best load " << 1e3 * load_s
      << " ms";
}

TEST(Persistence, SetupSaveLoadSddGrembanBitwise) {
  // Non-Laplacian SDD input: the snapshot must carry the Gremban lift.
  std::vector<Triplet> ts;
  std::uint32_t n = 12;
  for (std::uint32_t i = 0; i < n; ++i) ts.push_back({i, i, 5.0});
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    double w = (i % 3 == 0) ? 1.0 : -1.5;  // mixed-sign off-diagonals
    ts.push_back({i, i + 1, w});
    ts.push_back({i + 1, i, w});
  }
  CsrMatrix a = CsrMatrix::from_triplets(n, ts);
  ASSERT_TRUE(a.is_sdd());
  SolverSetup setup = SolverSetup::for_sdd(a);
  TempFile file("setup_sdd");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->dimension(), n);
  Vec b = random_unit_like(n, 47);
  StatusOr<Vec> xa = setup.solve(b);
  StatusOr<Vec> xb = loaded->solve(b);
  ASSERT_TRUE(xa.ok() && xb.ok());
  EXPECT_EQ(0,
            std::memcmp(xa->data(), xb->data(), xa->size() * sizeof(double)));
}

TEST(Persistence, ChebyshevBoundsSurviveRoundTrip) {
  // rPCh mode measures per-level spectral bounds at build time; the
  // snapshot must restore them without re-measuring (bitwise solves).
  GeneratedGraph g = grid2d(10, 10);
  SddSolverOptions opts;
  opts.method = SolveMethod::kChainRpch;
  opts.recursion.inner = InnerMethod::kChebyshev;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
  TempFile file("setup_cheb");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  Vec b = random_unit_like(g.n, 53);
  StatusOr<Vec> xa = setup.solve(b);
  StatusOr<Vec> xb = loaded->solve(b);
  ASSERT_TRUE(xa.ok() && xb.ok());
  EXPECT_EQ(0,
            std::memcmp(xa->data(), xb->data(), xa->size() * sizeof(double)));
}

TEST(Persistence, SaveLoadSaveBytesIdentical) {
  GeneratedGraph g = torus2d(8, 9);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  TempFile first("resave_a"), second("resave_b");
  ASSERT_TRUE(setup.Save(first.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(first.path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->Save(second.path()).ok());
  EXPECT_EQ(file_bytes(first.path()), file_bytes(second.path()));
}

TEST(Persistence, ComponentCopyUnlikeChainLevel0IsKept) {
  // A saved component's edges and Laplacian duplicate its current chain's
  // level 0, and a loaded setup keeps one copy.  A snapshot whose
  // component copy differs (here one forged weight) must keep its own:
  // re-saving gives back exactly the loaded bytes.
  GeneratedGraph g = grid2d(6, 6);
  randomize_weights_log_uniform(g.edges, 100.0, 4);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  TempFile file("own_copy"), resaved("own_copy_resave");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  std::vector<std::uint8_t> bytes = file_bytes(file.path());
  // The first copy of the weight array is the component's (the chain's
  // level 0 follows it); double its first weight.
  std::vector<std::uint8_t> pattern;
  for (const Edge& e : g.edges) {
    const auto* w = reinterpret_cast<const std::uint8_t*>(&e.w);
    pattern.insert(pattern.end(), w, w + sizeof(double));
  }
  auto at = std::search(bytes.begin(), bytes.end(), pattern.begin(),
                        pattern.end());
  ASSERT_NE(at, bytes.end());
  double doubled = 2.0 * g.edges[0].w;
  std::memcpy(&*at, &doubled, sizeof(doubled));
  reseal_checksum(bytes);
  write_bytes(file.path(), bytes);

  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_TRUE(loaded->Save(resaved.path()).ok());
  EXPECT_EQ(file_bytes(resaved.path()), bytes);
}

TEST(Persistence, MissingFileIsNotFound) {
  StatusOr<SolverSetup> loaded =
      SolverSetup::Load("/nonexistent/dir/parsdd.snap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(Persistence, TruncatedFilesFailCleanly) {
  GeneratedGraph g = grid2d(7, 7);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  TempFile file("truncate");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  std::vector<std::uint8_t> full = file_bytes(file.path());
  ASSERT_GT(full.size(), 64u);
  // Every prefix must fail with a typed status, never crash: below the
  // trailer size, mid-header, mid-payload, and one byte short.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{17}, full.size() / 3,
        full.size() / 2, full.size() - 1}) {
    std::vector<std::uint8_t> cut(full.begin(), full.begin() + keep);
    write_bytes(file.path(), cut);
    StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
    ASSERT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes";
    EXPECT_TRUE(loaded.status().code() == StatusCode::kInvalidArgument ||
                loaded.status().code() == StatusCode::kInternal)
        << loaded.status().to_string();
  }
}

TEST(Persistence, CorruptBytesFailCleanly) {
  GeneratedGraph g = grid2d(7, 6);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  TempFile file("corrupt");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  std::vector<std::uint8_t> full = file_bytes(file.path());
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, full.size() / 2,
                          full.size() - 9, full.size() - 1}) {
    std::vector<std::uint8_t> bad = full;
    bad[pos] ^= 0x40;
    write_bytes(file.path(), bad);
    StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().to_string();
  }
}

TEST(Persistence, ForgedPayloadNeverCrashes) {
  // Checksum-valid but malicious snapshots: mutate every payload byte (two
  // mutants per position — a bit flip and a saturating 0xff, the latter
  // forging huge vertex ids/counts), reseal the trailer, and Load.  Every
  // mutant must either fail with a typed Status or produce a setup whose
  // solve stays in bounds (the ASan CI job turns any violation into a
  // failure here) — results may be garbage, memory safety may not.
  GeneratedGraph g = grid2d(5, 4);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  TempFile file("forge");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  const std::vector<std::uint8_t> full = file_bytes(file.path());
  ASSERT_GT(full.size(), sizeof(std::uint64_t));
  const std::size_t payload = full.size() - sizeof(std::uint64_t);
  Vec b = random_unit_like(g.n, 11);
  std::size_t loads_ok = 0;
  for (std::size_t pos = 0; pos < payload; ++pos) {
    // Four mutants per position: a bit flip, a saturating 0xff (forged huge
    // ids/counts), a zero, and a low-bit flip — the last two turn stored
    // 0x01 booleans into *valid* 0x00 ones (chain-present, gremban-present,
    // has_preconditioner), which the other mutants can never produce.
    for (std::uint8_t mutant :
         {static_cast<std::uint8_t>(full[pos] ^ 0x40), std::uint8_t{0xff},
          std::uint8_t{0x00}, static_cast<std::uint8_t>(full[pos] ^ 0x01)}) {
      if (mutant == full[pos]) continue;
      std::vector<std::uint8_t> bad = full;
      bad[pos] = mutant;
      reseal_checksum(bad);
      write_bytes(file.path(), bad);
      StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
      if (!loaded.ok()) continue;
      ++loads_ok;
      (void)loaded->solve(b);
    }
  }
  // Plenty of mutations only touch weights/κ/bounds and legitimately load;
  // the scan is meaningful only if some of them did.
  EXPECT_GT(loads_ok, 0u);
}

TEST(Persistence, VersionMismatchFailsCleanly) {
  // A well-formed file from a "future" format version: valid checksum,
  // valid magic — only the version differs.  The header check must name it.
  serialize::Writer w;
  w.header(serialize::kFormatVersion + 1);
  GeneratedGraph g = grid2d(4, 4);
  SolverSetup::for_laplacian(g.n, g.edges).save_to(w);
  TempFile file("version");
  ASSERT_TRUE(w.to_file(file.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status().to_string();
}

TEST(Persistence, RemovedFp32RefinedSnapshotRefused) {
  // tests/data/f32_refined_grid4.bin is a 4x4 unit-grid setup saved by a
  // build that still had the fp32-refined precision mode.  The v3 layout
  // kept the options precision byte, so the file decodes up to it; Load
  // must refuse the 1 there with a message that says to rebuild.
  const std::string path =
      std::string(PARSDD_TEST_DATA_DIR) + "/f32_refined_grid4.bin";
  StatusOr<SolverSetup> loaded = SolverSetup::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("fp32-refined"), std::string::npos)
      << loaded.status().to_string();
  EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
      << loaded.status().to_string();

  // That byte is the only obstacle: header (8 bytes), setup tag (1),
  // tolerance (8), max_iterations (4), method (4), then precision.  With
  // it cleared the same file loads and solves.
  constexpr std::size_t kPrecisionOffset = 8 + 1 + 8 + 4 + 4;
  std::vector<std::uint8_t> bytes = file_bytes(path);
  ASSERT_GT(bytes.size(), kPrecisionOffset);
  ASSERT_EQ(bytes[kPrecisionOffset], 1u);
  bytes[kPrecisionOffset] = 0;
  reseal_checksum(bytes);
  TempFile file("fp32_cleared");
  write_bytes(file.path(), bytes);
  StatusOr<SolverSetup> cleared = SolverSetup::Load(file.path());
  ASSERT_TRUE(cleared.ok()) << cleared.status().to_string();
  Vec b = random_unit_like(cleared->dimension(), 4);
  EXPECT_TRUE(cleared->solve(b).ok());
}

TEST(Persistence, ForeignEndiannessFailsCleanly) {
  GeneratedGraph g = grid2d(4, 4);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  TempFile file("endian");
  ASSERT_TRUE(setup.Save(file.path()).ok());
  std::vector<std::uint8_t> bytes = file_bytes(file.path());
  std::swap(bytes[4 + 2], bytes[4 + 3]);  // byte-swap the endian mark
  reseal_checksum(bytes);
  write_bytes(file.path(), bytes);
  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("endian"), std::string::npos)
      << loaded.status().to_string();
}

TEST(Persistence, WrongPayloadTagFailsCleanly) {
  serialize::Writer w;
  w.header();
  w.u8(0xEE);  // not a SolverSetup tag
  w.u32(123);
  TempFile file("tag");
  ASSERT_TRUE(w.to_file(file.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Warm-start through the service: snapshot a registered setup, load it
// into a second service (a "restarted process"), and get bitwise-identical
// answers.
TEST(Persistence, ServiceSnapshotWarmStartBitwise) {
  GeneratedGraph g = grid2d(13, 9);
  randomize_weights_log_uniform(g.edges, 10.0, 61);
  Vec b = random_unit_like(g.n, 67);
  TempFile file("warmstart");
  Vec x_cold;
  {
    SolverService service;
    StatusOr<SetupHandle> handle = service.register_laplacian(g.n, g.edges);
    ASSERT_TRUE(handle.ok());
    StatusOr<SolveResult> res = service.submit(*handle, b).get();
    ASSERT_TRUE(res.ok());
    x_cold = res->x;
    ASSERT_TRUE(service.snapshot(*handle, file.path()).ok());
    EXPECT_EQ(service.snapshot(SetupHandle{999}, file.path()).code(),
              StatusCode::kNotFound);
  }
  {
    SolverService warm;
    StatusOr<SetupHandle> handle = warm.register_from_snapshot(file.path());
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    StatusOr<SetupInfo> info = warm.info(*handle);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->dimension, g.n);
    StatusOr<SolveResult> res = warm.submit(*handle, b).get();
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->x.size(), x_cold.size());
    EXPECT_EQ(0, std::memcmp(res->x.data(), x_cold.data(),
                             x_cold.size() * sizeof(double)));
  }
}

TEST(Persistence, ServiceSnapshotLoadRejectsGarbage) {
  SolverService service;
  EXPECT_EQ(service.register_from_snapshot("/no/such/file.snap")
                .status()
                .code(),
            StatusCode::kNotFound);
  TempFile file("garbage");
  write_bytes(file.path(), std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_EQ(service.register_from_snapshot(file.path()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace parsdd
