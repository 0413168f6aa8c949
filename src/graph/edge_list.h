// Edge-list representation and utilities.
//
// The decomposition and AKPW layers (Sections 4-5) manipulate multigraphs as
// explicit edge lists annotated with a weight class and the identity of the
// original edge (contraction keeps parallel edges, per Algorithm 5.1 step 3,
// so a CSR-only representation would not suffice).
#pragma once

#include <cstdint>
#include <vector>

#include "util/serialize.h"

namespace parsdd {

/// An undirected weighted edge.  Self-loops (u == v) are disallowed in
/// normalized lists; parallel edges are allowed unless combined explicitly.
struct Edge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double w = 1.0;
};

using EdgeList = std::vector<Edge>;

/// An edge of a working multigraph in the AKPW pipeline: current endpoint
/// labels in the contracted graph, the weight-class index `cls`, and the
/// index `id` of the originating edge in the input graph's edge list.
struct ClassedEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::uint32_t cls = 0;
  std::uint32_t id = 0;
};

/// 1 + the largest vertex id referenced, or 0 for an empty list.
std::uint32_t max_vertex_plus_one(const EdgeList& edges);

/// Removes self-loops (u == v), preserving order.
EdgeList remove_self_loops(const EdgeList& edges);

/// Canonicalizes (u < v), sorts, and merges parallel edges by summing
/// weights.  For Laplacians, parallel edges are equivalent to one edge of
/// the summed weight.
EdgeList combine_parallel_edges(const EdgeList& edges);

/// Sum of all edge weights.
double total_weight(const EdgeList& edges);

/// True if the graph (V = [0, n), E = edges) is connected.
bool is_connected(std::uint32_t n, const EdgeList& edges);

/// Adds minimum-weight unit edges joining connected components so the result
/// is connected (deterministic given `seed`); returns the number added.
std::size_t ensure_connected(std::uint32_t n, EdgeList& edges,
                             std::uint64_t seed);

/// Splits edges into padding-free parallel arrays ({u0,v0,u1,v1,...} and
/// {w0,w1,...}) — the one packing shared by the snapshot encoding and the
/// service's setup fingerprints, so the two can never silently diverge.
void pack_edges(const EdgeList& edges, std::vector<std::uint32_t>& endpoints,
                std::vector<double>& weights);

/// Snapshot encoding (util/serialize.h): endpoints and weights as parallel
/// POD spans, so Edge's struct padding never reaches the byte stream.
void save_edges(serialize::Writer& w, const EdgeList& edges);
EdgeList load_edges(serialize::Reader& r);

/// save_edges' two spans read in place (valid while the Reader lives), so
/// a loader can check a serialized list against one it already holds
/// before deciding to decode it.
struct EdgeListView {
  serialize::Reader::PodView<std::uint32_t> endpoints;
  serialize::Reader::PodView<double> weights;

  std::size_t size() const { return weights.size; }
  Edge operator[](std::size_t i) const {
    return Edge{endpoints[2 * i], endpoints[2 * i + 1], weights[i]};
  }
  EdgeList decode() const;
  /// True when `edges` encodes to exactly these bytes.
  bool matches(const EdgeList& edges) const;
};
/// Fails `r` (and returns an empty view) if the spans disagree on length.
EdgeListView load_edges_view(serialize::Reader& r);

}  // namespace parsdd
