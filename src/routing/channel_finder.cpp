#include "routing/channel_finder.hpp"

#include <cassert>
#include <limits>

#include "graph/spf_kernel.hpp"
#include "routing/perf_counters.hpp"
#include "routing/plan.hpp"

namespace muerp::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// A Counter is just its registry id; copying one at namespace scope bakes
// the id into this TU so the per-Dijkstra hot path skips the accessor call
// and its function-local-static guard. Registration order is safe: the
// accessors immortalize the registry before interning.
const support::telemetry::Counter kDijkstraRuns = metrics::dijkstra_runs();
const support::telemetry::Counter kHeapPops = metrics::heap_pops();
const support::telemetry::Counter kCacheHits = metrics::cache_hits();
const support::telemetry::Counter kCacheMisses = metrics::cache_misses();
const support::telemetry::Counter kCacheInvalidations =
    metrics::cache_invalidations();
const support::telemetry::Counter kFlipsCoalesced = metrics::flips_coalesced();
}  // namespace

void ChannelFinder::run_dijkstra(net::NodeId source,
                                 const net::CapacityState& capacity,
                                 std::vector<double>& dist,
                                 std::vector<graph::EdgeId>& parent) const {
  kDijkstraRuns.add(1);

  auto& ctx = graph::spf::thread_context();
  // Affine view values carry the paper's alpha * L(e) - ln(q) pre-baked
  // (x + (-y) == x - y exactly in IEEE arithmetic, so every distance stays
  // bit-identical to the seed loop's per-edge computation). The expansion
  // gate is Def. 2 + Algorithm 1 Line 11: only the source user and switches
  // with >= 2 free qubits relay; other users are reachable endpoints. Trees
  // are always run to exhaustion (no stop predicate): the cached finder's
  // invalidation contract reads switch reachability across the whole tree.
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      network_->graph(), network_->physical().attenuation, -log_swap_);
  std::uint64_t pops = 0;  // kernel hook is a plain pointer; fold in once
  graph::spf::run(
      csr, ctx.workspace, source,
      [&](std::size_t slot) { return csr.value(slot); },
      [&](net::NodeId v) {
        return network_->is_switch(v) && capacity.free_qubits(v) >= 2;
      },
      graph::spf::NeverStop{}, &pops);
  kHeapPops.add(pops);
  ctx.workspace.extract(dist, parent);
}

std::optional<net::Channel> ChannelFinder::extract_channel(
    net::NodeId source, net::NodeId destination,
    const std::vector<double>& dist,
    const std::vector<graph::EdgeId>& parent) const {
  if (dist[destination] == kInf) return std::nullopt;
  net::Channel channel = channel_to(
      network_->graph(), destination, dist[destination], swap_success_,
      log_swap_, [&](net::NodeId v) { return parent[v]; });
  assert(channel.source() == source);
  (void)source;
  return channel;
}

std::optional<net::Channel> ChannelFinder::find_best_channel(
    net::NodeId source, net::NodeId destination,
    const net::CapacityState& capacity, double* routing_distance) const {
  assert(network_->is_user(source) && network_->is_user(destination));
  assert(source != destination);
  std::vector<double> dist;
  std::vector<graph::EdgeId> parent;
  run_dijkstra(source, capacity, dist, parent);
  if (routing_distance != nullptr) *routing_distance = dist[destination];
  return extract_channel(source, destination, dist, parent);
}

std::vector<net::Channel> ChannelFinder::find_best_channels(
    net::NodeId source, const net::CapacityState& capacity) const {
  assert(network_->is_user(source));
  std::vector<double> dist;
  std::vector<graph::EdgeId> parent;
  run_dijkstra(source, capacity, dist, parent);

  std::vector<net::Channel> channels;
  for (net::NodeId user : network_->users()) {
    if (user == source) continue;
    if (auto channel = extract_channel(source, user, dist, parent)) {
      channels.push_back(std::move(*channel));
    }
  }
  return channels;
}

CachedChannelFinder::CachedChannelFinder(const net::QuantumNetwork& network)
    : base_(network), enabled_(finder_cache_enabled()) {
  cache_.resize(network.graph().node_count());
  flip_parity_.assign(cache_.size(), 0);
  flip_status_.assign(cache_.size(), 0);
}

CachedChannelFinder::CachedChannelFinder(const net::QuantumNetwork& network,
                                         double swap_success, double log_swap)
    : base_(network, swap_success, log_swap),
      enabled_(finder_cache_enabled()) {
  cache_.resize(network.graph().node_count());
  flip_parity_.assign(cache_.size(), 0);
  flip_status_.assign(cache_.size(), 0);
}

bool CachedChannelFinder::invalidated_by_flips(
    CachedTree& tree, net::NodeId source,
    std::span<const net::RelayFlip> flips) {
  // Coalesce the tail per node. Flips at one switch strictly alternate, so
  // an even count means its status is back where the tree last saw it; the
  // transient states in between were never queried, hence unobservable.
  flip_nodes_.clear();
  for (const net::RelayFlip f : flips) {
    if (flip_parity_[f.node] == 0) flip_nodes_.push_back(f.node);
    flip_parity_[f.node] ^= 1;
    flip_status_[f.node] = f.can_relay_now ? 1 : 0;
  }
  bool invalidated = false;
  std::uint64_t coalesced = 0;
  for (const net::NodeId v : flip_nodes_) {
    const bool net_flip = flip_parity_[v] != 0;
    flip_parity_[v] = 0;  // reset scratch for the next call
    if (!net_flip) ++coalesced;
    if (invalidated || !net_flip) continue;
    // A switch that *lost* relay capability breaks the tree only if it sits
    // on a source->user path (the only entries consumers read); one that
    // *gained* it may open shorter paths anywhere it is reachable.
    if (flip_status_[v] != 0) {
      invalidated = tree.dist[v] < kInf;
    } else {
      if (!tree.marks_built) build_marks(tree, source);
      invalidated = tree.on_user_path[v] != 0;
    }
  }
  if (coalesced != 0) kFlipsCoalesced.add(coalesced);
  return invalidated;
}

CachedChannelFinder::CachedTree& CachedChannelFinder::tree_for(
    net::NodeId source, const net::CapacityState& capacity) {
  assert(source < cache_.size());
  CachedTree& tree = cache_[source];
  if (enabled_ && tree.valid && tree.state_id == capacity.id()) {
    if (!invalidated_by_flips(tree, source,
                              capacity.flips_since(tree.epoch))) {
      tree.epoch = capacity.epoch();
      kCacheHits.add(1);
      return tree;
    }
    kCacheInvalidations.add(1);
  }
  if (enabled_) kCacheMisses.add(1);
  base_.run_dijkstra(source, capacity, tree.dist, tree.parent);
  tree.state_id = capacity.id();
  tree.epoch = capacity.epoch();
  tree.valid = true;
  tree.marks_built = false;
  return tree;
}

void CachedChannelFinder::build_marks(CachedTree& tree,
                                      net::NodeId source) const {
  // The nodes invalidation checks must watch: everything on a shortest path
  // from the source to some user.
  const auto& g = base_.network_->graph();
  tree.on_user_path.assign(tree.dist.size(), 0);
  for (const net::NodeId user : base_.network_->users()) {
    if (tree.dist[user] == kInf) continue;
    net::NodeId cursor = user;
    while (cursor != source && !tree.on_user_path[cursor]) {
      tree.on_user_path[cursor] = 1;
      cursor = g.edge(tree.parent[cursor]).other(cursor);
    }
  }
  tree.on_user_path[source] = 1;
  tree.marks_built = true;
}

std::optional<net::Channel> CachedChannelFinder::find_best_channel(
    net::NodeId source, net::NodeId destination,
    const net::CapacityState& capacity, double* routing_distance) {
  assert(base_.network_->is_user(source) &&
         base_.network_->is_user(destination));
  assert(source != destination);
  const CachedTree& tree = tree_for(source, capacity);
  if (routing_distance != nullptr) *routing_distance = tree.dist[destination];
  return base_.extract_channel(source, destination, tree.dist, tree.parent);
}

std::span<const double> CachedChannelFinder::distances(
    net::NodeId source, const net::CapacityState& capacity) {
  assert(base_.network_->is_user(source));
  return tree_for(source, capacity).dist;
}

std::optional<net::Channel> CachedChannelFinder::extract_scanned(
    net::NodeId source, net::NodeId destination,
    const net::CapacityState& capacity) {
  assert(source < cache_.size());
  const CachedTree& tree = cache_[source];
  // (state_id, epoch) equality means no relay status flipped since the tree
  // was buffered, so a fresh Dijkstra would reproduce it bit-identically —
  // extraction is exact in both cache modes without re-running anything.
  assert(tree.valid && tree.state_id == capacity.id() &&
         tree.epoch == capacity.epoch());
  (void)capacity;
  return base_.extract_channel(source, destination, tree.dist, tree.parent);
}

std::vector<net::Channel> CachedChannelFinder::find_best_channels(
    net::NodeId source, const net::CapacityState& capacity) {
  assert(base_.network_->is_user(source));
  const CachedTree& tree = tree_for(source, capacity);
  std::vector<net::Channel> channels;
  for (net::NodeId user : base_.network_->users()) {
    if (user == source) continue;
    if (auto channel =
            base_.extract_channel(source, user, tree.dist, tree.parent)) {
      channels.push_back(std::move(*channel));
    }
  }
  return channels;
}

}  // namespace muerp::routing
