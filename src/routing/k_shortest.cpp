#include "routing/k_shortest.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include "graph/spf_kernel.hpp"
#include "network/rate.hpp"
#include "routing/channel_finder.hpp"
#include "routing/perf_counters.hpp"

namespace muerp::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// TU-local copies bake the counter ids in so the per-spur-search hot path
// skips the accessor call (see channel_finder.cpp).
const support::telemetry::Counter kDijkstraRuns = metrics::dijkstra_runs();
const support::telemetry::Counter kHeapPops = metrics::heap_pops();

struct WeightedPath {
  std::vector<net::NodeId> nodes;
  double cost = kInf;  // sum of alpha*L - ln(q) over edges

  friend bool operator<(const WeightedPath& l, const WeightedPath& r) {
    if (l.cost != r.cost) return l.cost < r.cost;
    return l.nodes < r.nodes;  // total order for the candidate set
  }
};

/// Dijkstra from `source` to `target` with banned edges/nodes, honouring the
/// channel structure rules (interiors = switches with >= 2 free qubits).
std::optional<WeightedPath> restricted_dijkstra(
    const net::QuantumNetwork& network, net::NodeId source,
    net::NodeId target, const net::CapacityState& capacity,
    const std::unordered_set<graph::EdgeId>& banned_edges,
    const std::unordered_set<net::NodeId>& banned_nodes) {
  kDijkstraRuns.add(1);
  const auto& g = network.graph();
  auto& ctx = graph::spf::thread_context();
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      g, network.physical().attenuation, -network.log_swap_success());
  // Affine values pre-bake edge_routing_weight; bans are +infinity weight
  // (the kernel drops such arcs at relaxation), and the single destination
  // lets the search stop as soon as `target` settles — Yen's spur searches
  // rarely need the full tree.
  std::uint64_t pops = 0;
  graph::spf::run(
      csr, ctx.workspace, source,
      [&](std::size_t slot) {
        if (banned_edges.contains(csr.edge_id(slot)) ||
            banned_nodes.contains(csr.target(slot))) {
          return kInf;
        }
        return csr.value(slot);
      },
      [&](net::NodeId v) {
        return network.is_switch(v) && capacity.free_qubits(v) >= 2;
      },
      graph::spf::StopAt{target}, &pops);
  kHeapPops.add(pops);
  const graph::spf::SpfWorkspace& ws = ctx.workspace;
  if (ws.dist(target) == kInf) return std::nullopt;

  WeightedPath path;
  path.cost = ws.dist(target);
  net::NodeId cursor = target;
  path.nodes.push_back(cursor);
  while (cursor != source) {
    const graph::EdgeId via = ws.parent(cursor);
    cursor = g.edge(via).other(cursor);
    path.nodes.push_back(cursor);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

double path_cost(const net::QuantumNetwork& network,
                 std::span<const net::NodeId> nodes) {
  double cost = 0.0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const auto edge = network.graph().find_edge(nodes[i], nodes[i + 1]);
    assert(edge);
    cost += network.edge_routing_weight(*edge);
  }
  return cost;
}

}  // namespace

std::vector<net::Channel> k_best_channels(const net::QuantumNetwork& network,
                                          net::NodeId source,
                                          net::NodeId destination,
                                          const net::CapacityState& capacity,
                                          std::size_t k,
                                          CachedChannelFinder* finder) {
  assert(network.is_user(source) && network.is_user(destination));
  assert(source != destination);
  std::vector<net::Channel> result;
  if (k == 0) return result;

  std::vector<WeightedPath> accepted;  // A in Yen's terms
  std::set<WeightedPath> candidates;   // B: ordered, deduplicated

  if (finder != nullptr) {
    // The unrestricted base path is exactly Algorithm 1's answer — take it
    // from the memoized per-source tree instead of a fresh Dijkstra.
    double distance = kInf;
    auto ch = finder->find_best_channel(source, destination, capacity,
                                        &distance);
    if (!ch) return result;
    WeightedPath first;
    first.nodes = std::move(ch->path);
    first.cost = distance;
    accepted.push_back(std::move(first));
  } else {
    auto first = restricted_dijkstra(network, source, destination, capacity,
                                     {}, {});
    if (!first) return result;
    accepted.push_back(std::move(*first));
  }

  while (accepted.size() < k) {
    const WeightedPath& previous = accepted.back();
    // Deviate at every node of the previous path except the destination.
    for (std::size_t spur = 0; spur + 1 < previous.nodes.size(); ++spur) {
      const net::NodeId spur_node = previous.nodes[spur];
      const std::span<const net::NodeId> root(previous.nodes.data(),
                                              spur + 1);

      // Ban the outgoing edges used by accepted paths sharing this root,
      // forcing a genuinely new continuation.
      std::unordered_set<graph::EdgeId> banned_edges;
      for (const WeightedPath& p : accepted) {
        if (p.nodes.size() <= spur + 1) continue;
        if (!std::equal(root.begin(), root.end(), p.nodes.begin())) continue;
        const auto e =
            network.graph().find_edge(p.nodes[spur], p.nodes[spur + 1]);
        if (e) banned_edges.insert(*e);
      }
      // Ban root nodes (except the spur) to keep the full path simple.
      std::unordered_set<net::NodeId> banned_nodes(root.begin(),
                                                   root.end() - 1);

      auto spur_path = restricted_dijkstra(network, spur_node, destination,
                                           capacity, banned_edges,
                                           banned_nodes);
      if (!spur_path) continue;

      WeightedPath total;
      total.nodes.assign(root.begin(), root.end() - 1);
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                         spur_path->nodes.end());
      total.cost = path_cost(network, total.nodes);
      // Skip if identical to an already accepted path.
      const bool duplicate =
          std::any_of(accepted.begin(), accepted.end(),
                      [&](const WeightedPath& p) {
                        return p.nodes == total.nodes;
                      });
      if (!duplicate) candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    accepted.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }

  result.reserve(accepted.size());
  for (WeightedPath& p : accepted) {
    net::Channel channel;
    channel.rate = net::rate_from_routing_distance(
        p.cost, network.physical().swap_success);
    channel.neg_log_rate = p.cost + network.log_swap_success();
    channel.path = std::move(p.nodes);
    result.push_back(std::move(channel));
  }
  return result;
}

}  // namespace muerp::routing
