// Shared helpers for assembling routing results.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "network/rate.hpp"

namespace muerp::routing {

/// Packages channels into an EntanglementTree. When `feasible`, the tree
/// rate is the Eq. (2) product of the channel rates; otherwise rate is 0 and
/// the channels are kept only as partial-progress diagnostics (§V-A: "if a
/// channel in the entanglement tree cannot be established ... the
/// entanglement rate becomes zero").
net::EntanglementTree make_tree(std::vector<net::Channel> channels,
                                bool feasible);

/// The channel a shortest-path run found to `destination` at routing
/// distance `dist`: its path follows `parent(v)` arcs back from
/// `destination` to the first node without one (the run's source) and is
/// returned source first. The rate divides one swap factor `swap_success`
/// back out of the distance (Algorithm 1, Line 27); neg_log_rate is
/// `dist + log_swap`.
template <typename ParentFn>
net::Channel channel_to(const graph::Graph& graph, net::NodeId destination,
                        double dist, double swap_success, double log_swap,
                        ParentFn&& parent) {
  net::Channel channel;
  channel.rate = net::rate_from_routing_distance(dist, swap_success);
  channel.neg_log_rate = dist + log_swap;
  net::NodeId cursor = destination;
  channel.path.push_back(cursor);
  for (graph::EdgeId via = parent(cursor); via != graph::kInvalidEdge;
       via = parent(cursor)) {
    cursor = graph.edge(via).other(cursor);
    channel.path.push_back(cursor);
  }
  assert(channel.path.size() >= 2);
  std::reverse(channel.path.begin(), channel.path.end());
  return channel;
}

/// True if the channels' user-level graph connects all of `users` into one
/// tree (exactly users.size()-1 channels, no cycles, one component).
bool channels_span_users(std::span<const net::NodeId> users,
                         std::span<const net::Channel> channels);

/// True when deducting 2 qubits per interior vertex of every channel in
/// `tree` stays within `capacity` — the admission guard for algorithms that
/// do not track residuals themselves (SessionService, Router batch mode).
bool tree_fits_capacity(const net::QuantumNetwork& network,
                        const net::EntanglementTree& tree,
                        const net::CapacityState& capacity);

}  // namespace muerp::routing
