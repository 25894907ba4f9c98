#include "routing/backup.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>
#include <vector>

#include "graph/spf_kernel.hpp"
#include "network/rate.hpp"
#include "routing/disjoint_pair.hpp"
#include "routing/plan.hpp"

namespace muerp::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dijkstra with a set of banned fibers (the primary's links), honouring
/// channel structure rules under `capacity`.
std::optional<net::Channel> banned_edge_dijkstra(
    const net::QuantumNetwork& network, net::NodeId source,
    net::NodeId destination, const net::CapacityState& capacity,
    const std::unordered_set<graph::EdgeId>& banned) {
  const auto& g = network.graph();
  auto& ctx = graph::spf::thread_context();
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      g, network.physical().attenuation, -network.log_swap_success());
  // The primary's fibers are banned arcs (+infinity weight); the search
  // stops as soon as the single destination settles.
  graph::spf::run(
      csr, ctx.workspace, source,
      [&](std::size_t slot) {
        if (banned.contains(csr.edge_id(slot))) return kInf;
        return csr.value(slot);
      },
      [&](net::NodeId v) {
        return network.is_switch(v) && capacity.free_qubits(v) >= 2;
      },
      graph::spf::StopAt{destination});
  const graph::spf::SpfWorkspace& ws = ctx.workspace;
  if (ws.dist(destination) == kInf) return std::nullopt;
  net::Channel channel;
  channel.rate = net::rate_from_routing_distance(
      ws.dist(destination), network.physical().swap_success);
  net::NodeId cursor = destination;
  channel.path.push_back(cursor);
  while (cursor != source) {
    const graph::EdgeId via = ws.parent(cursor);
    cursor = g.edge(via).other(cursor);
    channel.path.push_back(cursor);
  }
  std::reverse(channel.path.begin(), channel.path.end());
  return channel;
}

std::unordered_set<graph::EdgeId> fibers_of(const net::QuantumNetwork& network,
                                            const net::Channel& channel) {
  std::unordered_set<graph::EdgeId> fibers;
  for (std::size_t i = 0; i + 1 < channel.path.size(); ++i) {
    const auto e = network.graph().find_edge(channel.path[i],
                                             channel.path[i + 1]);
    assert(e);
    fibers.insert(*e);
  }
  return fibers;
}

}  // namespace

std::optional<net::Channel> find_disjoint_backup(
    const net::QuantumNetwork& network, const net::Channel& primary,
    const net::CapacityState& capacity) {
  return banned_edge_dijkstra(network, primary.source(),
                              primary.destination(), capacity,
                              fibers_of(network, primary));
}

BackupPlan plan_backups(const net::QuantumNetwork& network,
                        const net::EntanglementTree& tree) {
  assert(tree.feasible);
  BackupPlan plan;
  plan.backups.resize(tree.channels.size());

  // Capacity after the tree itself is live.
  net::CapacityState capacity(network);
  for (const net::Channel& ch : tree.channels) {
    capacity.commit_channel(ch.path);
  }

  // Protect the weakest (lowest-rate) channels first: they fail most and
  // sit on the longest routes, so backup capacity matters most there.
  std::vector<std::size_t> order(tree.channels.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t l, std::size_t r) {
    return tree.channels[l].rate < tree.channels[r].rate;
  });

  for (std::size_t idx : order) {
    auto backup =
        find_disjoint_backup(network, tree.channels[idx], capacity);
    if (!backup) continue;
    capacity.commit_channel(backup->path);
    plan.backups[idx] = std::move(*backup);
    ++plan.protected_channels;
  }
  return plan;
}

JointProtection plan_joint_protection(const net::QuantumNetwork& network,
                                      const net::EntanglementTree& tree) {
  assert(tree.feasible);
  JointProtection result;
  result.backups.backups.resize(tree.channels.size());
  std::vector<net::Channel> primaries(tree.channels.begin(),
                                      tree.channels.end());

  // Plan the strongest (highest-rate) pairs first so they get first pick of
  // the shared qubit pool; unprotected channels keep their original route.
  std::vector<std::size_t> order(tree.channels.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t l, std::size_t r) {
    return tree.channels[l].rate > tree.channels[r].rate;
  });

  // All originals hold their qubits; each channel in turn releases its
  // original route and tries to replace it with a jointly optimal disjoint
  // pair under whatever is then free. On failure the original re-commits,
  // so capacity is respected at every step.
  net::CapacityState capacity(network);
  for (const net::Channel& ch : primaries) capacity.commit_channel(ch.path);
  for (std::size_t idx : order) {
    capacity.release_channel(primaries[idx].path);
    auto pair =
        best_disjoint_channel_pair(network, primaries[idx].source(),
                                   primaries[idx].destination(), capacity);
    if (pair) {
      capacity.commit_channel(pair->first.path);
      capacity.commit_channel(pair->second.path);
      primaries[idx] = std::move(pair->first);
      result.backups.backups[idx] = std::move(pair->second);
      ++result.backups.protected_channels;
    } else {
      capacity.commit_channel(primaries[idx].path);
    }
  }

  result.tree = make_tree(std::move(primaries), true);
  result.protected_rate = result.tree.rate;
  return result;
}

}  // namespace muerp::routing
