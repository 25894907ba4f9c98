#include "routing/fiber_limits.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "graph/spf_kernel.hpp"
#include "network/rate.hpp"
#include "routing/plan.hpp"

namespace muerp::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

JointCapacity::JointCapacity(const net::QuantumNetwork& network,
                             int cores_per_fiber)
    : network_(&network),
      qubits_(network),
      cores_(network.graph().edge_count(), cores_per_fiber) {
  assert(cores_per_fiber >= 0);
}

void JointCapacity::commit_channel(std::span<const net::NodeId> path) {
  qubits_.commit_channel(path);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto e = network_->graph().find_edge(path[i], path[i + 1]);
    assert(e);
    assert(cores_[*e] >= 1 && "fiber core over-committed");
    --cores_[*e];
  }
}

void JointCapacity::release_channel(std::span<const net::NodeId> path) {
  qubits_.release_channel(path);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto e = network_->graph().find_edge(path[i], path[i + 1]);
    assert(e);
    ++cores_[*e];
  }
}

std::optional<net::Channel> find_best_channel_fiber_aware(
    const net::QuantumNetwork& network, net::NodeId source,
    net::NodeId destination, const JointCapacity& capacity) {
  assert(network.is_user(source) && network.is_user(destination));
  const auto& g = network.graph();
  auto& ctx = graph::spf::thread_context();
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      g, network.physical().attenuation, -network.log_swap_success());
  // An exhausted fiber (no free core) is a banned arc: +infinity weight.
  // Single destination, so the search stops when `destination` settles.
  graph::spf::run(
      csr, ctx.workspace, source,
      [&](std::size_t slot) {
        if (capacity.free_cores(csr.edge_id(slot)) < 1) return kInf;
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

net::EntanglementTree prim_fiber_aware(const net::QuantumNetwork& network,
                                       std::span<const net::NodeId> users,
                                       std::size_t seed_user_index,
                                       JointCapacity& capacity) {
  assert(!users.empty());
  assert(seed_user_index < users.size());
  if (users.size() == 1) return make_tree({}, true);

  std::vector<net::NodeId> connected{users[seed_user_index]};
  std::unordered_set<net::NodeId> pending;
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (i != seed_user_index) pending.insert(users[i]);
  }

  std::vector<net::Channel> committed;
  while (!pending.empty()) {
    net::Channel best;
    best.rate = 0.0;
    for (net::NodeId source : connected) {
      for (net::NodeId target : pending) {
        auto candidate =
            find_best_channel_fiber_aware(network, source, target, capacity);
        if (candidate && candidate->rate > best.rate) {
          best = std::move(*candidate);
        }
      }
    }
    if (best.rate == 0.0) {
      return make_tree(std::move(committed), false);
    }
    capacity.commit_channel(best.path);
    pending.erase(best.destination());
    connected.push_back(best.destination());
    committed.push_back(std::move(best));
  }
  return make_tree(std::move(committed), true);
}

}  // namespace muerp::routing
