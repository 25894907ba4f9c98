#include "extensions/multigroup.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "graph/algorithms.hpp"
#include "routing/batch_router.hpp"
#include "routing/channel_finder.hpp"
#include "network/rate.hpp"
#include "routing/plan.hpp"

namespace muerp::ext {

const char* group_order_name(GroupOrder order) noexcept {
  switch (order) {
    case GroupOrder::kGivenOrder:
      return "given-order";
    case GroupOrder::kSmallestFirst:
      return "smallest-first";
    case GroupOrder::kLargestFirst:
      return "largest-first";
  }
  return "?";
}

namespace {

#ifndef NDEBUG
void assert_disjoint(const net::QuantumNetwork& network,
                     std::span<const GroupRequest> groups) {
  std::unordered_set<net::NodeId> seen;
  for (const GroupRequest& g : groups) {
    for (net::NodeId u : g.users) {
      assert(network.is_user(u));
      assert(seen.insert(u).second && "groups must be disjoint");
    }
  }
}
#endif

routing::BatchPolicy to_batch_policy(GroupOrder order) noexcept {
  switch (order) {
    case GroupOrder::kSmallestFirst:
      return routing::BatchPolicy::kSmallestFirst;
    case GroupOrder::kLargestFirst:
      return routing::BatchPolicy::kLargestFirst;
    case GroupOrder::kGivenOrder:
      break;
  }
  return routing::BatchPolicy::kGivenOrder;
}

/// Routes `groups` through the batch kernel under `policy` and repackages
/// the result in the extension-layer shape (the structs are field-for-field
/// mirrors; only the namespaces differ).
MultiGroupResult route_batched(const net::QuantumNetwork& network,
                               std::span<const GroupRequest> groups,
                               routing::BatchPolicy policy,
                               support::Rng& rng) {
  std::vector<routing::BatchRequest> requests;
  requests.reserve(groups.size());
  for (const GroupRequest& group : groups) {
    requests.push_back({std::span<const net::NodeId>(group.users)});
  }
  routing::BatchRouter router(network);
  routing::BatchOptions options;
  options.policy = policy;
  routing::BatchResult batch = router.route(requests, options, rng);

  MultiGroupResult result;
  result.outcomes.reserve(batch.outcomes.size());
  for (routing::BatchGroupOutcome& outcome : batch.outcomes) {
    result.outcomes.push_back(
        {outcome.request_index, std::move(outcome.tree)});
  }
  result.groups_served = batch.groups_served;
  result.served_product_rate = batch.served_product_rate;
  result.all_served = batch.all_served;
  return result;
}

}  // namespace

MultiGroupResult route_groups(const net::QuantumNetwork& network,
                              std::span<const GroupRequest> groups,
                              GroupOrder order, support::Rng& rng) {
#ifndef NDEBUG
  assert_disjoint(network, groups);
#endif
  return route_batched(network, groups, to_batch_policy(order), rng);
}

MultiGroupResult route_groups_interleaved(const net::QuantumNetwork& network,
                                          std::span<const GroupRequest> groups,
                                          support::Rng& rng) {
  return route_batched(network, groups, routing::BatchPolicy::kFairShare,
                       rng);
}

net::EntanglementTree prim_based_reference(const net::QuantumNetwork& network,
                                           std::span<const net::NodeId> users,
                                           std::size_t seed_user_index,
                                           net::CapacityState& capacity) {
  std::vector<net::NodeId> connected{users[seed_user_index]};  // U1
  std::vector<net::NodeId> pending(users.begin(), users.end());  // U2
  pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(seed_user_index));
  std::sort(pending.begin(), pending.end());
  std::vector<net::Channel> committed;
  const auto weight = [&](graph::EdgeId e) {
    return network.edge_routing_weight(e);
  };
  const auto relay = [&](graph::NodeId v) {
    return network.is_switch(v) && capacity.free_qubits(v) >= 2;
  };
  while (!pending.empty()) {
    double best = std::numeric_limits<double>::infinity();
    net::Channel channel;
    for (const net::NodeId source : connected) {
      const graph::ShortestPaths paths =
          graph::dijkstra(network.graph(), source, weight, relay);
      for (const net::NodeId user : pending) {
        if (paths.distance[user] < best) {
          best = paths.distance[user];
          channel.path =
              graph::reconstruct_path(network.graph(), paths, source, user);
        }
      }
    }
    if (std::isinf(best)) {
      return routing::make_tree(std::move(committed), false);
    }
    channel.rate = net::rate_from_routing_distance(
        best, network.physical().swap_success);
    channel.neg_log_rate = best + network.log_swap_success();
    capacity.commit_channel(channel.path);
    pending.erase(std::find(pending.begin(), pending.end(),
                            channel.destination()));
    connected.push_back(channel.destination());
    committed.push_back(std::move(channel));
  }
  return routing::make_tree(std::move(committed), true);
}

MultiGroupResult route_groups_reference(const net::QuantumNetwork& network,
                                        std::span<const GroupRequest> groups,
                                        GroupOrder order, support::Rng& rng) {
#ifndef NDEBUG
  assert_disjoint(network, groups);
#endif

  std::vector<std::size_t> admission(groups.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  switch (order) {
    case GroupOrder::kGivenOrder:
      break;
    case GroupOrder::kSmallestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return groups[l].users.size() < groups[r].users.size();
                       });
      break;
    case GroupOrder::kLargestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return groups[l].users.size() > groups[r].users.size();
                       });
      break;
  }

  MultiGroupResult result;
  net::CapacityState capacity(network);
  for (std::size_t idx : admission) {
    const GroupRequest& group = groups[idx];
    GroupOutcome outcome;
    outcome.request_index = idx;
    if (group.users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(group.users.size()));
      // Shared capacity: this group's channels deduct from the same pool the
      // earlier groups drew from. A failed group may leave partial
      // deductions behind — deliberate: in the offline §II-B process those
      // qubits were already promised before the failure was discovered.
      outcome.tree =
          prim_based_reference(network, group.users, seed, capacity);
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  result.all_served = result.groups_served == groups.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  return result;
}

namespace {

/// Per-group growth state for the interleaved scheduler.
struct GrowingGroup {
  std::size_t request_index = 0;
  std::vector<net::NodeId> connected;            // U1
  std::unordered_set<net::NodeId> pending;       // U2
  std::vector<net::Channel> committed;
  bool failed = false;

  bool finished() const { return pending.empty() || failed; }
};

}  // namespace

MultiGroupResult route_groups_interleaved_reference(
    const net::QuantumNetwork& network, std::span<const GroupRequest> groups,
    support::Rng& rng) {
  MultiGroupResult result;
  net::CapacityState capacity(network);
  const routing::ChannelFinder finder(network);

  std::vector<GrowingGroup> growing;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    GrowingGroup state;
    state.request_index = g;
    const auto& users = groups[g].users;
    if (!users.empty()) {
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(users.size()));
      state.connected.push_back(users[seed]);
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (i != seed) state.pending.insert(users[i]);
      }
    }
    growing.push_back(std::move(state));
  }

  // Rounds: each unfinished group commits its single best channel in turn.
  // Candidates compare on neg_log_rate (finite for every found channel,
  // infinity for the default-constructed "none yet"): an extremely lossy
  // channel whose Eq. (1) rate underflowed to 0 still beats "no channel",
  // so long chains stay feasible.
  bool any_unfinished = true;
  while (any_unfinished) {
    any_unfinished = false;
    for (GrowingGroup& group : growing) {
      if (group.finished()) continue;
      net::Channel best;
      for (net::NodeId source : group.connected) {
        for (net::Channel& candidate :
             finder.find_best_channels(source, capacity)) {
          if (!group.pending.contains(candidate.destination())) continue;
          if (candidate.neg_log_rate < best.neg_log_rate) {
            best = std::move(candidate);
          }
        }
      }
      if (std::isinf(best.neg_log_rate)) {
        group.failed = true;
        continue;
      }
      capacity.commit_channel(best.path);
      group.pending.erase(best.destination());
      group.connected.push_back(best.destination());
      group.committed.push_back(std::move(best));
      if (!group.finished()) any_unfinished = true;
    }
  }

  for (GrowingGroup& group : growing) {
    GroupOutcome outcome;
    outcome.request_index = group.request_index;
    outcome.tree =
        routing::make_tree(std::move(group.committed), !group.failed);
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  result.all_served = result.groups_served == groups.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  return result;
}

double min_served_rate(const MultiGroupResult& result) {
  double min_rate = 1.0;
  for (const GroupOutcome& outcome : result.outcomes) {
    if (outcome.tree.feasible) min_rate = std::min(min_rate, outcome.tree.rate);
  }
  return min_rate;
}

}  // namespace muerp::ext
