#include "routing/prim_based.hpp"

#include <algorithm>
#include <cassert>

#include "graph/spf_kernel.hpp"
#include "routing/perf_counters.hpp"
#include "routing/plan.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::routing {

namespace {
// Namespace-scope Counter copies bake the registry id into this TU, so the
// per-round path skips the accessor's static guard.
const support::telemetry::Counter kDijkstraRuns = metrics::dijkstra_runs();
const support::telemetry::Counter kHeapPops = metrics::heap_pops();
}  // namespace

void Growth::reset(std::span<const net::NodeId> users,
                   std::size_t seed_index) {
  assert(seed_index < users.size());
  connected.assign(1, users[seed_index]);
  pending.clear();
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (i != seed_index) pending.push_back(users[i]);
  }
  std::sort(pending.begin(), pending.end());
  assert(std::adjacent_find(pending.begin(), pending.end()) == pending.end() &&
         "a group's own users must be distinct");
  committed.clear();
}

bool grow_round(const net::QuantumNetwork& network, Growth& growth,
                net::CapacityState& capacity, GrowthKey key) {
  assert(!growth.connected.empty() && !growth.pending.empty());
  kDijkstraRuns.add(1);
  auto& ctx = graph::spf::thread_context();
  const double log_swap = network.log_swap_success();
  // Affine view values carry alpha * L(e) - ln(q) pre-baked; the gate is
  // Def. 2 + Algorithm 1 Line 11 (only switches with >= 2 free qubits
  // relay; every seeded U1 user expands as its own channel's source).
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      network.graph(), network.physical().attenuation, -log_swap);
  graph::spf::SpfWorkspace& ws = ctx.workspace;
  const auto is_pending = [&](net::NodeId v) {
    return std::binary_search(growth.pending.begin(), growth.pending.end(),
                              v);
  };

  // The first pending user to settle is the (distance, source rank, id)
  // minimum — the paper loop's winner. Under kNegLogRate a later pending
  // user whose distance + ln q rounds to the same key still beats it on a
  // lower (rank, id), so the run keeps popping until the key grows.
  net::NodeId winner = graph::kInvalidNode;
  double winner_key = 0.0;
  std::uint64_t pops = 0;
  graph::spf::run(
      csr, ws, growth.connected,
      [&](std::size_t slot) { return csr.value(slot); },
      [&](net::NodeId v) {
        return network.is_switch(v) && capacity.free_qubits(v) >= 2;
      },
      [&](net::NodeId v) {
        if (winner == graph::kInvalidNode) {
          if (!is_pending(v)) return false;
          winner = v;
          winner_key = ws.dist_unchecked(v) + log_swap;
          return key == GrowthKey::kRoutingDistance;
        }
        if (ws.dist_unchecked(v) + log_swap > winner_key) return true;
        if (is_pending(v) && (ws.rank(v) < ws.rank(winner) ||
                              (ws.rank(v) == ws.rank(winner) && v < winner))) {
          winner = v;
        }
        return false;
      },
      &pops);
  kHeapPops.add(pops);
  // Line 13: U1 and U2 cannot be bridged under residual capacity.
  if (winner == graph::kInvalidNode) return false;

  net::Channel channel = channel_to(
      network.graph(), winner, ws.dist_unchecked(winner),
      network.physical().swap_success, log_swap,
      [&](net::NodeId v) { return ws.parent(v); });
  capacity.commit_channel(channel.path);
  growth.pending.erase(std::lower_bound(growth.pending.begin(),
                                        growth.pending.end(), winner));
  growth.connected.push_back(winner);
  growth.committed.push_back(std::move(channel));
  return true;
}

net::EntanglementTree prim_based_from(const net::QuantumNetwork& network,
                                      std::span<const net::NodeId> users,
                                      std::size_t seed_user_index) {
  net::CapacityState capacity(network);
  return prim_based_shared(network, users, seed_user_index, capacity);
}

net::EntanglementTree prim_based_shared(const net::QuantumNetwork& network,
                                        std::span<const net::NodeId> users,
                                        std::size_t seed_user_index,
                                        net::CapacityState& capacity) {
  MUERP_SPAN("prim_based/grow");
  assert(!users.empty());
  Growth growth;
  growth.reset(users, seed_user_index);
  while (!growth.pending.empty()) {
    bool extended = false;
    {
      MUERP_SPAN("prim_based/channel_search");
      extended = grow_round(network, growth, capacity);
    }
    if (!extended) return make_tree(std::move(growth.committed), false);
  }
  return make_tree(std::move(growth.committed), true);
}

net::EntanglementTree prim_based(const net::QuantumNetwork& network,
                                 std::span<const net::NodeId> users,
                                 support::Rng& rng) {
  assert(!users.empty());
  const auto seed = static_cast<std::size_t>(rng.uniform_index(users.size()));
  return prim_based_from(network, users, seed);
}

}  // namespace muerp::routing
