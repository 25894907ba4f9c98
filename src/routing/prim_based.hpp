// Algorithm 4 of the paper: the Prim-based heuristic.
//
// Unlike Algorithm 3 this needs no seed tree: it grows the entanglement tree
// directly, in the style of Prim's MST algorithm. A random user u0 starts
// the connected set U1; each of the following |U|-1 rounds finds — under the
// current residual capacities — the maximum-rate channel between any user in
// U1 and any user in U2, commits it (deducting 2 qubits at each interior
// switch), and moves the newly connected user into U1. If some round finds
// no channel at all, the heuristic terminates infeasible (rate 0).
//
// The paper runs Algorithm 1 once per U1 source in every round. grow_round()
// finds the same channel with one Dijkstra: all of U1 is seeded at distance
// 0, ranked by connection order, and the run stops at the first pending user
// to settle. The kernel's (distance, source rank, node id) settle order is
// the paper loop's strict-< scan over sources in connection order and
// pending users ascending, so winner, channel path and rate agree. It is the
// library's only Algorithm-4 growth: prim_based_shared and every BatchRouter
// policy grow through it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "support/rng.hpp"

namespace muerp::routing {

/// What a growth round minimizes over (source, pending user) candidates.
enum class GrowthKey {
  /// The raw routing distance (= -log rate up to the constant swap term):
  /// Algorithm 4 and the sequential batch policies.
  kRoutingDistance,
  /// The channel's neg_log_rate = distance + ln q: the fair-share policy,
  /// whose reference compares channels. Adding ln q can round distinct
  /// distances into a tie, broken by (source rank, user id) as there.
  kNegLogRate,
};

/// One group's Algorithm-4 growth state.
struct Growth {
  std::vector<net::NodeId> connected;  // U1, in connection order
  std::vector<net::NodeId> pending;    // U2, ascending node id
  std::vector<net::Channel> committed;

  /// Starts a group at users[seed_index]; the users must be distinct.
  /// Reuses the vectors' capacity.
  void reset(std::span<const net::NodeId> users, std::size_t seed_index);
};

/// One Algorithm-4 round: commits the best U1 -> U2 channel under `key` to
/// `capacity` and `growth.committed`, and moves its destination into U1.
/// Returns false — changing nothing — when no pending user can be reached.
/// Ticks routing/dijkstra_runs (once) and routing/heap_pops.
bool grow_round(const net::QuantumNetwork& network, Growth& growth,
                net::CapacityState& capacity,
                GrowthKey key = GrowthKey::kRoutingDistance);

/// Algorithm 4 with an explicit seed user (index into `users`). Exposed so
/// tests and the seed-sensitivity ablation can control the start.
net::EntanglementTree prim_based_from(const net::QuantumNetwork& network,
                                      std::span<const net::NodeId> users,
                                      std::size_t seed_user_index);

/// Core of Algorithm 4 operating on an externally owned capacity state:
/// committed channels deduct from `capacity`, which allows several user
/// groups to share one network (the multi-group extension). On an
/// infeasible outcome `capacity` retains the partial deductions of the
/// committed channels listed in the returned tree.
net::EntanglementTree prim_based_shared(const net::QuantumNetwork& network,
                                        std::span<const net::NodeId> users,
                                        std::size_t seed_user_index,
                                        net::CapacityState& capacity);

/// Algorithm 4 as written: the seed user is drawn from `rng` (Line 2).
net::EntanglementTree prim_based(const net::QuantumNetwork& network,
                                 std::span<const net::NodeId> users,
                                 support::Rng& rng);

}  // namespace muerp::routing
