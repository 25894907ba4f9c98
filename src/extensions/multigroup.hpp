// Concurrent routing of multiple independent entanglement groups — the
// paper's second "more complex situation" (§II-D, §VII: "simultaneous
// routing of multiple independent entanglement groups").
//
// Several disjoint user groups request multi-user entanglement over the same
// physical network; their channels compete for switch qubits. We route the
// groups sequentially against one shared CapacityState (each group's tree is
// built by Algorithm 4's greedy growth under the residual capacity left by
// earlier groups), with a pluggable admission order. The natural objective
// mirrors Eq. (2) per group; across groups we report both how many groups
// were served and the product rate of the served ones.
//
// Both entry points delegate to routing::BatchRouter — the batch kernel
// that shares one CSR view, slab workspaces and capacity bookkeeping across
// the whole request set. Paper-literal implementations are kept as
// *_reference oracles: straight-line code, one full Algorithm-1 Dijkstra
// per connected source per round, that the batch results are asserted
// bit-identical against in tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "support/rng.hpp"

namespace muerp::ext {

/// Order in which competing groups are admitted to the network.
enum class GroupOrder {
  kGivenOrder,     // first come, first served
  kSmallestFirst,  // fewest users first (cheapest trees grab qubits first)
  kLargestFirst,   // most users first (hardest request served while capacity
                   // is plentiful)
};

const char* group_order_name(GroupOrder order) noexcept;

struct GroupRequest {
  std::vector<net::NodeId> users;
};

struct GroupOutcome {
  /// Index into the original request list.
  std::size_t request_index = 0;
  net::EntanglementTree tree;
};

struct MultiGroupResult {
  /// One outcome per request, in admission order.
  std::vector<GroupOutcome> outcomes;
  std::size_t groups_served = 0;
  /// Product of the served groups' tree rates (1.0 when none served).
  double served_product_rate = 1.0;
  /// True only if every group was served.
  bool all_served = false;
};

/// Routes all `groups` over `network` sharing one capacity pool.
/// Groups must be pairwise disjoint user sets. `rng` seeds each group's
/// Algorithm-4 start user.
MultiGroupResult route_groups(const net::QuantumNetwork& network,
                              std::span<const GroupRequest> groups,
                              GroupOrder order, support::Rng& rng);

/// Fair variant: instead of admitting whole groups sequentially, all groups
/// grow their trees simultaneously, one channel per group per round (each
/// round every unfinished group commits its best residual channel in the
/// style of Algorithm 4). Sequential admission lets early groups hoard the
/// best switches; interleaving spreads the contention, trading some total
/// product rate for a higher minimum group rate — the classic
/// throughput-vs-fairness exchange. A group that cannot extend in some
/// round is marked infeasible and drops out (its held qubits stay pledged,
/// matching the offline §II-B process).
MultiGroupResult route_groups_interleaved(const net::QuantumNetwork& network,
                                          std::span<const GroupRequest> groups,
                                          support::Rng& rng);

/// Algorithm 4's growth as the paper writes it, the oracle for
/// routing::grow_round: every round runs one full Algorithm-1 Dijkstra per
/// U1 source and keeps the strict-< minimum of the raw routing distance,
/// scanning sources in connection order and pending users ascending. No
/// early exit, no cache. Same contract as routing::prim_based_shared: on an
/// infeasible outcome `capacity` keeps the partial deductions.
net::EntanglementTree prim_based_reference(const net::QuantumNetwork& network,
                                           std::span<const net::NodeId> users,
                                           std::size_t seed_user_index,
                                           net::CapacityState& capacity);

/// Sequential implementation of route_groups over prim_based_reference,
/// kept as the oracle the batch kernel is verified bit-identical against
/// (same Rng draw sequence, same admission order, same channels and
/// rates). One group at a time, every round paying full Dijkstras.
MultiGroupResult route_groups_reference(const net::QuantumNetwork& network,
                                        std::span<const GroupRequest> groups,
                                        GroupOrder order, support::Rng& rng);

/// Pre-BatchRouter implementation of route_groups_interleaved (the oracle
/// for the kFairShare policy). Candidate channels compare on neg_log_rate —
/// finite for every found channel — not on the underflow-prone `rate`: an
/// extremely lossy but feasible channel must still beat "no channel"
/// (the rate == 0.0 sentinel this code shipped with falsely failed whole
/// groups on long chains).
MultiGroupResult route_groups_interleaved_reference(
    const net::QuantumNetwork& network, std::span<const GroupRequest> groups,
    support::Rng& rng);

/// Fairness metric: the smallest served group rate (1.0 when none served —
/// vacuous; callers should check groups_served).
double min_served_rate(const MultiGroupResult& result);

}  // namespace muerp::ext
