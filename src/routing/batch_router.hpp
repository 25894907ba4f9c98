// Batch multi-request routing kernel (ROADMAP item 2).
//
// The §VII multi-group extension routes N concurrent group requests against
// one shared topology. BatchRouter folds the whole batch into a single
// kernel invocation over one shared CSR view and one CapacityState:
//
//   * every group of three or more users grows through Algorithm 4's one
//     growth round (routing::grow_round): per round, one multi-source
//     Dijkstra seeded with the group's connected users that stops at the
//     first pending user to settle;
//   * pair requests take a fast path with a persistent slab cache. A pair
//     needs one channel from one source, so its early-exit shortest-path
//     tree is kept in flat slab arrays (dist / parent / path-marks,
//     slot-major), one slab per source, across groups and route calls;
//   * coalesced capacity bookkeeping through CapacityState epochs — a slab
//     built at epoch e keeps serving exact answers until the coalesced
//     relay-flip log since e can touch the source->target path it serves
//     (the same invalidation contract as CachedChannelFinder). A slab cut
//     short at its target is flagged incomplete: it serves only that
//     target, and any relay *gain* invalidates it, since the reachability
//     test needs the full tree.
//
// Results are bit-identical to the sequential reference implementations:
// under kGivenOrder / kSmallestFirst / kLargestFirst the kernel reproduces
// ext::route_groups_reference (same admission order, same Rng draw
// sequence, same (distance, source rank, node-id) winner per round); under
// kFairShare it reproduces ext::route_groups_interleaved_reference. kGreedy
// has no reference: it probes each request standalone and admits
// cheapest-first.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "routing/prim_based.hpp"
#include "support/rng.hpp"

namespace muerp::routing {

/// Contention-resolution stage: the order in which competing requests are
/// admitted to (or deferred from) the shared capacity pool. The first three
/// generalize ext::GroupOrder; kFairShare generalizes the interleaved
/// scheduler; kGreedy is new.
enum class BatchPolicy {
  kGivenOrder,     // first come, first served
  kSmallestFirst,  // fewest users first
  kLargestFirst,   // most users first
  kGreedy,         // probe standalone, admit cheapest (best-rate) first
  kFairShare,      // all requests grow together, one channel per round
};

const char* batch_policy_name(BatchPolicy policy) noexcept;

/// Parses "given-order" / "smallest-first" / "largest-first" / "greedy" /
/// "fair-share"; returns false (out untouched) for anything else.
bool parse_batch_policy(std::string_view name, BatchPolicy* out) noexcept;

/// One group request: the users to span. The span must stay alive for the
/// duration of the route call; requests may share users across groups
/// (service arrivals can collide on endpoints) except that each group's own
/// users must be distinct.
struct BatchRequest {
  std::span<const net::NodeId> users;
};

struct BatchGroupOutcome {
  /// Index into the original request list.
  std::size_t request_index = 0;
  net::EntanglementTree tree;
};

/// Mirror of ext::MultiGroupResult, at the routing layer.
struct BatchResult {
  /// One outcome per request, in admission order.
  std::vector<BatchGroupOutcome> outcomes;
  std::size_t groups_served = 0;
  /// Product of the served groups' tree rates (1.0 when none served).
  double served_product_rate = 1.0;
  bool all_served = false;
};

struct BatchOptions {
  BatchPolicy policy = BatchPolicy::kGivenOrder;
  /// Release a failed group's partial commits (service semantics: a
  /// rejected session holds nothing). The default keeps them pledged,
  /// matching the offline §II-B process and the ext::route_groups*
  /// reference implementations. The released channels stay listed in the
  /// infeasible tree as partial-progress diagnostics either way.
  bool release_on_failure = false;
  /// When non-null, receives one per-group admission latency in
  /// microseconds, in admission order (the bench's quantile feed). Empty
  /// requests report ~0.
  std::vector<double>* admit_us = nullptr;
};

/// Routes batches of group requests against one network. Stateful on
/// purpose: pair slabs and scratch vectors persist across
/// route() calls, so a long-lived instance (SessionService, the bench loop)
/// allocates only while the working set grows. Not thread-safe — one
/// instance per thread, like the CapacityState it mutates.
class BatchRouter {
 public:
  /// `network` must outlive the router.
  explicit BatchRouter(const net::QuantumNetwork& network);

  /// Routes `requests` against a private full-capacity pool.
  BatchResult route(std::span<const BatchRequest> requests,
                    const BatchOptions& options, support::Rng& rng);

  /// Routes `requests` against an externally owned pool: committed channels
  /// deduct from `capacity` (this is how SessionService admits a burst of
  /// arrivals against the live residual state).
  BatchResult route_shared(std::span<const BatchRequest> requests,
                           const BatchOptions& options, support::Rng& rng,
                           net::CapacityState& capacity);

 private:
  /// Per-slab metadata; the tree data itself lives in the flat SoA arrays.
  struct SlabMeta {
    std::uint64_t state_id = 0;  // CapacityState::id() the tree was built on
    std::uint64_t epoch = 0;     // flips already accounted for
    /// False when the Dijkstra stopped at `target` before the frontier
    /// drained: distances beyond the settled horizon are tentative, so the
    /// slab serves `target` alone and relay gains invalidate it wholesale.
    bool complete = false;
    net::NodeId target = 0;  // the pair target the slab was built for
  };

  /// Admission permutation for the sequential policies (stable, matching
  /// ext::route_groups' stable_sort bit for bit).
  static std::vector<std::size_t> admission_order(
      std::span<const BatchRequest> requests, BatchPolicy policy);

  /// Grows one group to completion against `capacity` — Algorithm 4 growth
  /// from users[seed_index], bit-identical to prim_based_shared. Used by the
  /// sequential policies and the greedy probe/commit phases.
  net::EntanglementTree route_one(std::span<const net::NodeId> users,
                                  std::size_t seed_index,
                                  net::CapacityState& capacity,
                                  bool release_on_failure);

  /// One growth round (grow_round) on the batch's books.
  bool grow(Growth& growth, net::CapacityState& capacity, GrowthKey key);

  /// Pair-request fast path: a 2-user group needs exactly one channel from
  /// one source. The pair's slab deliberately outlives the group: repeat
  /// requests over the same capacity lineage — SessionService arrivals
  /// after earlier sessions released — hit the slab cache and pay no
  /// Dijkstra. Bit-identical to the general growth, which serves pairs
  /// when caching is disabled.
  net::EntanglementTree route_pair(net::NodeId source, net::NodeId target,
                                   net::CapacityState& capacity);

  /// Returns the slab slot holding an up-to-date tree from `source` that
  /// covers `target`, reusing the cached slab when no relay flip since its
  /// epoch can touch what it serves.
  std::size_t tree_for(net::NodeId source, net::NodeId target,
                       const net::CapacityState& capacity);

  /// Runs the Dijkstra from `source`, stopping once `target` settles, into
  /// slab `slot`.
  void build_tree(std::size_t slot, net::NodeId source, net::NodeId target,
                  const net::CapacityState& capacity);

  bool invalidated_by_flips(std::size_t slot,
                            std::span<const net::RelayFlip> flips);

  std::size_t acquire_slab(net::NodeId source);

  void route_sequential(std::span<const BatchRequest> requests,
                        const BatchOptions& options, support::Rng& rng,
                        net::CapacityState& capacity, BatchResult& result);
  void route_fair_share(std::span<const BatchRequest> requests,
                        const BatchOptions& options, support::Rng& rng,
                        net::CapacityState& capacity, BatchResult& result);
  void route_greedy(std::span<const BatchRequest> requests,
                    const BatchOptions& options, support::Rng& rng,
                    net::CapacityState& capacity, BatchResult& result);

  const net::QuantumNetwork* network_;
  double swap_success_;
  double log_swap_;
  std::size_t node_count_;
  bool cache_enabled_ = true;  // finder_cache_enabled(), sampled per route

  Growth scratch_;  // route_one's reusable growth state

  // SoA slab store (slot-major: entry v of slot s is at s * node_count_ + v).
  std::vector<double> slab_dist_;
  std::vector<graph::EdgeId> slab_parent_;
  std::vector<char> slab_on_path_;
  std::vector<SlabMeta> slab_meta_;

  std::vector<std::uint32_t> slab_of_;  // source node -> slab slot

  // Flip-coalescing scratch (same trick as CachedChannelFinder).
  std::vector<char> flip_parity_;
  std::vector<char> flip_status_;
  std::vector<net::NodeId> flip_nodes_;
};

}  // namespace muerp::routing
