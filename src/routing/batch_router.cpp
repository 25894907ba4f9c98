#include "routing/batch_router.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "graph/spf_kernel.hpp"
#include "routing/perf_counters.hpp"
#include "routing/plan.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoSlab = 0xFFFFFFFFu;

// Same namespace-scope Counter copies as channel_finder.cpp: the id is baked
// into the TU so the per-Dijkstra path skips the accessor's static guard.
const support::telemetry::Counter kDijkstraRuns = metrics::dijkstra_runs();
const support::telemetry::Counter kHeapPops = metrics::heap_pops();
const support::telemetry::Counter kFlipsCoalesced = metrics::flips_coalesced();

std::uint64_t now_ns() noexcept {
  return support::telemetry::monotonic_now_ns();
}
}  // namespace

const char* batch_policy_name(BatchPolicy policy) noexcept {
  switch (policy) {
    case BatchPolicy::kGivenOrder:
      return "given-order";
    case BatchPolicy::kSmallestFirst:
      return "smallest-first";
    case BatchPolicy::kLargestFirst:
      return "largest-first";
    case BatchPolicy::kGreedy:
      return "greedy";
    case BatchPolicy::kFairShare:
      return "fair-share";
  }
  return "?";
}

bool parse_batch_policy(std::string_view name, BatchPolicy* out) noexcept {
  for (const BatchPolicy policy :
       {BatchPolicy::kGivenOrder, BatchPolicy::kSmallestFirst,
        BatchPolicy::kLargestFirst, BatchPolicy::kGreedy,
        BatchPolicy::kFairShare}) {
    if (name == batch_policy_name(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

BatchRouter::BatchRouter(const net::QuantumNetwork& network)
    : network_(&network),
      swap_success_(network.physical().swap_success),
      log_swap_(network.log_swap_success()),
      node_count_(network.graph().node_count()) {
  slab_of_.assign(node_count_, kNoSlab);
  flip_parity_.assign(node_count_, 0);
  flip_status_.assign(node_count_, 0);
}

BatchResult BatchRouter::route(std::span<const BatchRequest> requests,
                               const BatchOptions& options,
                               support::Rng& rng) {
  net::CapacityState capacity(*network_);
  return route_shared(requests, options, rng, capacity);
}

BatchResult BatchRouter::route_shared(std::span<const BatchRequest> requests,
                                      const BatchOptions& options,
                                      support::Rng& rng,
                                      net::CapacityState& capacity) {
  MUERP_SPAN("batch/route");
#ifndef NDEBUG
  for (const BatchRequest& request : requests) {
    for (const net::NodeId u : request.users) {
      assert(u < node_count_ && network_->is_user(u));
    }
  }
#endif
  cache_enabled_ = finder_cache_enabled();
  BatchResult result;
  result.outcomes.reserve(requests.size());
  if (options.admit_us != nullptr) {
    options.admit_us->clear();
    options.admit_us->reserve(requests.size());
  }
  switch (options.policy) {
    case BatchPolicy::kGivenOrder:
    case BatchPolicy::kSmallestFirst:
    case BatchPolicy::kLargestFirst:
      route_sequential(requests, options, rng, capacity, result);
      break;
    case BatchPolicy::kGreedy:
      route_greedy(requests, options, rng, capacity, result);
      break;
    case BatchPolicy::kFairShare:
      route_fair_share(requests, options, rng, capacity, result);
      break;
  }
  result.all_served = result.groups_served == requests.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  MUERP_COUNTER_ADD("batch/groups", requests.size());
  MUERP_COUNTER_ADD("batch/served", result.groups_served);
  MUERP_COUNTER_ADD("batch/deferred",
                    requests.size() - result.groups_served);
  return result;
}

std::vector<std::size_t> BatchRouter::admission_order(
    std::span<const BatchRequest> requests, BatchPolicy policy) {
  std::vector<std::size_t> admission(requests.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  switch (policy) {
    case BatchPolicy::kSmallestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return requests[l].users.size() <
                                requests[r].users.size();
                       });
      break;
    case BatchPolicy::kLargestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return requests[l].users.size() >
                                requests[r].users.size();
                       });
      break;
    default:
      break;
  }
  return admission;
}

void BatchRouter::route_sequential(std::span<const BatchRequest> requests,
                                   const BatchOptions& options,
                                   support::Rng& rng,
                                   net::CapacityState& capacity,
                                   BatchResult& result) {
  const std::vector<std::size_t> admission =
      admission_order(requests, options.policy);
  for (const std::size_t idx : admission) {
    const std::span<const net::NodeId> users = requests[idx].users;
    const std::uint64_t t0 = now_ns();
    BatchGroupOutcome outcome;
    outcome.request_index = idx;
    if (users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      // Same draw sequence as ext::route_groups: one seed per non-empty
      // group, in admission order (empty groups draw nothing).
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(users.size()));
      outcome.tree =
          route_one(users, seed, capacity, options.release_on_failure);
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.admit_us != nullptr) {
      options.admit_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
}

net::EntanglementTree BatchRouter::route_one(
    std::span<const net::NodeId> users, std::size_t seed_user_index,
    net::CapacityState& capacity, bool release_on_failure) {
  MUERP_SPAN("batch/grow");
  assert(!users.empty());
  assert(seed_user_index < users.size());
  if (users.size() == 2 && cache_enabled_) {
    // Nothing is committed before the pair's single channel, so a failure
    // holds no qubits and release_on_failure has nothing to undo.
    return route_pair(users[seed_user_index], users[1 - seed_user_index],
                      capacity);
  }

  Growth& g = scratch_;
  g.reset(users, seed_user_index);
  while (!g.pending.empty()) {
    if (!grow(g, capacity, GrowthKey::kRoutingDistance)) {
      if (release_on_failure) {
        for (const net::Channel& channel : g.committed) {
          capacity.release_channel(channel.path);
        }
      }
      return make_tree(std::move(g.committed), false);
    }
  }
  return make_tree(std::move(g.committed), true);
}

bool BatchRouter::grow(Growth& growth, net::CapacityState& capacity,
                       GrowthKey key) {
  MUERP_COUNTER_INC("batch/dijkstra_runs");
  return grow_round(*network_, growth, capacity, key);
}

void BatchRouter::route_fair_share(std::span<const BatchRequest> requests,
                                   const BatchOptions& options,
                                   support::Rng& rng,
                                   net::CapacityState& capacity,
                                   BatchResult& result) {
  MUERP_SPAN("batch/contention");
  std::vector<Growth> growing(requests.size());
  std::vector<char> failed(requests.size(), 0);
  std::vector<std::uint64_t> group_ns(requests.size(), 0);
  for (std::size_t g = 0; g < requests.size(); ++g) {
    const std::span<const net::NodeId> users = requests[g].users;
    if (users.empty()) continue;
    // Seeds for all non-empty groups up front, in request order — the draw
    // sequence of ext::route_groups_interleaved.
    growing[g].reset(
        users, static_cast<std::size_t>(rng.uniform_index(users.size())));
  }

  // Rounds: each unfinished group commits its single best channel in turn.
  bool any_unfinished = true;
  while (any_unfinished) {
    any_unfinished = false;
    for (std::size_t g = 0; g < growing.size(); ++g) {
      Growth& growth = growing[g];
      if (failed[g] != 0 || growth.pending.empty()) continue;
      const std::uint64_t t0 = now_ns();
      if (!grow(growth, capacity, GrowthKey::kNegLogRate)) {
        failed[g] = 1;
        if (options.release_on_failure) {
          for (const net::Channel& channel : growth.committed) {
            capacity.release_channel(channel.path);
          }
        }
      } else if (!growth.pending.empty()) {
        any_unfinished = true;
      }
      group_ns[g] += now_ns() - t0;
    }
  }

  for (std::size_t g = 0; g < growing.size(); ++g) {
    BatchGroupOutcome outcome;
    outcome.request_index = g;
    outcome.tree = make_tree(std::move(growing[g].committed), failed[g] == 0);
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.admit_us != nullptr) {
      options.admit_us->push_back(static_cast<double>(group_ns[g]) / 1e3);
    }
  }
}

void BatchRouter::route_greedy(std::span<const BatchRequest> requests,
                               const BatchOptions& options, support::Rng& rng,
                               net::CapacityState& capacity,
                               BatchResult& result) {
  // Probe phase: route every request standalone against a copy of the
  // current pool and price it by its tree's -ln(rate) (finite even when the
  // rate itself underflows; +inf = infeasible alone). Seeds are drawn here,
  // in request order, and reused verbatim by the commit phase below so the
  // admitted trees grow from the same start users that were priced.
  std::vector<std::size_t> seeds(requests.size(), 0);
  std::vector<double> costs(requests.size(), 0.0);
  {
    MUERP_SPAN("batch/contention");
    for (std::size_t g = 0; g < requests.size(); ++g) {
      const std::span<const net::NodeId> users = requests[g].users;
      if (users.empty()) continue;  // cost 0, no draw — like route_sequential
      seeds[g] = static_cast<std::size_t>(rng.uniform_index(users.size()));
      if (users.size() == 1) continue;
      net::CapacityState probe(capacity);
      const net::EntanglementTree tree =
          route_one(users, seeds[g], probe, /*release_on_failure=*/false);
      if (!tree.feasible) {
        costs[g] = kInf;
        continue;
      }
      double cost = 0.0;
      for (const net::Channel& channel : tree.channels) {
        cost += channel.neg_log_rate;
      }
      costs[g] = cost;
    }
  }

  std::vector<std::size_t> admission(requests.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  std::stable_sort(admission.begin(), admission.end(),
                   [&](std::size_t l, std::size_t r) {
                     return costs[l] < costs[r];
                   });

  for (const std::size_t idx : admission) {
    const std::span<const net::NodeId> users = requests[idx].users;
    const std::uint64_t t0 = now_ns();
    BatchGroupOutcome outcome;
    outcome.request_index = idx;
    if (users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      outcome.tree =
          route_one(users, seeds[idx], capacity, options.release_on_failure);
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.admit_us != nullptr) {
      options.admit_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
}

std::size_t BatchRouter::acquire_slab(net::NodeId source) {
  const std::size_t slot = slab_meta_.size();
  slab_meta_.emplace_back();
  slab_dist_.resize(slab_meta_.size() * node_count_);
  slab_parent_.resize(slab_meta_.size() * node_count_);
  slab_on_path_.resize(slab_meta_.size() * node_count_);
  slab_of_[source] = static_cast<std::uint32_t>(slot);
  return slot;
}

std::size_t BatchRouter::tree_for(net::NodeId source, net::NodeId target,
                                  const net::CapacityState& capacity) {
  std::size_t slot = slab_of_[source];
  if (slot != kNoSlab) {
    SlabMeta& meta = slab_meta_[slot];
    // Reuse requires: same capacity identity; the requested target covered
    // by the slab's final entries (everywhere for complete slabs, the
    // build-time target otherwise); and no net relay flip since the slab's
    // epoch that could touch what it serves.
    if (meta.state_id == capacity.id() &&
        (meta.complete || meta.target == target) &&
        !invalidated_by_flips(slot, capacity.flips_since(meta.epoch))) {
      meta.epoch = capacity.epoch();
      MUERP_COUNTER_INC("batch/tree_cache_hits");
      return slot;
    }
  } else {
    slot = acquire_slab(source);
  }
  build_tree(slot, source, target, capacity);
  return slot;
}

net::EntanglementTree BatchRouter::route_pair(net::NodeId source,
                                              net::NodeId target,
                                              net::CapacityState& capacity) {
  // Pair slabs stay addressable across groups AND across route calls, so a
  // later batch over the same capacity lineage (commits since released —
  // SessionService's steady state) answers the repeat request from the slab
  // with no Dijkstra. Validity is carried entirely by tree_for's state-id +
  // flip-replay check.
  const std::size_t slot = tree_for(source, target, capacity);
  const double* dist = slab_dist_.data() + slot * node_count_;
  if (dist[target] == kInf) return make_tree({}, false);
  const graph::EdgeId* parent = slab_parent_.data() + slot * node_count_;
  net::Channel channel = channel_to(
      network_->graph(), target, dist[target], swap_success_, log_swap_,
      [&](net::NodeId v) { return parent[v]; });
  capacity.commit_channel(channel.path);
  std::vector<net::Channel> committed;
  committed.push_back(std::move(channel));
  return make_tree(std::move(committed), true);
}

void BatchRouter::build_tree(std::size_t slot, net::NodeId source,
                             net::NodeId target,
                             const net::CapacityState& capacity) {
  kDijkstraRuns.add(1);
  MUERP_COUNTER_INC("batch/dijkstra_runs");
  auto& ctx = graph::spf::thread_context();
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      network_->graph(), network_->physical().attenuation, -log_swap_);
  assert(csr.node_count() == node_count_);
  graph::spf::SpfWorkspace& ws = ctx.workspace;
  // Once the target settles, everything the extraction will read is final
  // (a Dijkstra's settled prefix is bit-identical to the full run), so the
  // rest of the frontier is abandoned.
  std::uint64_t pops = 0;
  const bool complete = graph::spf::run(
      csr, ws, source, [&](std::size_t arc) { return csr.value(arc); },
      [&](net::NodeId v) {
        return network_->is_switch(v) && capacity.free_qubits(v) >= 2;
      },
      graph::spf::StopAt{target}, &pops);
  kHeapPops.add(pops);

  // Extract the settled prefix into the slab. Unsettled entries read as
  // unreachable — consumers only read settled ones (the target; parent
  // chains of settled nodes consist of earlier-settled nodes).
  double* dist = slab_dist_.data() + slot * node_count_;
  graph::EdgeId* parent = slab_parent_.data() + slot * node_count_;
  for (net::NodeId v = 0; v < node_count_; ++v) {
    if (ws.settled(v)) {
      dist[v] = ws.dist_unchecked(v);
      parent[v] = ws.parent(v);
    } else {
      dist[v] = kInf;
      parent[v] = graph::kInvalidEdge;
    }
  }

  // Loss-flip marks: the nodes on a shortest path to anything a reuse may
  // read — every user for complete slabs, the build-time target otherwise.
  char* on_path = slab_on_path_.data() + slot * node_count_;
  std::fill_n(on_path, node_count_, char{0});
  const graph::Graph& g = network_->graph();
  const auto mark_path_to = [&](net::NodeId user) {
    if (dist[user] == kInf) return;
    net::NodeId cursor = user;
    while (cursor != source && on_path[cursor] == 0) {
      on_path[cursor] = 1;
      cursor = g.edge(parent[cursor]).other(cursor);
    }
  };
  if (complete) {
    for (const net::NodeId user : network_->users()) mark_path_to(user);
  } else {
    mark_path_to(target);
  }
  on_path[source] = 1;

  SlabMeta& meta = slab_meta_[slot];
  meta.state_id = capacity.id();
  meta.epoch = capacity.epoch();
  meta.complete = complete;
  meta.target = target;
}

bool BatchRouter::invalidated_by_flips(std::size_t slot,
                                       std::span<const net::RelayFlip> flips) {
  // Coalesce the flip-log tail per node, exactly like CachedChannelFinder:
  // an even flip count means the status is back where the slab last saw it.
  flip_nodes_.clear();
  for (const net::RelayFlip f : flips) {
    if (flip_parity_[f.node] == 0) flip_nodes_.push_back(f.node);
    flip_parity_[f.node] ^= 1;
    flip_status_[f.node] = f.can_relay_now ? 1 : 0;
  }
  const SlabMeta& meta = slab_meta_[slot];
  const double* dist = slab_dist_.data() + slot * node_count_;
  const char* on_path = slab_on_path_.data() + slot * node_count_;
  bool invalidated = false;
  std::uint64_t coalesced = 0;
  for (const net::NodeId v : flip_nodes_) {
    const bool net_flip = flip_parity_[v] != 0;
    flip_parity_[v] = 0;  // reset scratch for the next call
    if (!net_flip) ++coalesced;
    if (invalidated || !net_flip) continue;
    if (flip_status_[v] != 0) {
      // A relay *gain* may open shorter paths anywhere the switch is
      // reachable; an early-exited slab cannot even answer reachability.
      invalidated = !meta.complete || dist[v] < kInf;
    } else {
      invalidated = on_path[v] != 0;
    }
  }
  if (coalesced != 0) kFlipsCoalesced.add(coalesced);
  return invalidated;
}

}  // namespace muerp::routing
