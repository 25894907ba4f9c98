#include "routing/batch_router.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scenario.hpp"
#include "extensions/multigroup.hpp"
#include "network/channel.hpp"
#include "network/network_builder.hpp"
#include "network/rate.hpp"
#include "routing/channel_finder.hpp"
#include "routing/prim_based.hpp"
#include "routing/router.hpp"
#include "support/rng.hpp"
#include "topology/waxman.hpp"

namespace muerp::routing {
namespace {

using net::NodeId;

/// Random Waxman instance with `user_count` users split into `group_count`
/// disjoint groups (round-robin) — the standard contention workload.
struct Workload {
  net::QuantumNetwork network;
  std::vector<std::vector<NodeId>> groups;

  std::vector<BatchRequest> requests() const {
    std::vector<BatchRequest> out;
    for (const auto& g : groups) out.push_back({g});
    return out;
  }

  std::vector<ext::GroupRequest> ext_requests() const {
    std::vector<ext::GroupRequest> out;
    for (const auto& g : groups) {
      ext::GroupRequest r;
      r.users = g;
      out.push_back(std::move(r));
    }
    return out;
  }
};

Workload make_workload(std::uint64_t seed, std::size_t user_count = 9,
                       std::size_t group_count = 3, int qubits = 4) {
  support::Rng rng(seed);
  topology::WaxmanParams params;
  params.node_count = 40;
  auto topo = topology::generate_waxman(params, rng);
  Workload w{net::assign_random_users(std::move(topo), user_count, qubits,
                                      {1e-4, 0.9}, rng),
             {}};
  w.groups.resize(group_count);
  for (std::size_t i = 0; i < user_count; ++i) {
    w.groups[i % group_count].push_back(w.network.users()[i]);
  }
  return w;
}

/// Bit-identity against the sequential reference, all three orders, many
/// seeds. route_groups already delegates to BatchRouter, so the comparison
/// pits the kernel against the preserved reference implementation.
class BatchOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchOracle, SequentialPoliciesMatchReference) {
  const Workload w = make_workload(GetParam());
  const auto groups = w.ext_requests();
  for (ext::GroupOrder order :
       {ext::GroupOrder::kGivenOrder, ext::GroupOrder::kSmallestFirst,
        ext::GroupOrder::kLargestFirst}) {
    support::Rng r1(GetParam() * 97 + 5);
    support::Rng r2(GetParam() * 97 + 5);
    const auto expected =
        ext::route_groups_reference(w.network, groups, order, r1);
    const auto actual = ext::route_groups(w.network, groups, order, r2);
    ASSERT_EQ(expected.outcomes.size(), actual.outcomes.size());
    EXPECT_EQ(expected.groups_served, actual.groups_served);
    EXPECT_EQ(expected.served_product_rate, actual.served_product_rate);
    for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
      EXPECT_EQ(expected.outcomes[i].request_index,
                actual.outcomes[i].request_index);
      EXPECT_EQ(expected.outcomes[i].tree.feasible,
                actual.outcomes[i].tree.feasible);
      EXPECT_EQ(expected.outcomes[i].tree.rate, actual.outcomes[i].tree.rate);
      ASSERT_EQ(expected.outcomes[i].tree.channels.size(),
                actual.outcomes[i].tree.channels.size());
      for (std::size_t c = 0; c < expected.outcomes[i].tree.channels.size();
           ++c) {
        EXPECT_EQ(expected.outcomes[i].tree.channels[c].path,
                  actual.outcomes[i].tree.channels[c].path);
      }
    }
  }
}

TEST_P(BatchOracle, FairShareMatchesInterleavedReference) {
  const Workload w = make_workload(GetParam() + 1000);
  const auto groups = w.ext_requests();
  support::Rng r1(GetParam() * 31 + 7);
  support::Rng r2(GetParam() * 31 + 7);
  const auto expected =
      ext::route_groups_interleaved_reference(w.network, groups, r1);
  const auto actual = ext::route_groups_interleaved(w.network, groups, r2);
  ASSERT_EQ(expected.outcomes.size(), actual.outcomes.size());
  EXPECT_EQ(expected.groups_served, actual.groups_served);
  EXPECT_EQ(expected.served_product_rate, actual.served_product_rate);
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    EXPECT_EQ(expected.outcomes[i].tree.feasible,
              actual.outcomes[i].tree.feasible);
    EXPECT_EQ(expected.outcomes[i].tree.rate, actual.outcomes[i].tree.rate);
    ASSERT_EQ(expected.outcomes[i].tree.channels.size(),
              actual.outcomes[i].tree.channels.size());
    for (std::size_t c = 0; c < expected.outcomes[i].tree.channels.size();
         ++c) {
      EXPECT_EQ(expected.outcomes[i].tree.channels[c].path,
                actual.outcomes[i].tree.channels[c].path);
    }
  }
}

/// Warm single-arrival admission at daemon scale, in lockstep with the
/// paper-literal Algorithm 4 (ext::prim_based_reference: one full Dijkstra
/// per connected source per round, no early exit, no cache). The network is
/// the session daemon's shape — Waxman, 100 switches, 128 users, 16 qubits
/// per switch (one lane's share of Q = 128 over 8 lanes) — and sessions
/// churn: each group of |U| = 2, 3, 4 or 10 is admitted by one long-lived
/// BatchRouter (kGivenOrder, release_on_failure: SessionService's intake)
/// and, on a second capacity pool, by the reference with the rollback
/// SessionService::admit() performs; every few arrivals about half the held
/// sessions are released on both pools. Trees, channel rates and residual
/// capacity must agree bit for bit after every step. Pairs matter here:
/// their slabs outlive the call, so a slab wrongly marked complete after an
/// early exit would serve a later request from tentative distances.
TEST_P(BatchOracle, SingleArrivalsMatchPaperLiteralGrowthAtDaemonScale) {
  experiment::Scenario scenario;
  scenario.switch_count = 100;
  scenario.user_count = 128;
  scenario.qubits_per_switch = 16;
  scenario.attenuation = 2e-5;
  scenario.seed = GetParam();
  const experiment::Instance inst = experiment::instantiate(scenario, 0);
  const net::QuantumNetwork& network = inst.network;
  ASSERT_EQ(network.node_count(), 228u);

  BatchOptions options;
  options.policy = BatchPolicy::kGivenOrder;
  options.release_on_failure = true;
  std::size_t rejected_total = 0;
  for (const std::size_t group_size : {2u, 3u, 4u, 10u}) {
    BatchRouter router(network);
    net::CapacityState warm_capacity(network);
    net::CapacityState cold_capacity(network);
    support::Rng warm_rng(GetParam() * 13 + group_size);
    support::Rng cold_rng(GetParam() * 13 + group_size);
    support::Rng workload(GetParam() * 7 + group_size);
    std::vector<std::vector<net::Channel>> held;  // admitted, not released
    std::size_t admitted = 0;
    for (int arrival = 0; arrival < 60; ++arrival) {
      std::vector<NodeId> group;
      for (const std::size_t i :
           workload.sample_indices(inst.users.size(), group_size)) {
        group.push_back(inst.users[i]);
      }
      const BatchRequest request{group};
      const BatchResult warm = router.route_shared(
          std::span(&request, 1), options, warm_rng, warm_capacity);
      ASSERT_EQ(warm.outcomes.size(), 1u);
      const net::EntanglementTree& got = warm.outcomes[0].tree;

      const auto seed =
          static_cast<std::size_t>(cold_rng.uniform_index(group.size()));
      const net::EntanglementTree want =
          ext::prim_based_reference(network, group, seed, cold_capacity);
      if (!want.feasible) {
        for (const net::Channel& ch : want.channels) {
          cold_capacity.release_channel(ch.path);
        }
      }

      const std::string where = "|U| " + std::to_string(group_size) +
                                ", arrival " + std::to_string(arrival);
      ASSERT_EQ(got.feasible, want.feasible) << where;
      EXPECT_EQ(got.rate, want.rate) << where;
      ASSERT_EQ(got.channels.size(), want.channels.size()) << where;
      for (std::size_t c = 0; c < want.channels.size(); ++c) {
        EXPECT_EQ(got.channels[c].path, want.channels[c].path) << where;
        EXPECT_EQ(got.channels[c].rate, want.channels[c].rate) << where;
      }
      if (got.feasible) {
        ++admitted;
        held.push_back(got.channels);
      } else {
        ++rejected_total;
      }

      if (arrival % 6 == 5) {
        // Churn: release about half the held sessions on both pools.
        std::vector<std::vector<net::Channel>> kept;
        for (std::vector<net::Channel>& tree : held) {
          if (!workload.bernoulli(0.5)) {
            kept.push_back(std::move(tree));
            continue;
          }
          for (const net::Channel& ch : tree) {
            warm_capacity.release_channel(ch.path);
            cold_capacity.release_channel(ch.path);
          }
        }
        held = std::move(kept);
      }
      for (const NodeId sw : network.switches()) {
        ASSERT_EQ(warm_capacity.free_qubits(sw), cold_capacity.free_qubits(sw))
            << where << ", switch " << sw;
      }
    }
    EXPECT_GT(admitted, 0u) << "|U| " << group_size;
  }
  EXPECT_GT(rejected_total, 0u) << "the pools should saturate under churn";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchOracle,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Fair-share compares candidate channels on neg_log_rate = distance + ln q,
/// and adding ln q can round two distinct distances into one key. Here user
/// `near` sits one rounding step closer to `hub` than user `far`, yet both
/// keys are equal, and `far` has the lower id — so the interleaved
/// reference's first-wins scan picks `far`, while a growth round that stops
/// at the first pending user to settle would pick `near`. (The collision
/// needs two-hop channels: ln 0.5's lowest mantissa bit sits half an ulp
/// below the keys, and one-hop distances always round to even there.)
TEST(BatchOracle, FairShareBreaksRoundedKeyTiesLikeInterleavedReference) {
  const net::PhysicalParams physical{1e-4, 0.5};
  const double log_swap = std::log(physical.swap_success);
  const auto weight = [&](double length_km) {
    return physical.attenuation * length_km + -log_swap;
  };
  constexpr double kHubKm = 2000.0;
  const auto distance = [&](double length_km) {
    return weight(kHubKm) + weight(length_km);
  };
  // Walk the user-side fiber length upward in single-ulp steps until two
  // lengths give distinct distances whose keys round together.
  double near_km = kHubKm;
  double far_km = near_km;
  for (int step = 0; step < 100000; ++step) {
    far_km = std::nextafter(far_km, 2 * kHubKm);
    if (distance(far_km) == distance(near_km)) continue;
    if (distance(far_km) + log_swap == distance(near_km) + log_swap) break;
    near_km = far_km;
  }
  ASSERT_GT(distance(far_km), distance(near_km));
  ASSERT_EQ(distance(far_km) + log_swap, distance(near_km) + log_swap);

  net::NetworkBuilder builder;
  const NodeId far = builder.add_user({0, 0});
  const NodeId near = builder.add_user({1, 0});
  const NodeId hub = builder.add_user({0, 1});
  const NodeId far_switch = builder.add_switch({0, 2}, 4);
  const NodeId near_switch = builder.add_switch({1, 2}, 4);
  builder.connect(hub, far_switch, kHubKm);
  builder.connect(far_switch, far, far_km);
  builder.connect(hub, near_switch, kHubKm);
  builder.connect(near_switch, near, near_km);
  const net::QuantumNetwork network = std::move(builder).build(physical);
  const ChannelFinder finder(network);
  const net::CapacityState full(network);
  double routed = 0.0;
  ASSERT_TRUE(finder.find_best_channel(hub, far, full, &routed));
  ASSERT_EQ(routed, distance(far_km));
  ASSERT_TRUE(finder.find_best_channel(hub, near, full, &routed));
  ASSERT_EQ(routed, distance(near_km));

  std::vector<ext::GroupRequest> groups(1);
  groups[0].users = {far, near, hub};
  bool hub_seeded = false;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    support::Rng r1(seed);
    support::Rng r2(seed);
    const auto expected =
        ext::route_groups_interleaved_reference(network, groups, r1);
    const auto actual = ext::route_groups_interleaved(network, groups, r2);
    ASSERT_EQ(expected.outcomes.size(), 1u);
    ASSERT_EQ(actual.outcomes.size(), 1u);
    const auto& want = expected.outcomes[0].tree.channels;
    const auto& got = actual.outcomes[0].tree.channels;
    ASSERT_EQ(want.size(), 2u);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].path, want[0].path) << "seed " << seed;
    EXPECT_EQ(got[1].path, want[1].path) << "seed " << seed;
    if (want[0].source() == hub) {
      hub_seeded = true;
      EXPECT_EQ(want[0].destination(), far) << "reference tie rule";
    }
  }
  EXPECT_TRUE(hub_seeded) << "some seed must start the growth at the hub";
}

/// Concurrent batches on separate threads reproduce the serial result:
/// the SPF thread context and the router's slab state are per-instance /
/// per-thread, so nothing leaks across.
TEST(BatchRouter, DeterministicAcrossThreadCounts) {
  const Workload w = make_workload(42);
  const auto requests = w.requests();
  BatchOptions options;
  options.policy = BatchPolicy::kGivenOrder;

  support::Rng serial_rng(7);
  BatchRouter serial_router(w.network);
  const BatchResult serial = serial_router.route(requests, options, serial_rng);

  for (int threads : {2, 4}) {
    std::vector<BatchResult> results(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        support::Rng rng(7);
        BatchRouter router(w.network);
        results[t] = router.route(requests, options, rng);
      });
    }
    for (auto& th : pool) th.join();
    for (const BatchResult& r : results) {
      ASSERT_EQ(r.outcomes.size(), serial.outcomes.size());
      EXPECT_EQ(r.served_product_rate, serial.served_product_rate);
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        EXPECT_EQ(r.outcomes[i].tree.rate, serial.outcomes[i].tree.rate);
        ASSERT_EQ(r.outcomes[i].tree.channels.size(),
                  serial.outcomes[i].tree.channels.size());
        for (std::size_t c = 0; c < r.outcomes[i].tree.channels.size(); ++c) {
          EXPECT_EQ(r.outcomes[i].tree.channels[c].path,
                    serial.outcomes[i].tree.channels[c].path);
        }
      }
    }
  }
}

/// Two 2-user groups whose only routes share one hub switch.
struct SharedHub {
  net::QuantumNetwork network;
  std::vector<NodeId> g1, g2;
};

SharedHub shared_hub(int hub_qubits) {
  net::NetworkBuilder b;
  const NodeId a0 = b.add_user({0, 0});
  const NodeId a1 = b.add_user({200, 0});
  const NodeId b0 = b.add_user({0, 200});
  const NodeId b1 = b.add_user({200, 200});
  const NodeId hub = b.add_switch({100, 100}, hub_qubits);
  for (NodeId u : {a0, a1, b0, b1}) b.connect_euclidean(u, hub);
  return {std::move(b).build({1e-4, 0.9}), {a0, a1}, {b0, b1}};
}

TEST(BatchRouter, EmptyAndSingletonGroups) {
  SharedHub fx = shared_hub(4);
  const std::vector<NodeId> solo{fx.g1[0]};
  const std::vector<NodeId> none;
  const std::vector<BatchRequest> requests{{none}, {solo}, {fx.g2}};
  for (BatchPolicy policy :
       {BatchPolicy::kGivenOrder, BatchPolicy::kSmallestFirst,
        BatchPolicy::kLargestFirst, BatchPolicy::kGreedy,
        BatchPolicy::kFairShare}) {
    support::Rng rng(9);
    BatchRouter router(fx.network);
    BatchOptions options;
    options.policy = policy;
    const BatchResult result = router.route(requests, options, rng);
    ASSERT_EQ(result.outcomes.size(), 3u) << batch_policy_name(policy);
    EXPECT_TRUE(result.all_served) << batch_policy_name(policy);
    for (const BatchGroupOutcome& outcome : result.outcomes) {
      EXPECT_TRUE(outcome.tree.feasible);
      if (outcome.request_index == 0 || outcome.request_index == 1) {
        // Empty and singleton groups: trivial tree, rate 1, no channels.
        EXPECT_TRUE(outcome.tree.channels.empty());
        EXPECT_DOUBLE_EQ(outcome.tree.rate, 1.0);
      }
    }
  }
}

TEST(BatchRouter, EmptyRequestListTriviallyServed) {
  SharedHub fx = shared_hub(4);
  support::Rng rng(10);
  BatchRouter router(fx.network);
  const BatchResult result = router.route({}, {}, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_EQ(result.groups_served, 0u);
  EXPECT_DOUBLE_EQ(result.served_product_rate, 1.0);
}

TEST(BatchRouter, SharedCapacityDeductsFromCallerPool) {
  SharedHub fx = shared_hub(4);
  net::CapacityState capacity(fx.network);
  const NodeId hub = fx.network.switches()[0];
  support::Rng rng(11);
  BatchRouter router(fx.network);
  const std::vector<BatchRequest> requests{{fx.g1}, {fx.g2}};
  const BatchResult result = router.route_shared(requests, {}, rng, capacity);
  EXPECT_TRUE(result.all_served);
  // Two channels through the hub: all 4 qubits pledged in the caller pool.
  EXPECT_EQ(capacity.free_qubits(hub), 0);
}

TEST(BatchRouter, ReleaseOnFailureLeavesNothingHeld) {
  SharedHub fx = shared_hub(2);  // one channel slot for two groups
  net::CapacityState capacity(fx.network);
  const NodeId hub = fx.network.switches()[0];
  support::Rng rng(12);
  BatchRouter router(fx.network);
  BatchOptions options;
  options.release_on_failure = true;
  const std::vector<BatchRequest> requests{{fx.g1}, {fx.g2}};
  const BatchResult result =
      router.route_shared(requests, options, rng, capacity);
  EXPECT_EQ(result.groups_served, 1u);
  // The served group holds the hub's 2 qubits; the failed group holds none.
  EXPECT_EQ(capacity.free_qubits(hub), 0);
  capacity.release_channel(result.outcomes[0].tree.channels[0].path);
  EXPECT_EQ(capacity.free_qubits(hub), 2);
}

TEST(BatchRouter, GreedyAdmitsCheapestFirst) {
  // Greedy on the hub with one slot: both pairs are symmetric, so exactly
  // one is served; with ample capacity both are.
  SharedHub tight = shared_hub(2);
  support::Rng r1(13);
  BatchRouter router1(tight.network);
  BatchOptions options;
  options.policy = BatchPolicy::kGreedy;
  const std::vector<BatchRequest> requests{{tight.g1}, {tight.g2}};
  const BatchResult starved = router1.route(requests, options, r1);
  EXPECT_EQ(starved.groups_served, 1u);

  SharedHub ample = shared_hub(4);
  support::Rng r2(13);
  BatchRouter router2(ample.network);
  const std::vector<BatchRequest> requests2{{ample.g1}, {ample.g2}};
  const BatchResult served = router2.route(requests2, options, r2);
  EXPECT_TRUE(served.all_served);
}

TEST(BatchRouter, GreedyPrefersShorterTree) {
  // One distant pair and one close pair contend for a single hub slot:
  // greedy admits the close (cheaper) pair regardless of request order.
  net::NetworkBuilder b;
  const NodeId far0 = b.add_user({0, 0});
  const NodeId far1 = b.add_user({4000, 0});
  const NodeId near0 = b.add_user({1990, 200});
  const NodeId near1 = b.add_user({2010, 200});
  const NodeId hub = b.add_switch({2000, 100}, 2);
  for (NodeId u : {far0, far1, near0, near1}) b.connect_euclidean(u, hub);
  const auto network = std::move(b).build({1e-4, 0.9});

  const std::vector<NodeId> far{far0, far1};
  const std::vector<NodeId> near{near0, near1};
  const std::vector<BatchRequest> requests{{far}, {near}};
  support::Rng rng(14);
  BatchRouter router(network);
  BatchOptions options;
  options.policy = BatchPolicy::kGreedy;
  const BatchResult result = router.route(requests, options, rng);
  EXPECT_EQ(result.groups_served, 1u);
  // Admission order: the near pair (request 1) first.
  EXPECT_EQ(result.outcomes[0].request_index, 1u);
  EXPECT_TRUE(result.outcomes[0].tree.feasible);
  EXPECT_FALSE(result.outcomes[1].tree.feasible);
}

TEST(BatchRouter, AdmitLatencySinkFilledPerGroup) {
  SharedHub fx = shared_hub(4);
  std::vector<double> admit_us;
  BatchOptions options;
  options.admit_us = &admit_us;
  support::Rng rng(15);
  BatchRouter router(fx.network);
  const std::vector<BatchRequest> requests{{fx.g1}, {fx.g2}};
  router.route(requests, options, rng);
  ASSERT_EQ(admit_us.size(), 2u);
  for (double us : admit_us) EXPECT_GE(us, 0.0);
}

TEST(BatchPolicyNames, RoundTrip) {
  for (BatchPolicy policy :
       {BatchPolicy::kGivenOrder, BatchPolicy::kSmallestFirst,
        BatchPolicy::kLargestFirst, BatchPolicy::kGreedy,
        BatchPolicy::kFairShare}) {
    BatchPolicy parsed;
    ASSERT_TRUE(parse_batch_policy(batch_policy_name(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  BatchPolicy unused = BatchPolicy::kGreedy;
  EXPECT_FALSE(parse_batch_policy("round-robin", &unused));
  EXPECT_EQ(unused, BatchPolicy::kGreedy);  // untouched on failure
}

// --- Router registry integration -----------------------------------------

TEST(RouterBatch, Alg4BatchMatchesKernel) {
  const Workload w = make_workload(77);
  const auto requests = w.requests();

  support::Rng r1(21);
  BatchRouter kernel(w.network);
  BatchOptions options;
  options.policy = BatchPolicy::kFairShare;
  const BatchResult direct = kernel.route(requests, options, r1);

  support::Rng r2(21);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.batch = options;
  request.rng = &r2;
  const BatchResult via_router =
      RouterRegistry::instance().at("alg4").route_batch_trees(request);

  ASSERT_EQ(direct.outcomes.size(), via_router.outcomes.size());
  EXPECT_EQ(direct.served_product_rate, via_router.served_product_rate);
  for (std::size_t i = 0; i < direct.outcomes.size(); ++i) {
    EXPECT_EQ(direct.outcomes[i].tree.rate, via_router.outcomes[i].tree.rate);
    ASSERT_EQ(direct.outcomes[i].tree.channels.size(),
              via_router.outcomes[i].tree.channels.size());
    for (std::size_t c = 0; c < direct.outcomes[i].tree.channels.size(); ++c) {
      EXPECT_EQ(direct.outcomes[i].tree.channels[c].path,
                via_router.outcomes[i].tree.channels[c].path);
    }
  }
}

TEST(RouterBatch, GenericPassRespectsCapacity) {
  const Workload w = make_workload(78);
  const auto requests = w.requests();
  for (const char* name : {"alg3", "eqcast"}) {
    support::Rng rng(22);
    net::CapacityState capacity(w.network);
    BatchRoutingRequest request;
    request.network = &w.network;
    request.groups = requests;
    request.rng = &rng;
    request.capacity = &capacity;
    const BatchResult result =
        RouterRegistry::instance().at(name).route_batch_trees(request);
    ASSERT_EQ(result.outcomes.size(), requests.size()) << name;
    // Combined commits never exceed any switch budget.
    std::vector<int> used(w.network.node_count(), 0);
    for (const auto& outcome : result.outcomes) {
      if (!outcome.tree.feasible) continue;
      for (const auto& ch : outcome.tree.channels) {
        for (std::size_t i = 1; i + 1 < ch.path.size(); ++i) {
          used[ch.path[i]] += 2;
        }
      }
    }
    for (NodeId sw : w.network.switches()) {
      EXPECT_LE(used[sw], w.network.qubits(sw)) << name << " switch " << sw;
      EXPECT_EQ(capacity.free_qubits(sw), w.network.qubits(sw) - used[sw]);
    }
  }
}

TEST(RouterBatch, GenericGreedyOrdersByProbeCost) {
  const Workload w = make_workload(79);
  const auto requests = w.requests();
  support::Rng rng(23);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.batch.policy = BatchPolicy::kGreedy;
  request.rng = &rng;
  const BatchResult result =
      RouterRegistry::instance().at("eqcast").route_batch_trees(request);
  ASSERT_EQ(result.outcomes.size(), requests.size());
  // Outcomes form a permutation of the request indices.
  std::vector<bool> seen(requests.size(), false);
  for (const auto& outcome : result.outcomes) {
    ASSERT_LT(outcome.request_index, requests.size());
    EXPECT_FALSE(seen[outcome.request_index]);
    seen[outcome.request_index] = true;
  }
}

TEST(RouterBatch, GenericFairShareThrows) {
  const Workload w = make_workload(80);
  const auto requests = w.requests();
  support::Rng rng(24);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.batch.policy = BatchPolicy::kFairShare;
  request.rng = &rng;
  EXPECT_THROW(
      RouterRegistry::instance().at("eqcast").route_batch_trees(request),
      std::invalid_argument);
}

TEST(RouterBatch, NullNetworkThrows) {
  BatchRoutingRequest request;
  EXPECT_THROW(
      RouterRegistry::instance().at("alg4").route_batch_trees(request),
      std::invalid_argument);
}

TEST(RouterBatch, RouteBatchReportsElapsed) {
  const Workload w = make_workload(81);
  const auto requests = w.requests();
  support::Rng rng(25);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.rng = &rng;
  const BatchRoutingOutcome outcome =
      RouterRegistry::instance().at("alg4").route_batch(request);
  EXPECT_EQ(outcome.result.outcomes.size(), requests.size());
  EXPECT_GE(outcome.elapsed_ms, 0.0);
}

// --- ResidualNetworkView ---------------------------------------------------

TEST(ResidualNetworkView, SyncTracksCapacity) {
  SharedHub fx = shared_hub(4);
  const NodeId hub = fx.network.switches()[0];
  net::ResidualNetworkView view(fx.network);
  net::CapacityState capacity(fx.network);
  EXPECT_EQ(view.sync(capacity).qubits(hub), 4);

  const std::vector<NodeId> path{fx.g1[0], hub, fx.g1[1]};
  capacity.commit_channel(path);
  EXPECT_EQ(view.sync(capacity).qubits(hub), 2);
  capacity.release_channel(path);
  EXPECT_EQ(view.sync(capacity).qubits(hub), 4);
  // The view shares the base topology version, so SPF CSR caches persist.
  EXPECT_EQ(view.network().graph().topology_version(),
            fx.network.graph().topology_version());
}

}  // namespace
}  // namespace muerp::routing
