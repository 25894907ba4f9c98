// SPF kernel tests: CSR equivalence against the adjacency list, workspace
// reuse (including the generation-counter wrap), heap ordering under
// decrease-key, the stop predicate's settled prefix, multi-source runs
// against the per-source runs they fold together, and the regressions
// that pin the kernel to the seed's lazy-heap Dijkstra bit for bit — on
// random graphs from §V-A size up past the session daemon's 228 nodes, and
// on the §V-A instances themselves.
#include "graph/spf_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "experiment/scenario.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "network/quantum_network.hpp"

namespace muerp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A connected random graph with uniform random lengths.
graph::Graph random_graph(std::mt19937& rng, std::size_t nodes,
                          double extra_edge_probability) {
  graph::Graph g(nodes);
  std::uniform_real_distribution<double> length(0.1, 100.0);
  std::uniform_int_distribution<graph::NodeId> pick(0, 0);
  for (graph::NodeId v = 1; v < nodes; ++v) {
    // Random spanning tree first: connect v to an earlier vertex.
    pick.param(decltype(pick)::param_type(0, v - 1));
    g.add_edge(v, pick(rng), length(rng));
  }
  std::bernoulli_distribution flip(extra_edge_probability);
  for (graph::NodeId a = 0; a < nodes; ++a) {
    for (graph::NodeId b = a + 1; b < nodes; ++b) {
      if (!g.has_edge(a, b) && flip(rng)) g.add_edge(a, b, length(rng));
    }
  }
  return g;
}

TEST(Csr, MatchesAdjacencyOnRandomTopologies) {
  std::mt19937 rng(7);
  for (int round = 0; round < 10; ++round) {
    const std::size_t nodes = 2 + round * 7;
    const graph::Graph g = random_graph(rng, nodes, 0.15);
    graph::spf::Csr csr;
    csr.build_from(g);
    ASSERT_EQ(csr.node_count(), g.node_count());
    ASSERT_EQ(csr.arc_count(), 2 * g.edge_count());
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const auto row = g.neighbors(v);
      ASSERT_EQ(csr.offsets[v + 1] - csr.offsets[v], row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        const std::size_t slot = csr.offsets[v] + i;
        EXPECT_EQ(csr.target(slot), row[i].node);
        EXPECT_EQ(csr.edge_id(slot), row[i].edge);
        EXPECT_EQ(csr.value(slot), g.edge(row[i].edge).length_km);
      }
    }
  }
}

TEST(Csr, EmptyAndEdgelessGraphs) {
  graph::spf::Csr csr;
  csr.build_from(graph::Graph{});
  EXPECT_EQ(csr.node_count(), 0u);
  EXPECT_EQ(csr.arc_count(), 0u);
  csr.build_from(graph::Graph{5});
  EXPECT_EQ(csr.node_count(), 5u);
  EXPECT_EQ(csr.arc_count(), 0u);
}

TEST(Context, CachesViewsPerTopologyVersion) {
  auto& ctx = graph::spf::thread_context();
  std::mt19937 rng(11);
  graph::Graph g = random_graph(rng, 12, 0.2);
  const graph::spf::Csr* first = &ctx.csr_for(g);
  EXPECT_EQ(first, &ctx.csr_for(g)) << "same topology must hit the cache";

  const graph::spf::Csr* affine = &ctx.affine_csr_for(g, 2.0, 1.0);
  EXPECT_EQ(affine, &ctx.affine_csr_for(g, 2.0, 1.0));
  EXPECT_NE(affine, &ctx.affine_csr_for(g, 2.0, 1.5))
      << "a different metric needs its own view";
  for (std::size_t slot = 0; slot < affine->arc_count(); ++slot) {
    EXPECT_EQ(affine->value(slot), 2.0 * first->value(slot) + 1.0);
  }

  // Mutation changes the version: the cached view must be rebuilt. The new
  // edge joins an absent pair — a parallel edge violates add_edge's
  // precondition.
  graph::NodeId other = 1;
  while (other < g.node_count() && g.has_edge(0, other)) ++other;
  ASSERT_LT(other, g.node_count());
  g.add_edge(0, other, 3.0);
  const graph::spf::Csr& rebuilt = ctx.csr_for(g);
  EXPECT_EQ(rebuilt.arc_count(), 2 * g.edge_count());
}

TEST(SpfWorkspace, ReuseAcrossSizesAndQueries) {
  std::mt19937 rng(23);
  graph::spf::SpfWorkspace ws;
  // Alternate between a large and a small graph through one workspace; every
  // result must match a fresh single-use workspace bit for bit.
  const graph::Graph big = random_graph(rng, 60, 0.1);
  const graph::Graph small = random_graph(rng, 9, 0.3);
  graph::spf::Csr big_csr, small_csr;
  big_csr.build_from(big);
  small_csr.build_from(small);
  auto value_weight = [](const graph::spf::Csr& csr) {
    return [&csr](std::size_t slot) { return csr.value(slot); };
  };
  auto all = [](graph::NodeId) { return true; };
  for (int round = 0; round < 6; ++round) {
    const bool use_big = (round % 2) == 0;
    const graph::Graph& g = use_big ? big : small;
    const graph::spf::Csr& csr = use_big ? big_csr : small_csr;
    const auto source = static_cast<graph::NodeId>(round % g.node_count());
    graph::spf::run(csr, ws, source, value_weight(csr), all);
    graph::spf::SpfWorkspace fresh;
    graph::spf::run(csr, fresh, source, value_weight(csr), all);
    ASSERT_EQ(ws.node_count(), g.node_count());
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(ws.dist(v), fresh.dist(v));
      EXPECT_EQ(ws.parent(v), fresh.parent(v));
    }
  }
}

TEST(SpfWorkspace, GenerationRolloverCannotResurrectStaleEntries) {
  std::mt19937 rng(31);
  const graph::Graph g = random_graph(rng, 20, 0.2);
  graph::spf::Csr csr;
  csr.build_from(g);
  auto weight = [&](std::size_t slot) { return csr.value(slot); };
  auto all = [](graph::NodeId) { return true; };

  graph::spf::SpfWorkspace ws;
  // Populate stamps with a full query, then fast-forward to the wrap point:
  // the next begin() must hard-reset the stamps, so entries written under
  // the old generation can never read as reached in the new one.
  graph::spf::run(csr, ws, 0, weight, all);
  ws.debug_set_generation(std::numeric_limits<std::uint32_t>::max());
  ws.begin(g.node_count());
  EXPECT_EQ(ws.generation(), 1u);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_FALSE(ws.reached(v));
    EXPECT_EQ(ws.dist(v), kInf);
    EXPECT_EQ(ws.parent(v), graph::kInvalidEdge);
  }
  // And a full query straight through the wrap still gives exact results.
  ws.debug_set_generation(std::numeric_limits<std::uint32_t>::max());
  graph::spf::run(csr, ws, 3, weight, all);
  graph::spf::SpfWorkspace fresh;
  graph::spf::run(csr, fresh, 3, weight, all);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(ws.dist(v), fresh.dist(v));
    EXPECT_EQ(ws.parent(v), fresh.parent(v));
  }
}

TEST(SpfWorkspace, IndexedHeapPopsInDistanceNodeOrderUnderDecreaseKey) {
  // Property test against the heap's contract: after a burst of pushes and
  // random decrease-keys, pops come out in ascending (distance, id) order.
  std::mt19937 rng(47);
  std::uniform_real_distribution<double> key(0.0, 50.0);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 40;
    graph::spf::SpfWorkspace ws;
    ws.begin(n);
    ws.seed(0);
    for (graph::NodeId v = 1; v < n; ++v) {
      ws.relax(v, 0, key(rng));
    }
    // Decrease a random subset (relax adopts strictly better keys only).
    std::uniform_int_distribution<graph::NodeId> pick(1, n - 1);
    for (int i = 0; i < 25; ++i) {
      const graph::NodeId v = pick(rng);
      if (!ws.settled(v)) ws.relax(v, 1, ws.dist(v) * 0.5);
    }
    double last_dist = -1.0;
    graph::NodeId last_node = graph::kInvalidNode;
    std::size_t pops = 0;
    while (!ws.heap_empty()) {
      const graph::NodeId v = ws.heap_pop_min();
      const double d = ws.dist(v);
      if (pops > 0) {
        EXPECT_TRUE(d > last_dist || (d == last_dist && v > last_node))
            << "heap order violated at pop " << pops;
      }
      last_dist = d;
      last_node = v;
      ++pops;
    }
    EXPECT_EQ(pops, n);
  }
}

/// Kernel vs the seed's lazy-heap Dijkstra, distances AND parent edges, at
/// the paper's sweep size (60 nodes), the session daemon's (228) and beyond
/// (320), under a relay gate and with banned (+infinity) edges — the two
/// ways routing callers prune the search.
TEST(SpfKernel, BitIdenticalToLegacyAcrossGraphSizes) {
  std::mt19937 rng(59);
  for (const std::size_t nodes : {60u, 228u, 320u}) {
    // Average degree ~6, like the Waxman instances.
    const graph::Graph g = random_graph(rng, nodes, 5.0 / nodes);
    auto banned = [](graph::EdgeId e) { return (e * 40503u) % 11u == 0; };
    auto weight = [&](graph::EdgeId e) {
      return banned(e) ? kInf : g.edge(e).length_km;
    };
    // A stable pseudo-random expansion gate (mirrors the relay rule).
    auto gate = [](graph::NodeId v) { return (v * 2654435761u) % 8u != 0; };
    for (graph::NodeId source = 0; source < nodes; source += 7) {
      const graph::ShortestPaths legacy =
          graph::dijkstra_legacy(g, source, weight, gate);
      const graph::ShortestPaths kernel =
          graph::dijkstra(g, source, weight, gate);
      ASSERT_EQ(kernel.distance.size(), nodes);
      std::size_t unreached = 0;
      for (graph::NodeId v = 0; v < nodes; ++v) {
        EXPECT_EQ(kernel.distance[v], legacy.distance[v])
            << nodes << " nodes, source " << source << ", node " << v;
        EXPECT_EQ(kernel.parent_edge[v], legacy.parent_edge[v]);
        if (legacy.distance[v] == kInf) ++unreached;
      }
      EXPECT_LT(unreached, nodes / 2) << "gate and bans should prune, not "
                                         "disconnect";
    }
  }
}

TEST(SpfKernel, SettleTargetStopsEarlyWithExactDistance) {
  std::mt19937 rng(61);
  const graph::Graph g = random_graph(rng, 30, 0.15);
  graph::spf::Csr csr;
  csr.build_from(g);
  auto weight = [&](std::size_t slot) { return csr.value(slot); };
  auto all = [](graph::NodeId) { return true; };
  graph::spf::SpfWorkspace full, targeted;
  graph::spf::run(csr, full, 0, weight, all);
  for (graph::NodeId target = 1; target < g.node_count(); ++target) {
    graph::spf::run(csr, targeted, 0, weight, all,
                    graph::spf::StopAt{target});
    EXPECT_EQ(targeted.dist(target), full.dist(target));
    EXPECT_EQ(targeted.parent(target), full.parent(target));
  }
}

/// run() reports whether the frontier drained, and an early stop leaves a
/// settled prefix bit-identical to the full run: the stop predicate sees
/// nodes in the full run's settle order, every node it saw is settled with
/// its final distance and parent, and nothing else is settled.
TEST(SpfKernel, StopPredicateReportsDrainAndKeepsSettledPrefix) {
  std::mt19937 rng(67);
  const graph::Graph g = random_graph(rng, 228, 5.0 / 228);
  graph::spf::Csr csr;
  csr.build_from(g);
  auto weight = [&](std::size_t slot) { return csr.value(slot); };
  auto gate = [](graph::NodeId v) { return (v * 2654435761u) % 8u != 0; };

  graph::spf::SpfWorkspace full;
  std::vector<graph::NodeId> order;
  std::uint64_t full_pops = 0;
  EXPECT_TRUE(graph::spf::run(
      csr, full, 5, weight, gate,
      [&](graph::NodeId v) {
        order.push_back(v);
        return false;
      },
      &full_pops));
  ASSERT_EQ(full_pops, order.size());
  ASSERT_GT(order.size(), 100u);
  std::size_t reached = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(full.settled(v), full.reached(v)) << "drained: nothing open";
    reached += full.reached(v) ? 1 : 0;
  }
  EXPECT_EQ(reached, order.size());

  graph::spf::SpfWorkspace early;
  for (const std::size_t prefix : {std::size_t{1}, std::size_t{2},
                                   order.size() / 3, order.size() - 1,
                                   order.size()}) {
    std::vector<graph::NodeId> seen;
    std::uint64_t pops = 0;
    const bool drained = graph::spf::run(
        csr, early, 5, weight, gate,
        [&](graph::NodeId v) {
          seen.push_back(v);
          return seen.size() == prefix;
        },
        &pops);
    // Stopping on the very last settle still counts as an early exit: the
    // predicate fired, so the caller cannot assume a complete tree.
    EXPECT_FALSE(drained) << "prefix " << prefix;
    EXPECT_EQ(pops, prefix);
    ASSERT_EQ(seen.size(), prefix);
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), order.begin()));
    std::size_t settled = 0;
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      if (!early.settled(v)) continue;
      ++settled;
      EXPECT_EQ(early.dist(v), full.dist(v)) << "prefix " << prefix;
      EXPECT_EQ(early.parent(v), full.parent(v));
    }
    EXPECT_EQ(settled, prefix);
  }

  // A predicate that never fires drains: identical to the default.
  graph::spf::SpfWorkspace never;
  EXPECT_TRUE(graph::spf::run(csr, never, 5, weight, gate,
                              [](graph::NodeId) { return false; }));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(never.dist(v), full.dist(v));
    EXPECT_EQ(never.parent(v), full.parent(v));
  }
}

/// A run seeded with k sources against the k single-source runs it folds
/// together, on random graphs with a relay gate and banned arcs. Arc costs
/// are small integers, so sums are exact and distance ties — the case the
/// source rank decides — are frequent. Every node must settle with the
/// lexicographically least (distance, rank) over the single-source runs
/// and with the winning source's own parent arc; a run stopped at the
/// first target to settle must stop at the (distance, rank, id) minimum
/// and leave that source's single-source path to it; and run() must report
/// a drain exactly when the stop never fired.
TEST(SpfKernel, MultiSourceRunIsLexicographicMinimumOfSingleSourceRuns) {
  std::mt19937 rng(71);
  std::size_t ties = 0;
  std::size_t early_stops = 0;
  for (int round = 0; round < 48; ++round) {
    const std::size_t nodes = 20 + 9 * static_cast<std::size_t>(round);
    const graph::Graph g = random_graph(rng, nodes, 4.0 / nodes);
    graph::spf::Csr csr;
    csr.build_from(g);
    std::uniform_int_distribution<int> unit_cost(1, 4);
    std::vector<double> cost(g.edge_count());
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      cost[e] = (e * 40503u) % 13u == 0 ? kInf : unit_cost(rng);
    }
    auto weight = [&](std::size_t slot) { return cost[csr.edge_id(slot)]; };
    auto gate = [](graph::NodeId v) { return (v * 2654435761u) % 5u != 0; };

    const std::size_t k = 1 + static_cast<std::size_t>(round) % 6;
    std::vector<graph::NodeId> sources;
    std::uniform_int_distribution<graph::NodeId> pick(
        0, static_cast<graph::NodeId>(nodes - 1));
    while (sources.size() < k) {
      const graph::NodeId v = pick(rng);
      if (std::find(sources.begin(), sources.end(), v) == sources.end()) {
        sources.push_back(v);
      }
    }
    std::vector<graph::spf::SpfWorkspace> single(k);
    for (std::size_t i = 0; i < k; ++i) {
      graph::spf::run(csr, single[i], sources[i], weight, gate);
    }
    // Lexicographic minimum per node: strict < keeps the lowest rank.
    std::vector<double> best_dist(nodes, kInf);
    std::vector<std::uint32_t> best_rank(nodes, 0);
    for (graph::NodeId v = 0; v < nodes; ++v) {
      for (std::uint32_t i = 0; i < k; ++i) {
        if (single[i].dist(v) == best_dist[v] && best_dist[v] < kInf) ++ties;
        if (single[i].dist(v) < best_dist[v]) {
          best_dist[v] = single[i].dist(v);
          best_rank[v] = i;
        }
      }
    }

    graph::spf::SpfWorkspace multi;
    std::uint64_t pops = 0;
    EXPECT_TRUE(graph::spf::run(csr, multi, sources, weight, gate,
                                graph::spf::NeverStop{}, &pops));
    std::size_t reached = 0;
    for (graph::NodeId v = 0; v < nodes; ++v) {
      ASSERT_EQ(multi.dist(v), best_dist[v]) << "round " << round << " node "
                                             << v;
      if (best_dist[v] == kInf) continue;
      ++reached;
      ASSERT_TRUE(multi.settled(v));
      EXPECT_EQ(multi.rank(v), best_rank[v])
          << "round " << round << " node " << v;
      EXPECT_EQ(multi.parent(v), single[best_rank[v]].parent(v))
          << "round " << round << " node " << v;
    }
    EXPECT_EQ(pops, reached);

    // Stop at the first of a random target set to settle (the set is empty
    // every fifth round, so the run must drain).
    std::vector<char> is_target(nodes, 0);
    graph::NodeId want = graph::kInvalidNode;
    if (round % 5 != 4) {
      for (graph::NodeId v = 0; v < nodes; ++v) {
        if (std::find(sources.begin(), sources.end(), v) != sources.end() ||
            rng() % 8 != 0) {
          continue;
        }
        is_target[v] = 1;
        if (best_dist[v] == kInf) continue;
        if (want == graph::kInvalidNode || best_dist[v] < best_dist[want] ||
            (best_dist[v] == best_dist[want] &&
             best_rank[v] < best_rank[want])) {
          want = v;  // ascending v: ids break the remaining ties
        }
      }
    }
    graph::spf::SpfWorkspace early;
    graph::NodeId first = graph::kInvalidNode;
    const bool drained = graph::spf::run(
        csr, early, sources, weight, gate, [&](graph::NodeId v) {
          if (is_target[v] == 0) return false;
          first = v;
          return true;
        });
    EXPECT_EQ(drained, first == graph::kInvalidNode);
    ASSERT_EQ(first, want) << "round " << round;
    if (first == graph::kInvalidNode) continue;
    ++early_stops;
    const graph::spf::SpfWorkspace& winner = single[early.rank(first)];
    graph::NodeId cursor = first;
    for (;;) {
      const graph::EdgeId via = early.parent(cursor);
      ASSERT_EQ(via, winner.parent(cursor)) << "round " << round;
      if (via == graph::kInvalidEdge) break;
      cursor = g.edge(via).other(cursor);
    }
    EXPECT_EQ(cursor, sources[early.rank(first)]);
  }
  EXPECT_GT(ties, 100u) << "integer costs should produce distance ties";
  EXPECT_GT(early_stops, 20u);
}

/// The tentpole's contract on the paper's own workload: on §V-A default
/// instances, the kernel (through the graph::dijkstra shim) reproduces the
/// seed's lazy-heap Dijkstra bit for bit — distances AND parent edges —
/// under the routing metric and the Def. 2 relay gate.
TEST(SpfKernel, BitIdenticalToLegacyOnSectionVADefaults) {
  experiment::Scenario scenario;  // §V-A defaults
  for (std::size_t rep : {0u, 7u, 19u}) {
    const experiment::Instance inst =
        experiment::instantiate(scenario, rep);
    const net::QuantumNetwork& network = inst.network;
    const graph::Graph& g = network.graph();
    net::CapacityState capacity(network);
    auto weight = [&](graph::EdgeId e) {
      return network.edge_routing_weight(e);
    };
    auto relay_gate = [&](graph::NodeId v) {
      return network.is_switch(v) && capacity.free_qubits(v) >= 2;
    };
    for (const net::NodeId source : inst.users) {
      const graph::ShortestPaths legacy =
          graph::dijkstra_legacy(g, source, weight, relay_gate);
      const graph::ShortestPaths kernel =
          graph::dijkstra(g, source, weight, relay_gate);
      ASSERT_EQ(kernel.distance.size(), legacy.distance.size());
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(kernel.distance[v], legacy.distance[v])
            << "rep " << rep << " source " << source << " node " << v;
        EXPECT_EQ(kernel.parent_edge[v], legacy.parent_edge[v]);
      }
    }
  }
}

}  // namespace
}  // namespace muerp
