// Offline routing: the paper's five algorithms through Router::route_tree.
#include <algorithm>
#include <bit>
#include <cmath>

#include "network/channel.hpp"
#include "routing/router.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "workloads.hpp"

namespace muerpbench {

namespace tel = muerp::support::telemetry;

const std::array<const char*, 5> kPaperAlgorithms = {"alg2", "alg3", "alg4",
                                                     "eqcast", "nfusion"};

namespace {

std::map<std::string, double> named_counters(const tel::Snapshot& delta) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < delta.counters.size(); ++i) {
    if (delta.counters[i] != 0) {
      out[tel::counter_name(static_cast<std::uint32_t>(i))] =
          static_cast<double>(delta.counters[i]);
    }
  }
  return out;
}

double span_self_ms(const tel::Snapshot& snapshot, const std::string& label) {
  const tel::SpanId id = tel::intern_span(label);
  return id < snapshot.spans.size()
             ? static_cast<double>(snapshot.spans[id].self_ns) / 1e6
             : 0.0;
}

/// net::validate_tree for algorithm `a`'s tree. Algorithm 2 routes on the
/// sufficient-condition network (2|U| qubits per switch,
/// RouterOptions::pin_alg2_sufficient). N-FUSION's rate carries the central
/// GHZ measurement, q^(|U|-2) (baselines/nfusion.hpp, fusion penalty 1), on
/// top of the Eq. (2) channel product, so that factor is divided out first.
std::string validate(std::size_t a, const muerp::experiment::Instance& instance,
                     const muerp::net::EntanglementTree& tree) {
  const std::string name = kPaperAlgorithms[a];
  const int users = static_cast<int>(instance.users.size());
  if (name == "alg2") {
    return muerp::net::validate_tree(
        muerp::net::with_uniform_switch_qubits(instance.network, 2 * users),
        instance.users, tree);
  }
  if (name == "nfusion" && tree.feasible && users > 2) {
    muerp::net::EntanglementTree channels_only = tree;
    channels_only.rate /=
        std::pow(instance.network.physical().swap_success, users - 2);
    return muerp::net::validate_tree(instance.network, instance.users,
                                     channels_only);
  }
  return muerp::net::validate_tree(instance.network, instance.users, tree);
}

}  // namespace

OfflineStats offline_pass(const InstanceSource& source, std::size_t first_pass,
                          double seconds, Tracer& tracer, Outcome& out) {
  const muerp::routing::RouterRegistry& registry =
      muerp::routing::RouterRegistry::instance();
  std::array<const muerp::routing::Router*, 5> routers{};
  for (std::size_t a = 0; a < routers.size(); ++a) {
    routers[a] = &registry.at(kPaperAlgorithms[a]);
  }
  OfflineStats stats;
  std::vector<std::uint64_t> first_rates;  // bit patterns, instance-major
  std::array<tel::Snapshot, 5> per_alg;
  const Telemetry before = Telemetry::capture();
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t block_ns = 0, block_cpu_ns = 0;
  for (std::size_t i = 0;; ++i) {
    if (i >= first_pass && i % kBlockInstances == 0 && now_ns() - start >= budget) break;
    const std::size_t index = i % first_pass;
    const bool first = i < first_pass;
    ScopedSpan op_span(tracer, "op", i);
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t t0 = now_ns();
    muerp::experiment::Instance instance = source(index);
    const std::uint64_t t1 = now_ns();
    tracer.record("topology.generate", i, t0, t1);
    stats.generate_us.add(static_cast<double>(t1 - t0) / 1e3);
    std::uint64_t op_ns = t1 - t0;
    std::array<muerp::net::EntanglementTree, 5> trees;
    for (std::size_t a = 0; a < routers.size(); ++a) {
      muerp::routing::RoutingRequest request;
      request.network = &instance.network;
      request.users = instance.users;
      request.rng = &instance.rng;
      ScopedSpan route_span(tracer, std::string("routing.") + kPaperAlgorithms[a], i);
      tel::Snapshot snap_before;
      if (tracer.enabled()) snap_before = tel::capture_process();
      const std::uint64_t r0 = now_ns();
      trees[a] = routers[a]->route_tree(request);
      const std::uint64_t r1 = now_ns();
      if (tracer.enabled()) {
        tel::Snapshot delta = tel::capture_process();
        delta.subtract(snap_before);
        tracer.set_counters(route_span.index(), named_counters(delta));
        per_alg[a].merge(delta);
      }
      op_ns += r1 - r0;
      const double us = static_cast<double>(r1 - r0) / 1e3;
      stats.route_us[a].add(us);
      stats.all_route_us.add(us);
      ++stats.route_calls;
      ++stats.attempted[a];
      if (trees[a].feasible) ++stats.feasible[a];
    }
    block_cpu_ns += thread_cpu_ns() - cpu0;
    block_ns += op_ns;
    ++stats.instances;
    if (stats.instances % kBlockInstances == 0) {
      const double routes = static_cast<double>(kBlockInstances * routers.size());
      stats.block_routes_per_s.add(routes / (static_cast<double>(block_ns) / 1e9));
      stats.block_cpu_ms_per_route.add(static_cast<double>(block_cpu_ns) / 1e6 / routes);
      block_ns = block_cpu_ns = 0;
    }
    // Output checks, outside the timed intervals.
    for (std::size_t a = 0; a < trees.size(); ++a) {
      const muerp::net::EntanglementTree& tree = trees[a];
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(tree.rate);
      if (first) {
        first_rates.push_back(bits);
        ++stats.first_pass_routes;
        if (tree.feasible) {
          ++stats.first_pass_feasible;
          stats.first_pass_rate_sum += tree.rate;
        }
        const std::string problem = validate(a, instance, tree);
        out.check(problem.empty(), std::string("invalid ") + kPaperAlgorithms[a] +
                                       " tree on instance " +
                                       std::to_string(index) + ": " + problem);
      } else {
        out.check(first_rates[index * trees.size() + a] == bits,
                  std::string(kPaperAlgorithms[a]) + " rate on instance " +
                      std::to_string(index) + " differs from its first route");
      }
    }
  }
  stats.telemetry = Telemetry::delta(before, Telemetry::capture());
  if (tracer.enabled()) {
    // Span self times per call of the algorithm that ran them.
    const std::pair<std::size_t, const char*> spans[] = {
        {0, "optimal_tree/pair_channels"},
        {0, "optimal_tree/kruskal"},
        {1, "conflict_free/reconnect_search"},
        {2, "prim_based/channel_search"}};
    for (const auto& [a, label] : spans) {
      stats.span_self_ms_per_call[label] =
          span_self_ms(per_alg[a], label) /
          static_cast<double>(std::max<std::uint64_t>(1, stats.attempted[a]));
    }
  }
  return stats;
}

void graph_layer_metrics(const Telemetry& t, double ops, JsonObject& layer) {
  set_metric(layer, "graph.dijkstra_runs_per_op", t.counter("routing/dijkstra_runs") / ops,
             "count");
  set_metric(layer, "graph.heap_pops_per_op", t.counter("routing/heap_pops") / ops, "count");
  const double builds = t.counter("spf/csr_builds") + t.counter("spf/affine_csr_builds");
  const double hits = t.counter("spf/csr_cache_hits") + t.counter("spf/affine_csr_cache_hits");
  set_metric(layer, "graph.csr_builds", builds / ops, "count");
  set_metric(layer, "graph.csr_hit_ratio", hits + builds > 0 ? hits / (hits + builds) : 0.0,
             "ratio");
}

void offline_layer_metrics(const OfflineStats& stats, JsonObject& layer) {
  const Telemetry& t = stats.telemetry;
  const double calls = static_cast<double>(std::max<std::uint64_t>(1, stats.route_calls));
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  set_metric(layer, "topology.generate_us_p50", stats.generate_us.quantile(0.5), "us");
  graph_layer_metrics(t, calls, layer);
  for (std::size_t a = 0; a < kPaperAlgorithms.size(); ++a) {
    set_metric(layer, std::string("routing.") + kPaperAlgorithms[a] + "_us_p50",
               stats.route_us[a].quantile(0.5), "us");
  }
  const std::pair<const char*, const char*> spans[] = {
      {"routing.alg2_pair_channels_ms", "optimal_tree/pair_channels"},
      {"routing.alg2_kruskal_ms", "optimal_tree/kruskal"},
      {"routing.alg3_reconnect_ms", "conflict_free/reconnect_search"},
      {"routing.alg4_channel_search_ms", "prim_based/channel_search"}};
  for (const auto& [name, label] : spans) {
    const auto it = stats.span_self_ms_per_call.find(label);
    set_metric(layer, name, it == stats.span_self_ms_per_call.end() ? 0.0 : it->second,
               "ms");
  }
  const double finder_hits = t.counter("routing/cache_hits");
  set_metric(layer, "routing.finder_hit_ratio",
             ratio(finder_hits, finder_hits + t.counter("routing/cache_misses")), "ratio");
  set_metric(layer, "routing.finder_invalidations_per_op",
             t.counter("routing/cache_invalidations") / calls, "count");
  for (std::size_t a = 0; a < kPaperAlgorithms.size(); ++a) {
    set_metric(layer, std::string("routing.feasible_ratio.") + kPaperAlgorithms[a],
               ratio(static_cast<double>(stats.feasible[a]),
                     static_cast<double>(stats.attempted[a])),
               "ratio");
  }
}

}  // namespace muerpbench
