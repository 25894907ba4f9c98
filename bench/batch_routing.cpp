// batch_routing — throughput benchmark for the batch multi-request kernel.
//
// Routes N=64 concurrent 2-user group requests against one shared topology
// and compares two implementations of the same contract:
//
//   * reference: the sequential ext::route_groups_reference /
//     route_groups_interleaved_reference loops (paper-literal: one full
//     run-to-exhaustion Dijkstra per connected source per round, nothing
//     cached across requests);
//   * batch: a persistent routing::BatchRouter instance (shared CSR,
//     persistent pair slabs, coalesced capacity epochs, early-exit
//     Dijkstras).
//
// Both are driven with identically seeded Rngs, and every pass asserts the
// outcomes are bit-identical (admit decisions, rates, channel paths) —
// the speedup is only meaningful if the results agree. Results are written
// as BENCH_batch.json (or the --out=<path> argument) with machine-
// independent gates for tools/bench_diff: the reference/batch speedup, the
// groups/sec throughput, the identical flags, the per-group admission
// latency quantiles (informational) and the served-rate arrays (bitwise).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/scenario.hpp"
#include "extensions/multigroup.hpp"
#include "routing/batch_router.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "support/telemetry/export.hpp"
#include "support/telemetry/telemetry.hpp"

#include "figure_common.hpp"

namespace {

using namespace muerp;
namespace tel = support::telemetry;

constexpr std::size_t kSwitches = 100;
constexpr std::size_t kUsers = 128;
constexpr int kQubitsPerSwitch = 6;
constexpr std::size_t kGroups = 64;   // N in the acceptance criterion
constexpr std::size_t kGroupSize = 2;
constexpr std::size_t kNetworks = 3;
constexpr std::size_t kPasses = 25;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One workload instance: the network plus its 64 disjoint pair groups.
struct Instance {
  net::QuantumNetwork network;
  std::vector<std::vector<net::NodeId>> groups;
};

Instance make_instance(std::size_t repetition) {
  experiment::Scenario s;
  s.switch_count = kSwitches;
  s.user_count = kUsers;
  s.qubits_per_switch = kQubitsPerSwitch;
  s.seed = 7;
  Instance inst{experiment::instantiate(s, repetition).network, {}};
  inst.groups.resize(kGroups);
  for (std::size_t i = 0; i < kGroups * kGroupSize; ++i) {
    inst.groups[i % kGroups].push_back(inst.network.users()[i]);
  }
  return inst;
}

bool outcomes_identical(const ext::MultiGroupResult& reference,
                        const routing::BatchResult& batch) {
  if (reference.outcomes.size() != batch.outcomes.size()) return false;
  if (reference.groups_served != batch.groups_served) return false;
  if (reference.served_product_rate != batch.served_product_rate) return false;
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    const auto& r = reference.outcomes[i];
    const auto& b = batch.outcomes[i];
    if (r.request_index != b.request_index) return false;
    if (r.tree.feasible != b.tree.feasible) return false;
    if (r.tree.rate != b.tree.rate) return false;  // bitwise
    if (r.tree.channels.size() != b.tree.channels.size()) return false;
    for (std::size_t c = 0; c < r.tree.channels.size(); ++c) {
      if (r.tree.channels[c].path != b.tree.channels[c].path) return false;
    }
  }
  return true;
}

struct Section {
  double reference_ms = 0.0;
  double batch_ms = 0.0;
  bool identical = true;
  std::vector<double> rates;  // served rates, first network / first pass

  double speedup() const {
    return batch_ms > 0.0 ? reference_ms / batch_ms : 0.0;
  }
  double reference_groups_per_sec() const {
    const double total = static_cast<double>(kNetworks * kPasses * kGroups);
    return reference_ms > 0.0 ? total / (reference_ms / 1e3) : 0.0;
  }
  double batch_groups_per_sec() const {
    const double total = static_cast<double>(kNetworks * kPasses * kGroups);
    return batch_ms > 0.0 ? total / (batch_ms / 1e3) : 0.0;
  }
};

void record_rates(Section& section, const routing::BatchResult& result) {
  if (!section.rates.empty()) return;
  for (const auto& outcome : result.outcomes) {
    if (outcome.tree.feasible) section.rates.push_back(outcome.tree.rate);
  }
}

void write_rates_json(std::ostream& out, const std::vector<double>& rates) {
  out << '[';
  for (std::size_t i = 0; i < rates.size(); ++i) {
    out << (i > 0 ? ", " : "") << rates[i];
  }
  out << ']';
}

void write_section_json(std::ostream& out, const char* name,
                        const Section& s) {
  out << "  \"" << name << "\": {\"reference_ms\": " << s.reference_ms
      << ", \"batch_ms\": " << s.batch_ms << ", \"speedup\": " << s.speedup()
      << ",\n    \"reference_groups_per_sec\": " << s.reference_groups_per_sec()
      << ", \"batch_groups_per_sec\": " << s.batch_groups_per_sec()
      << ", \"identical\": " << (s.identical ? "true" : "false")
      << ",\n    \"rates\": ";
  write_rates_json(out, s.rates);
  out << "}";
}

int run(const std::string& output_path) {
  std::vector<Instance> instances;
  for (std::size_t n = 0; n < kNetworks; ++n) {
    instances.push_back(make_instance(n));
  }

  Section given_order;
  Section fair_share;
  std::vector<double> admit_us;
  const tel::Snapshot before = tel::capture_thread();

  for (std::size_t n = 0; n < kNetworks; ++n) {
    const Instance& inst = instances[n];
    std::vector<ext::GroupRequest> ext_groups;
    std::vector<routing::BatchRequest> requests;
    for (const auto& g : inst.groups) {
      ext::GroupRequest r;
      r.users = g;
      ext_groups.push_back(std::move(r));
      requests.push_back({g});
    }
    // Persistent kernels + persistent CapacityStates: each pass routes a
    // fresh batch of arrivals, then the admitted sessions complete and
    // release their channels — SessionService's steady state. The capacity
    // content is back to full before the next pass (so every pass stays
    // bit-comparable to the from-scratch reference), but the *lineage* is
    // unbroken: the flip-replay check lets warm slabs answer repeat
    // requests without a Dijkstra. The reference loop rebuilds everything
    // from nothing every pass — exactly what the batch kernel exists to
    // amortize. Release time is charged to the batch side (inside the
    // timed window) so the comparison can't hide teardown cost.
    routing::BatchRouter seq_router(inst.network);
    routing::BatchRouter fair_router(inst.network);
    net::CapacityState seq_capacity(inst.network);
    net::CapacityState fair_capacity(inst.network);
    const auto release_all = [](const routing::BatchResult& result,
                                net::CapacityState& capacity) {
      for (const auto& outcome : result.outcomes) {
        for (const net::Channel& channel : outcome.tree.channels) {
          capacity.release_channel(channel.path);
        }
      }
    };
    std::vector<double> pass_admit_us;

    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      const std::uint64_t seed = n * 1000 + pass + 1;

      // --- given-order: sequential reference vs batch kernel ---
      support::Rng ref_rng(seed);
      auto start = Clock::now();
      const auto ref_seq = ext::route_groups_reference(
          inst.network, ext_groups, ext::GroupOrder::kGivenOrder, ref_rng);
      given_order.reference_ms += ms_since(start);

      support::Rng batch_rng(seed);
      routing::BatchOptions options;
      options.admit_us = &pass_admit_us;
      start = Clock::now();
      const auto batch_seq =
          seq_router.route_shared(requests, options, batch_rng, seq_capacity);
      release_all(batch_seq, seq_capacity);
      given_order.batch_ms += ms_since(start);
      given_order.identical &= outcomes_identical(ref_seq, batch_seq);
      record_rates(given_order, batch_seq);
      admit_us.insert(admit_us.end(), pass_admit_us.begin(),
                      pass_admit_us.end());

      // --- fair-share: interleaved reference vs batch kernel ---
      support::Rng ref_rng2(seed);
      start = Clock::now();
      const auto ref_fair = ext::route_groups_interleaved_reference(
          inst.network, ext_groups, ref_rng2);
      fair_share.reference_ms += ms_since(start);

      support::Rng batch_rng2(seed);
      routing::BatchOptions fair_options;
      fair_options.policy = routing::BatchPolicy::kFairShare;
      start = Clock::now();
      const auto batch_fair = fair_router.route_shared(
          requests, fair_options, batch_rng2, fair_capacity);
      release_all(batch_fair, fair_capacity);
      fair_share.batch_ms += ms_since(start);
      fair_share.identical &= outcomes_identical(ref_fair, batch_fair);
      record_rates(fair_share, batch_fair);
    }
  }

  tel::Snapshot delta = tel::capture_thread();
  delta.subtract(before);

  std::sort(admit_us.begin(), admit_us.end());
  const double p50 = support::quantile(admit_us, 0.50);
  const double p90 = support::quantile(admit_us, 0.90);
  const double p99 = support::quantile(admit_us, 0.99);

  support::Table table("batch routing kernel vs sequential reference (N=" +
                           std::to_string(kGroups) + " groups)",
                       {"policy", "ref ms", "batch ms", "speedup",
                        "batch groups/s"});
  table.add_row("given-order",
                {given_order.reference_ms, given_order.batch_ms,
                 given_order.speedup(), given_order.batch_groups_per_sec()});
  table.add_row("fair-share",
                {fair_share.reference_ms, fair_share.batch_ms,
                 fair_share.speedup(), fair_share.batch_groups_per_sec()});
  std::cout << table;
  std::cout << "admission latency us: p50 " << p50 << ", p90 " << p90
            << ", p99 " << p99 << " (" << admit_us.size() << " admissions)\n";

  std::ofstream out(output_path);
  out << std::setprecision(17);
  out << "{\n  \"scenario\": {\"topology\": \"Waxman\", \"switches\": "
      << kSwitches << ", \"users\": " << kUsers << ", \"qubits_per_switch\": "
      << kQubitsPerSwitch << ", \"groups\": " << kGroups
      << ", \"group_size\": " << kGroupSize << ", \"networks\": " << kNetworks
      << ", \"passes\": " << kPasses << "},\n";
  write_section_json(out, "given_order", given_order);
  out << ",\n";
  write_section_json(out, "fair_share", fair_share);
  out << ",\n";
  out << "  \"admit_us\": {\"count\": " << admit_us.size() << ", \"p50\": "
      << p50 << ", \"p90\": " << p90 << ", \"p99\": " << p99 << "},\n";
  out << "  \"telemetry\": {\"enabled\": "
      << (MUERP_TELEMETRY_ENABLED ? "true" : "false") << ", \"snapshot\": ";
  tel::write_json(out, delta, /*indent=*/0);
  out << "}\n}\n";
  std::printf("wrote %s\n", output_path.c_str());

  if (!given_order.identical || !fair_share.identical) {
    std::cerr << "FAIL: batch kernel diverged from the sequential "
                 "reference\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  muerp::bench::BenchCli cli("bench_batch_routing");
  cli.cli.add_flag("out", "perf-gate JSON output file", "BENCH_batch.json");
  if (const auto status = cli.parse(argc, argv)) return *status;
  const muerp::bench::TraceGuard trace(cli.trace_path());
  return run(cli.cli.get_string("out"));
}
