// paper_sweep: the §V-A offline workload, in process and single-threaded.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>

#include "experiment/runner.hpp"
#include "network/serialization.hpp"
#include "routing/router.hpp"
#include "support/telemetry/http_exporter.hpp"
#include "workloads.hpp"

namespace muerpbench {

namespace {

/// §V-A networks per first pass: the deterministic metrics average over
/// this many networks, enough to keep their seed-to-seed spread small.
constexpr std::size_t kFirstPass = 2000;
/// Set-up probes per run; setup_s is their median.
constexpr int kSetupLaunches = 15;

/// §V-A defaults (Waxman, 50 switches, 10 users, degree 6, Q = 4,
/// q = 0.9) drawn from the workload seed.
muerp::experiment::Scenario sweep_scenario(std::uint64_t seed) {
  muerp::experiment::Scenario s;
  s.seed = seed;
  return s;
}

std::string three_figures(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.2e", value);
  return text;
}

/// The fixed 20-network default scenario (bench/fig5_topology's Waxman
/// point) against the golden file: bit-identical per-algorithm mean rates,
/// and the EXPERIMENTS.md Fig. 5 Waxman row to three significant figures.
void golden_check(const std::string& path, Outcome& out) {
  std::string text;
  const muerp::support::json::ParseResult golden =
      read_file(path, &text) ? muerp::support::json::parse(text)
                             : muerp::support::json::ParseResult{{}, "unreadable"};
  if (!golden.ok()) {
    out.check(false, "golden file " + path + ": " + golden.error);
    return;
  }
  const auto names = muerp::experiment::paper_algorithm_names();
  const muerp::experiment::ScenarioResult result =
      muerp::experiment::run_scenario(muerp::experiment::Scenario{}, names);
  for (std::size_t a = 0; a < names.size(); ++a) {
    const double mean = result.mean_rate(a);
    const muerp::support::json::Value& want = golden.value["mean_rate"][names[a]];
    const muerp::support::json::Value& fig5 = golden.value["fig5_waxman"][names[a]];
    out.check(want.is_number() && want.number_value == mean,
              "golden mean rate of " + names[a] + ": got " + json_number(mean) +
                  ", golden " + json_number(want.number_value));
    out.check(fig5.is_number() && three_figures(fig5.number_value) == three_figures(mean),
              "Fig. 5 Waxman " + names[a] + ": got " + three_figures(mean) +
                  ", EXPERIMENTS.md " + three_figures(fig5.number_value));
  }
}

/// Median launch -> "ready" time of the harness in --setup-probe mode over
/// kSetupLaunches launches, one every `spacing_ns`: spread over the
/// measured pass, a burst of host noise moves a few launches, not the
/// median. Failures are appended to `errors`.
double setup_seconds(const Options& options, std::uint64_t spacing_ns,
                     std::vector<std::string>& errors) {
  Samples seconds;
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kSetupLaunches; ++i) {
    const std::uint64_t due = start + static_cast<std::uint64_t>(i) * spacing_ns;
    if (const std::uint64_t now = now_ns(); now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    ChildProcess child;
    std::string error, rest;
    const std::uint64_t t0 = now_ns();
    const bool ok =
        child.spawn({options.self, "--setup-probe", "--seed", std::to_string(options.seed)},
                    options.work_dir + "/setup-probe.stderr", &error) &&
        child.wait_line("ready", 60'000, &rest, &error);
    const std::uint64_t t1 = now_ns();
    if (!ok || !child.wait_exit(10'000) || child.exit_code() != 0) {
      errors.push_back("set-up probe failed: " + error);
    }
    seconds.add(static_cast<double>(t1 - t0) / 1e9);
  }
  return seconds.quantile(0.5);
}

struct SweepPass {
  EndToEnd e2e;
  OfflineStats stats;
};

SweepPass sweep_pass(const Options& options, std::uint16_t port, Tracer& tracer,
                     Outcome& out) {
  ScrapeLog log({"/metrics", "/healthz"}, kScrapeHz);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    scrape_open_loop(port, now_ns(), log,
                     [&] { return stop.load(); }, [] { return false; });
  });
  const muerp::experiment::Scenario scenario = sweep_scenario(options.seed);
  SweepPass pass;
  pass.stats = offline_pass(
      [&](std::size_t rep) { return muerp::experiment::instantiate(scenario, rep); },
      kFirstPass, options.seconds, tracer, out);
  stop = true;
  scraper.join();
  if (!check_scrape_validity(log, out)) out.invalid = "scraper lag exceeded its bound";
  out.attempted += pass.stats.route_calls + log.attempted;
  out.failed += log.failed;
  const OfflineStats& s = pass.stats;
  EndToEnd& e = pass.e2e;
  e.routes_per_s = s.block_routes_per_s.quantile(0.5);
  e.sessions_per_s = e.routes_per_s / static_cast<double>(kPaperAlgorithms.size());
  e.route_us_p50 = s.all_route_us.quantile(0.5);
  e.route_us_p99 = s.all_route_us.quantile(0.99);
  e.success_ratio = static_cast<double>(s.first_pass_feasible) /
                    static_cast<double>(s.first_pass_routes);
  e.mean_tree_rate = s.first_pass_rate_sum / static_cast<double>(s.first_pass_feasible);
  scrape_metrics(log, e);
  e.cpu_ms_per_op = s.block_cpu_ms_per_route.quantile(0.5);
  e.rss_mb = self_peak_rss_mb();
  e.ops_per_s = e.routes_per_s;
  out.info.set("route_samples", static_cast<double>(s.route_calls));
  out.info.set("networks_routed", static_cast<double>(s.instances));
  return pass;
}

}  // namespace

int setup_probe(std::uint64_t seed) {
  const muerp::experiment::Instance instance =
      muerp::experiment::instantiate(sweep_scenario(seed), 0);
  const muerp::routing::RouterRegistry& registry =
      muerp::routing::RouterRegistry::instance();
  for (const char* name : kPaperAlgorithms) registry.at(name);
  std::cout << "ready " << instance.network.node_count() << std::endl;
  return 0;
}

void run_paper_sweep(const Options& options, Outcome& out) {
  golden_check(options.golden, out);
  // The sweep process serves the library's built-in /metrics and /healthz,
  // and the scraper reads them while the sweep runs.
  muerp::support::telemetry::HttpExporter exporter;
  std::string error;
  if (!exporter.start(&error)) {
    out.check(false, "cannot start the in-process exporter: " + error);
    return;
  }
  double setup_s = 0;
  std::vector<std::string> setup_errors;
  std::thread prober([&] {
    setup_s = setup_seconds(
        options, static_cast<std::uint64_t>(options.seconds * 1e9 / kSetupLaunches),
        setup_errors);
  });
  Tracer untraced;
  SweepPass pass = sweep_pass(options, exporter.port(), untraced, out);
  prober.join();
  for (const std::string& e : setup_errors) out.check(false, e);
  pass.e2e.setup_s = setup_s;
  if (!options.trace) {
    pass.e2e.write(out.metrics);
    return;
  }

  Tracer tracer;
  tracer.set_enabled(true);
  SweepPass traced = sweep_pass(options, exporter.port(), tracer, out);
  traced.e2e.setup_s = setup_s;
  JsonObject untraced_e2e, traced_e2e;
  pass.e2e.write(untraced_e2e);
  traced.e2e.write(traced_e2e);
  out.info.set_raw("untraced", untraced_e2e.str());
  out.info.set_raw("traced", traced_e2e.str());
  JsonObject& layer = out.metrics;
  offline_layer_metrics(traced.stats, layer);

  // Session-plane and daemon layers on the paper's instance: network 0
  // with 8 lanes of Q = 4 each (Q = 32 per switch), 10-user sessions.
  DaemonConfig config;
  config.group = 10;
  config.shards = std::min(4u, options.nproc);
  config.slots = 4000;
  const muerp::net::QuantumNetwork network = muerp::net::with_uniform_switch_qubits(
      muerp::experiment::instantiate(sweep_scenario(options.seed), 0).network,
      4 * static_cast<int>(kLanes));
  const std::string net_path = options.work_dir + "/paper_sweep-seed" +
                               std::to_string(options.seed) + ".net";
  out.check(muerp::net::save_network_file(network, net_path), "cannot write " + net_path);
  ScrapeLog log(daemon_routes(), kScrapeHz);
  const LaunchResult daemon =
      launch_daemon(options, config, net_path, "paper_sweep-daemon", log, tracer, 0, out);
  const double daemon_rate =
      daemon.ok ? daemon.snapshot.counter("session/arrived") / daemon.drain_s : 0.0;
  const Telemetry probe =
      session_plane_probe(network, config, options.seed, 640, daemon_rate, layer, out);
  batch_layer_metrics(probe, probe.counter("session/arrived"), layer);
  http_layer_metrics(log, layer);
  set_metric(layer, "trace.throughput_overhead_ratio",
             pass.e2e.ops_per_s / traced.e2e.ops_per_s, "ratio");
  set_metric(layer, "trace.cpu_overhead_ratio",
             traced.e2e.cpu_ms_per_op / pass.e2e.cpu_ms_per_op, "ratio");
  const std::string trace_path = options.work_dir + "/paper_sweep-seed" +
                                 std::to_string(options.seed) + ".trace.json";
  out.check(tracer.write(trace_path), "cannot write " + trace_path);
  out.info.set("trace_file", trace_path);
  out.info.set("trace_spans", static_cast<double>(tracer.size()));
}

}  // namespace muerpbench
