// The three benchmark workloads and the layer probes of the traced run.
// See ../LAYERS.md for what each workload stresses and which end-to-end
// metric every per-layer metric is expected to move.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "experiment/scenario.hpp"
#include "process.hpp"
#include "simulation/sharded_session_service.hpp"

namespace muerpbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string muerpd;    // daemon binary under test
  std::string self;      // this harness (re-launched for set-up probes)
  std::string work_dir;  // generated inputs, snapshots, traces
  std::string golden;    // paper_sweep golden file
  unsigned nproc = 1;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonObject metrics;  // end_to_end (untraced) or per_layer (traced)
  JsonObject info;     // everything else worth keeping with the result
  /// Set when the measurement itself is not valid (the run then reports
  /// no result).
  std::string invalid;
  void check(bool ok, const std::string& what);
};

/// Every end-to-end metric of BENCHMARK.json, measured on one pass.
struct EndToEnd {
  double setup_s = 0;
  double routes_per_s = 0;
  double route_us_p50 = 0;
  double route_us_p99 = 0;
  double sessions_per_s = 0;
  double success_ratio = 0;
  double mean_tree_rate = 0;
  double scrape_ms_p50 = 0;
  double cpu_ms_per_op = 0;
  double rss_mb = 0;
  /// The throughput the tracing overhead is judged on.
  double ops_per_s = 0;

  void write(JsonObject& out) const;
};

/// Sets `name` to {"value": v, "unit": u}.
void set_metric(JsonObject& out, const std::string& name, double value,
                const std::string& unit);

// ---------------------------------------------------------------------------
// Open-loop scraping (shared by every workload).

/// Requests per second of the open-loop scraper. Slow enough that a
/// scrape stalled behind a busy host (p99 up to ~20 ms on the 4-core
/// reference host) does not back the next ones up.
constexpr double kScrapeHz = 25.0;
/// A run whose scraper fell behind by more than these shares of the send
/// period (p99 / max of send lag) is invalid, not slow.
constexpr double kMaxLagP99Share = 0.5;
constexpr double kMaxLagShare = 10.0;

const std::vector<std::string>& daemon_routes();
/// Adds the scraper's sample counts, lag and tail latencies to `out.info`;
/// returns false when the lag makes the run invalid.
bool check_scrape_validity(const ScrapeLog& log, Outcome& out);
void scrape_metrics(const ScrapeLog& log, EndToEnd& e2e);
void http_layer_metrics(const ScrapeLog& log, JsonObject& layer);

// ---------------------------------------------------------------------------
// Offline routing (Router::route_tree through the RouterRegistry).

extern const std::array<const char*, 5> kPaperAlgorithms;
constexpr std::size_t kBlockInstances = 100;

/// One routing input: a network and the group to entangle.
using InstanceSource = std::function<muerp::experiment::Instance(std::size_t)>;

struct OfflineStats {
  std::array<Samples, 5> route_us;
  Samples all_route_us;
  Samples generate_us;
  std::uint64_t instances = 0;
  std::uint64_t route_calls = 0;
  /// Per block of kBlockInstances consecutive instances: route calls per
  /// second of generation + routing time, and thread CPU per route call.
  /// Their medians resist the host's transient stalls.
  Samples block_routes_per_s;
  Samples block_cpu_ms_per_route;
  std::array<std::uint64_t, 5> feasible{};
  std::array<std::uint64_t, 5> attempted{};
  /// Over the first pass only (deterministic).
  std::uint64_t first_pass_routes = 0;
  std::uint64_t first_pass_feasible = 0;
  double first_pass_rate_sum = 0;  // feasible trees only
  Telemetry telemetry;             // counter/span delta over the pass
  /// Traced pass only: library span self time (ms) per call of the
  /// algorithm that ran it, by span label.
  std::map<std::string, double> span_self_ms_per_call;
};

/// Routes instances 0..first_pass-1 of `source` with the five paper
/// algorithms, then cycles over them again until `seconds` have passed.
/// Every first-pass tree must pass net::validate_tree and every repeat
/// must reproduce its first-pass rate bit for bit.
OfflineStats offline_pass(const InstanceSource& source, std::size_t first_pass,
                          double seconds, Tracer& tracer, Outcome& out);
/// topology.*, graph.* and routing.* metrics of a pass (graph.* per route
/// call; the session workloads overwrite topology.* and graph.* with their
/// own inputs' figures).
void offline_layer_metrics(const OfflineStats& stats, JsonObject& layer);
/// graph.* metrics from a telemetry delta covering `ops` operations.
void graph_layer_metrics(const Telemetry& t, double ops, JsonObject& layer);

// ---------------------------------------------------------------------------
// Session plane: muerpd launches and their in-process replicas.

/// Session-plane settings every daemon run shares: 8 lanes, an arrival
/// probability of 0.9 per lane and slot, a 50-slot session timeout.
constexpr std::size_t kLanes = 8;
constexpr double kArrival = 0.9;
constexpr std::uint64_t kTimeoutSlots = 50;

/// The daemon flags a session workload varies; everything else is fixed
/// above or a muerpd default (recorder and ledger on, shared-prim
/// admission).
struct DaemonConfig {
  std::size_t group = 10;  // --min-group = --max-group
  std::size_t shards = 1;
  std::uint64_t slots = 1000;  // per launch

  std::vector<std::string> flags(const std::string& net_path,
                                 std::uint64_t seed,
                                 const std::string& snapshot_path) const;
  /// What muerpd builds from flags(): the in-process replica's config.
  muerp::sim::ShardedSessionServiceConfig service_config(
      std::size_t shard_count) const;
};

struct LaunchResult {
  bool ok = false;
  double setup_s = 0;  // spawn -> /healthz 200
  double drain_s = 0;  // serving -> exit
  double cpu_ms = 0;
  double rss_mb = 0;
  Telemetry snapshot;  // the final --snapshot-out document
};

/// Launches muerpd on `net_path`, scrapes it open-loop until it exits and
/// reads its final snapshot. Failures are recorded on `out`.
LaunchResult launch_daemon(const Options& options, const DaemonConfig& config,
                           const std::string& net_path, const std::string& tag,
                           ScrapeLog& log, Tracer& tracer, std::uint64_t op,
                           Outcome& out);

/// batch.* metrics from a telemetry delta covering `sessions` arrivals.
void batch_layer_metrics(const Telemetry& t, double sessions, JsonObject& layer);

/// simulation.* and telemetry.* metrics from in-process runs of the
/// session plane on `network` with `config` for `slots` slots. The
/// runs are checked against each other (1 vs N shards, lane-0 replica vs
/// lane_metrics(0)). Returns the in-process telemetry delta of the N-shard
/// run (for batch.* on workloads without a daemon).
Telemetry session_plane_probe(const muerp::net::QuantumNetwork& network,
                              const DaemonConfig& config, std::uint64_t seed,
                              std::uint64_t slots,
                              double daemon_sessions_per_s, JsonObject& layer,
                              Outcome& out);

// ---------------------------------------------------------------------------
// Workloads.

void run_paper_sweep(const Options& options, Outcome& out);
void run_session_workload(const Options& options, Outcome& out);

/// `--setup-probe`: builds the first paper_sweep network, resolves the
/// routers, prints "ready" and returns.
int setup_probe(std::uint64_t seed);

}  // namespace muerpbench
