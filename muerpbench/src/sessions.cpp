// Session workloads (groups10_drain, pairs_scraped) and the session-plane
// probes of the traced run.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "network/serialization.hpp"
#include "support/rng.hpp"
#include "support/telemetry/export.hpp"
#include "support/telemetry/flight_recorder.hpp"
#include "support/telemetry/link_ledger.hpp"
#include "support/telemetry/metrics.hpp"
#include "workloads.hpp"

namespace muerpbench {

namespace net = muerp::net;
namespace sim = muerp::sim;
namespace tel = muerp::support::telemetry;

std::vector<std::string> DaemonConfig::flags(
    const std::string& net_path, std::uint64_t seed,
    const std::string& snapshot_path) const {
  return {"--net",          net_path,
          "--seed",         std::to_string(seed),
          "--port",         "0",
          "--slot-ms",      "0",
          "--slots",        std::to_string(slots),
          "--lanes",        std::to_string(kLanes),
          "--shards",       std::to_string(shards),
          "--batch-single", "true",
          "--min-group",    std::to_string(group),
          "--max-group",    std::to_string(group),
          "--arrival",      json_number(kArrival),
          "--timeout",      std::to_string(kTimeoutSlots),
          "--log-level",    "warn",
          "--snapshot-out", snapshot_path};
}

sim::ShardedSessionServiceConfig DaemonConfig::service_config(
    std::size_t shard_count) const {
  sim::ShardedSessionServiceConfig config;
  config.base.router_options.pin_alg2_sufficient = false;
  config.base.params.arrival_prob_per_slot = kArrival;
  config.base.params.min_group_size = group;
  config.base.params.max_group_size = group;
  config.base.params.session_timeout_slots = kTimeoutSlots;
  config.base.batch_single_arrivals = true;
  config.lane_count = kLanes;
  config.shard_count = shard_count;
  config.record_sessions = true;
  config.record_links = true;
  return config;
}

namespace {

/// The slot chunk muerpd plays per scheduler wake when unpaced.
constexpr std::uint64_t kTickBatch = 64;

struct Counts {
  double arrived = 0, admitted = 0, completed = 0, timed_out = 0;
  double rate_sum = 0;  // sum of admitted tree rates
  friend bool operator==(const Counts& a, const Counts& b) {
    return a.arrived == b.arrived && a.admitted == b.admitted &&
           a.completed == b.completed && a.timed_out == b.timed_out;
  }
};

std::string describe(const Counts& c) {
  char text[160];
  std::snprintf(text, sizeof text,
                "arrived %.0f admitted %.0f completed %.0f timed_out %.0f",
                c.arrived, c.admitted, c.completed, c.timed_out);
  return text;
}

Counts snapshot_counts(const Telemetry& t) {
  return {t.counter("session/arrived"), t.counter("session/admitted"),
          t.counter("session/completed"), t.counter("session/timed_out"),
          t.histogram_sum("session/admitted_rate_ppm") / 1e6};
}

/// An in-process ShardedSessionService run with the daemon's config.
struct Replay {
  sim::ProtocolMetrics metrics;
  sim::ProtocolMetrics lane0;  // lane_metrics(0)
  Counts counts;
  Samples admit_us;
  Samples run_slots_us;  // per run_slots(kTickBatch) call
  double wall_s = 0;
};

Replay replay(const net::QuantumNetwork& network, const DaemonConfig& config,
              std::uint64_t seed, std::size_t shards, std::uint64_t slots,
              const std::function<void(sim::ShardedSessionService&)>& between = {}) {
  sim::ShardedSessionServiceConfig service_config = config.service_config(shards);
  service_config.record_admit_us = true;
  sim::ShardedSessionService service(network, service_config, seed);
  Replay out;
  std::uint64_t busy_ns = 0;
  for (std::uint64_t played = 0; played < slots;) {
    const std::uint64_t n = std::min(kTickBatch, slots - played);
    const std::uint64_t t0 = now_ns();
    const sim::ShardTickReport tick = service.run_slots(n);
    const std::uint64_t t1 = now_ns();
    busy_ns += t1 - t0;
    out.run_slots_us.add(static_cast<double>(t1 - t0) / 1e3);
    out.counts.rate_sum += tick.admitted_rate_sum;
    played += n;
    if (between) between(service);
  }
  out.wall_s = static_cast<double>(busy_ns) / 1e9;
  out.metrics = service.metrics();
  out.lane0 = service.lane_metrics(0);
  out.counts.arrived = static_cast<double>(out.metrics.sessions_arrived);
  out.counts.admitted = static_cast<double>(out.metrics.sessions_admitted);
  out.counts.completed = static_cast<double>(out.metrics.sessions_completed);
  out.counts.timed_out = static_cast<double>(out.metrics.sessions_timed_out);
  for (std::size_t lane = 0; lane < service.lane_count(); ++lane) {
    for (const double us : service.lane_admit_us(lane)) out.admit_us.add(us);
  }
  return out;
}

bool same_metrics(const sim::ProtocolMetrics& a, const sim::ProtocolMetrics& b) {
  return a.sessions_arrived == b.sessions_arrived &&
         a.sessions_admitted == b.sessions_admitted &&
         a.sessions_rejected == b.sessions_rejected &&
         a.sessions_completed == b.sessions_completed &&
         a.sessions_timed_out == b.sessions_timed_out &&
         a.sessions_in_flight == b.sessions_in_flight &&
         a.mean_completion_slots == b.mean_completion_slots &&
         a.mean_qubit_utilization == b.mean_qubit_utilization;
}

bool same_rate(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Lane `lane` of `lanes`: the same capacity slice ShardedSessionService
/// gives it (Q/L, the first Q%L lanes one more).
net::QuantumNetwork lane_network(const net::QuantumNetwork& base,
                                 std::size_t lane, std::size_t lanes) {
  std::vector<net::NodeKind> kinds(base.node_count());
  std::vector<int> qubits(base.node_count());
  const int l = static_cast<int>(lanes);
  for (std::size_t i = 0; i < base.node_count(); ++i) {
    const auto v = static_cast<net::NodeId>(i);
    kinds[i] = base.kind(v);
    const int q = base.qubits(v);
    qubits[i] = base.is_switch(v)
                    ? q / l + (static_cast<int>(lane) < q % l ? 1 : 0)
                    : q;
  }
  return net::QuantumNetwork(
      base.graph(),
      std::vector<muerp::support::Point2D>(base.positions().begin(),
                                           base.positions().end()),
      std::move(kinds), std::move(qubits), base.physical());
}

/// Steps a standalone replica of lane 0 for `slots` slots, timing every
/// step; with `observe` it carries lane 0's recorder and ledger.
struct LaneRun {
  sim::ProtocolMetrics metrics;
  Samples step_us;
  double route_ms = 0;  // batch/route span time inside the steps
};

LaneRun lane0_replica(const net::QuantumNetwork& base,
                      const DaemonConfig& config, std::uint64_t seed,
                      std::uint64_t slots, bool observe) {
  const sim::ShardedSessionServiceConfig sharded = config.service_config(1);
  const net::QuantumNetwork network = lane_network(base, 0, kLanes);
  // With more than one lane, lane l draws from Rng(seed).split(l).
  muerp::support::Rng rng = muerp::support::Rng(seed).split(0);
  std::optional<tel::SessionRecorder> recorder;
  std::optional<tel::LinkLedger> ledger;
  sim::SessionServiceConfig lane_config = sharded.base;
  if (observe) {
    tel::SessionRecorderOptions recorder_options;
    recorder_options.capacity = sharded.recorder_capacity;
    recorder_options.happy_keep_per_1024 = sharded.recorder_happy_keep_per_1024;
    recorder.emplace(recorder_options);
    lane_config.recorder = &*recorder;
    tel::LinkLedgerOptions ledger_options;
    ledger_options.window_slots = sharded.ledger_window_slots;
    ledger_options.event_capacity = sharded.ledger_event_capacity;
    ledger.emplace(sim::ledger_edge_capacity(network),
                   sim::ledger_switch_capacity(network), ledger_options);
    lane_config.ledger = &*ledger;
  }
  sim::SessionService service(network, lane_config, rng);
  LaneRun out;
  const Telemetry before = Telemetry::capture();
  for (std::uint64_t s = 0; s < slots; ++s) {
    const std::uint64_t t0 = now_ns();
    service.step();
    out.step_us.add(static_cast<double>(now_ns() - t0) / 1e3);
  }
  out.route_ms = Telemetry::delta(before, Telemetry::capture())
                     .span_total_ms("batch/route");
  out.metrics = service.metrics();
  return out;
}

double median_of(std::vector<double> values) {
  Samples s;
  for (const double v : values) s.add(v);
  return s.quantile(0.5);
}

}  // namespace

LaunchResult launch_daemon(const Options& options, const DaemonConfig& config,
                           const std::string& net_path, const std::string& tag,
                           ScrapeLog& log, Tracer& tracer, std::uint64_t op,
                           Outcome& out) {
  LaunchResult result;
  const std::string snapshot_path = options.work_dir + "/" + tag + ".snapshot.json";
  std::filesystem::remove(snapshot_path);
  std::vector<std::string> argv = {options.muerpd};
  for (std::string& flag : config.flags(net_path, options.seed, snapshot_path)) {
    argv.push_back(std::move(flag));
  }
  ScopedSpan launch_span(tracer, "daemon.launch", op);
  ChildProcess child;
  std::string error;
  std::string rest;
  const std::uint64_t t0 = now_ns();
  if (!child.spawn(argv, options.work_dir + "/" + tag + ".stderr", &error) ||
      !child.wait_line("muerpd: serving on ", 30'000, &rest, &error)) {
    out.check(false, "muerpd launch " + tag + ": " + error);
    ++out.failed;
    return result;
  }
  const std::uint64_t serving = now_ns();
  const auto port =
      static_cast<std::uint16_t>(std::stoul(rest.substr(rest.rfind(':') + 1)));
  if (!wait_healthy(port, 30'000, &error)) {
    out.check(false, "muerpd " + tag + " never became healthy: " + error);
    ++out.failed;
    return result;
  }
  const std::uint64_t ready = now_ns();
  tracer.record("daemon.setup", op, t0, ready);
  const std::size_t first_request = log.requests.size();
  scrape_open_loop(
      port, ready, log, [&] { return child.poll_exit(); },
      [&] { return child.wait_exit(500); });
  if (!child.wait_exit(60'000)) {
    out.check(false, "muerpd " + tag + " did not exit after its slots");
    ++out.failed;
    return result;
  }
  for (std::size_t i = first_request; i < log.requests.size(); ++i) {
    const ScrapeLog::Request& r = log.requests[i];
    tracer.record("http." + log.routes[r.route].substr(0, log.routes[r.route].find('?')),
                  op, r.due_ns, r.done_ns);
  }
  tracer.record("daemon.drain", op, serving, child.exit_ns());
  std::string text;
  if (child.exit_code() != 0 || !read_file(snapshot_path, &text) ||
      !Telemetry::from_snapshot_document(text, &result.snapshot)) {
    out.check(false, "muerpd " + tag + " exited " +
                         std::to_string(child.exit_code()) +
                         " without a readable snapshot");
    ++out.failed;
    return result;
  }
  tracer.set_counters(launch_span.index(), result.snapshot.counters());
  result.ok = true;
  result.setup_s = static_cast<double>(ready - t0) / 1e9;
  result.drain_s = static_cast<double>(child.exit_ns() - serving) / 1e9;
  result.cpu_ms = child.cpu_ms();
  result.rss_mb = child.peak_rss_mb();
  return result;
}

void batch_layer_metrics(const Telemetry& t, double sessions, JsonObject& layer) {
  const double per = std::max(1.0, sessions);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  set_metric(layer, "batch.route_self_us_per_op", t.span_self_ms("batch/route") * 1e3 / per,
             "us");
  set_metric(layer, "batch.grow_us_per_op", t.span_total_ms("batch/grow") * 1e3 / per, "us");
  set_metric(layer, "batch.contention_us_per_op",
             t.span_total_ms("batch/contention") * 1e3 / per, "us");
  set_metric(layer, "batch.dijkstra_runs_per_op", t.counter("batch/dijkstra_runs") / per,
             "count");
  const double hits = t.counter("batch/tree_cache_hits");
  set_metric(layer, "batch.tree_cache_hit_ratio",
             ratio(hits, hits + t.counter("batch/dijkstra_runs")), "ratio");
  set_metric(layer, "batch.deferred_ratio",
             ratio(t.counter("batch/deferred"), t.counter("batch/groups")), "ratio");
}

Telemetry session_plane_probe(const net::QuantumNetwork& network,
                              const DaemonConfig& config, std::uint64_t seed,
                              std::uint64_t slots, double daemon_sessions_per_s,
                              JsonObject& layer, Outcome& out) {
  // N shards, with the telemetry reads a scrape makes taken between
  // dispatches (outside the timed run_slots calls).
  Samples capture_us, openmetrics_us, openmetrics_bytes, link_stats_us,
      session_records_us;
  const Telemetry before = Telemetry::capture();
  const Replay wide = replay(
      network, config, seed, config.shards, slots,
      [&](sim::ShardedSessionService& service) {
        std::uint64_t t0 = now_ns();
        const tel::Snapshot snapshot = tel::capture_process();
        std::uint64_t t1 = now_ns();
        const std::string page = tel::to_openmetrics(snapshot);
        std::uint64_t t2 = now_ns();
        capture_us.add(static_cast<double>(t1 - t0) / 1e3);
        openmetrics_us.add(static_cast<double>(t2 - t1) / 1e3);
        openmetrics_bytes.add(static_cast<double>(page.size()));
        t0 = now_ns();
        std::vector<tel::LinkStat> stats = service.link_stats();
        tel::sort_links(stats, tel::LinkSort::kUtil, 10);
        const std::string links = tel::links_json(stats, service.slot());
        t1 = now_ns();
        tel::SessionFilter filter;
        filter.limit = 100;
        const std::string sessions = tel::session_records_json(
            service.session_records(filter), service.session_record_stats());
        t2 = now_ns();
        link_stats_us.add(static_cast<double>(t1 - t0) / 1e3);
        session_records_us.add(static_cast<double>(t2 - t1) / 1e3);
        out.check(!links.empty() && !sessions.empty(), "empty telemetry documents");
      });
  const Telemetry wide_delta = Telemetry::delta(before, Telemetry::capture());
  const Replay narrow = replay(network, config, seed, 1, slots);
  out.check(same_metrics(wide.metrics, narrow.metrics),
            "in-process metrics differ between 1 and " +
                std::to_string(config.shards) + " shards");

  // Lane 0 on its own, with and without its recorder and ledger.
  const LaneRun observed = lane0_replica(network, config, seed, slots, true);
  const LaneRun bare = lane0_replica(network, config, seed, slots, false);
  out.check(same_metrics(observed.metrics, narrow.lane0),
            "lane-0 replica differs from lane_metrics(0)");
  out.check(same_metrics(bare.metrics, narrow.lane0),
            "lane-0 replica without recorder/ledger differs from lane_metrics(0)");

  const double steps = static_cast<double>(std::max<std::uint64_t>(1, slots));
  const double observed_us = observed.step_us.mean() * steps;
  set_metric(layer, "simulation.step_us_p50", observed.step_us.quantile(0.5), "us");
  set_metric(layer, "simulation.step_us_p99", observed.step_us.quantile(0.99), "us");
  set_metric(layer, "simulation.step_self_us",
             (observed_us - observed.route_ms * 1e3) / steps, "us");
  set_metric(layer, "simulation.observability_cost_ratio",
             observed_us / std::max(1e-9, bare.step_us.mean() * steps), "ratio");
  set_metric(layer, "simulation.admit_us_p50", wide.admit_us.quantile(0.5), "us");
  set_metric(layer, "simulation.admit_us_p99", wide.admit_us.quantile(0.99), "us");
  set_metric(layer, "simulation.run_slots_us_p50", wide.run_slots_us.quantile(0.5), "us");
  set_metric(layer, "simulation.parallel_efficiency",
             narrow.wall_s / (static_cast<double>(config.shards) * wide.wall_s), "ratio");
  const double inprocess = wide.counts.arrived / std::max(1e-9, wide.wall_s);
  set_metric(layer, "simulation.inprocess_sessions_per_s", inprocess, "1/s");
  set_metric(layer, "daemon.gap_ratio", inprocess / std::max(1e-9, daemon_sessions_per_s),
             "ratio");
  set_metric(layer, "telemetry.capture_us", capture_us.quantile(0.5), "us");
  set_metric(layer, "telemetry.openmetrics_us", openmetrics_us.quantile(0.5), "us");
  set_metric(layer, "telemetry.openmetrics_bytes", openmetrics_bytes.quantile(0.5), "bytes");
  set_metric(layer, "telemetry.link_stats_us", link_stats_us.quantile(0.5), "us");
  set_metric(layer, "telemetry.session_records_us", session_records_us.quantile(0.5), "us");
  return wide_delta;
}

// ---------------------------------------------------------------------------

namespace {

struct SessionWorkload {
  DaemonConfig daemon;
  std::size_t networks = 1;    // distinct networks per run
  /// Networks whose replica runs on one worker and times its admissions
  /// for route_us; as many as a few seconds of one-worker replay allow.
  std::size_t latency_networks = 1;
  std::uint64_t probe_slots = 0;  // traced-run in-process probes
};

SessionWorkload session_workload(const Options& options) {
  SessionWorkload w;
  if (options.workload == "groups10_drain") {
    w.daemon.group = 10;
    w.daemon.shards = std::min(4u, options.nproc);
    w.daemon.slots = 400;
    w.networks = 24;
    w.latency_networks = 8;
    w.probe_slots = 640;
  } else {
    w.daemon.group = 2;
    w.daemon.shards = std::max(1u, options.nproc - 1);
    w.daemon.slots = 8000;
    w.networks = 24;
    w.latency_networks = 24;
    w.probe_slots = 12800;
  }
  return w;
}

/// The generated network of a session workload: Waxman, 100 switches,
/// 128 users, Q = 128, muerpd's generated-network defaults otherwise.
muerp::experiment::Scenario session_scenario(std::uint64_t seed) {
  muerp::experiment::Scenario s;
  s.switch_count = 100;
  s.user_count = 128;
  s.qubits_per_switch = 128;
  s.attenuation = 2e-5;
  s.seed = seed;
  return s;
}

struct PassResult {
  EndToEnd e2e;
  Telemetry first_pass;  // summed snapshots of the first pass
  std::vector<Counts> counts;
  ScrapeLog log{daemon_routes(), kScrapeHz};
};

PassResult daemon_pass(const Options& options, const SessionWorkload& w,
                       const std::vector<std::string>& net_paths,
                       Tracer& tracer, Outcome& out) {
  PassResult pass;
  pass.log.keep_requests = tracer.enabled();
  // Rates and CPU are medians over launches, which resist the host's
  // transient stalls.
  std::vector<double> setup, rss, session_rate, route_rate, cpu_per_session;
  double arrived = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t j = 0;; ++j) {
    if (j >= net_paths.size() &&
        static_cast<double>(now_ns() - start) / 1e9 >= options.seconds) {
      break;
    }
    const std::size_t k = j % net_paths.size();
    const LaunchResult r =
        launch_daemon(options, w.daemon, net_paths[k],
                      options.workload + "-n" + std::to_string(k), pass.log,
                      tracer, j, out);
    ++out.attempted;
    if (!r.ok) return pass;
    const Counts c = snapshot_counts(r.snapshot);
    if (j < net_paths.size()) {
      pass.counts.push_back(c);
      pass.first_pass.add(r.snapshot);
    } else {
      out.check(c == pass.counts[k] && same_rate(c.rate_sum, pass.counts[k].rate_sum),
                "relaunch on network " + std::to_string(k) +
                    " changed its counts: " + describe(c) + " vs " +
                    describe(pass.counts[k]));
    }
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mb);
    session_rate.push_back(c.arrived / r.drain_s);
    route_rate.push_back(r.snapshot.counter("batch/groups") / r.drain_s);
    cpu_per_session.push_back(r.cpu_ms / c.arrived);
    arrived += c.arrived;
    out.attempted += static_cast<std::uint64_t>(c.arrived);
  }
  out.attempted += pass.log.attempted;
  out.failed += pass.log.failed;
  EndToEnd& e = pass.e2e;
  e.setup_s = median_of(setup);
  e.sessions_per_s = median_of(session_rate);
  e.routes_per_s = median_of(route_rate);
  e.ops_per_s = e.sessions_per_s;
  Counts total;
  for (const Counts& c : pass.counts) {
    total.arrived += c.arrived;
    total.admitted += c.admitted;
    total.rate_sum += c.rate_sum;
  }
  e.success_ratio = total.admitted / total.arrived;
  e.mean_tree_rate = total.rate_sum / total.admitted;
  scrape_metrics(pass.log, e);
  e.cpu_ms_per_op = median_of(cpu_per_session);
  e.rss_mb = median_of(rss);
  out.info.set("launches", static_cast<double>(setup.size()));
  out.info.set("sessions_measured", arrived);
  return pass;
}

}  // namespace

void run_session_workload(const Options& options, Outcome& out) {
  const SessionWorkload w = session_workload(options);
  out.info.set("daemon_flags", [&] {
    std::string flags;
    for (const std::string& f : w.daemon.flags("<net>", options.seed, "<snapshot>")) {
      flags += (flags.empty() ? "" : " ") + f;
    }
    return flags;
  }());
  out.info.set("networks", static_cast<double>(w.networks));

  // Inputs: one generated network file per network index.
  std::vector<std::string> net_paths;
  std::vector<net::QuantumNetwork> networks;
  Samples generate_us;
  for (std::size_t k = 0; k < w.networks; ++k) {
    const std::uint64_t t0 = now_ns();
    muerp::experiment::Instance instance =
        muerp::experiment::instantiate(session_scenario(options.seed), k);
    generate_us.add(static_cast<double>(now_ns() - t0) / 1e3);
    const std::string path = options.work_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-n" +
                             std::to_string(k) + ".net";
    out.check(net::save_network_file(instance.network, path), "cannot write " + path);
    // The replica routes on the file the daemon loads, not on the
    // generator's object.
    auto loaded = net::load_network_file(path);
    if (!std::holds_alternative<net::QuantumNetwork>(loaded)) {
      out.check(false, "cannot reload " + path);
      return;
    }
    networks.push_back(std::move(std::get<net::QuantumNetwork>(loaded)));
    net_paths.push_back(path);
  }

  Tracer untraced;
  PassResult pass = daemon_pass(options, w, net_paths, untraced, out);
  if (!out.correct) return;

  // Output checks: every first-pass launch against an in-process replica
  // with the same network, seed and config; network 0 also at the daemon's
  // shard count, which must not change the merged metrics. The first
  // latency_networks replicas run on one worker and give route_us: per
  // network quantiles of the admission latency, then the median over
  // networks, free of the preemption a fully subscribed host adds to the
  // tail.
  std::vector<double> route_p50, route_p99;
  std::size_t route_samples = 0;
  for (std::size_t k = 0; k < networks.size(); ++k) {
    const bool timed = k < w.latency_networks;
    const Replay r = replay(networks[k], w.daemon, options.seed,
                            timed ? 1 : w.daemon.shards, w.daemon.slots);
    out.check(r.counts == pass.counts[k] && same_rate(r.counts.rate_sum, pass.counts[k].rate_sum),
              "network " + std::to_string(k) + ": daemon " + describe(pass.counts[k]) +
                  " vs in-process " + describe(r.counts));
    if (timed) {
      route_p50.push_back(r.admit_us.quantile(0.5));
      route_p99.push_back(r.admit_us.quantile(0.99));
      route_samples += r.admit_us.count();
    }
    if (k == 0) {
      const Replay wide = replay(networks[k], w.daemon, options.seed, w.daemon.shards,
                                 w.daemon.slots);
      out.check(same_metrics(wide.metrics, r.metrics),
                "in-process metrics differ between 1 and " +
                    std::to_string(w.daemon.shards) + " shards");
    }
  }
  pass.e2e.route_us_p50 = median_of(route_p50);
  pass.e2e.route_us_p99 = median_of(route_p99);
  out.info.set("route_samples", static_cast<double>(route_samples));
  if (!check_scrape_validity(pass.log, out)) {
    out.invalid = "scraper lag exceeded its bound";
  }

  if (!options.trace) {
    pass.e2e.write(out.metrics);
    return;
  }

  // Traced run: the same launches with spans, then the layer probes.
  Tracer tracer;
  tracer.set_enabled(true);
  const PassResult traced = daemon_pass(options, w, net_paths, tracer, out);
  JsonObject untraced_e2e, traced_e2e;
  pass.e2e.write(untraced_e2e);
  EndToEnd t = traced.e2e;
  t.route_us_p50 = pass.e2e.route_us_p50;
  t.route_us_p99 = pass.e2e.route_us_p99;
  t.write(traced_e2e);
  out.info.set_raw("untraced", untraced_e2e.str());
  out.info.set_raw("traced", traced_e2e.str());

  JsonObject& layer = out.metrics;
  // Offline routing of this workload's group shape on network 0.
  const std::size_t group = w.daemon.group;
  const net::QuantumNetwork& base = networks[0];
  const auto source = [&](std::size_t i) {
    muerp::support::Rng rng = muerp::support::Rng(options.seed).split(1000 + i);
    std::vector<net::NodeId> users(base.users().begin(), base.users().end());
    rng.shuffle(users);
    users.resize(group);
    std::sort(users.begin(), users.end());
    return muerp::experiment::Instance{base, std::move(users), rng};
  };
  const OfflineStats offline =
      offline_pass(source, 100, std::min(2.0, options.seconds / 4), tracer, out);
  offline_layer_metrics(offline, layer);
  set_metric(layer, "topology.generate_us_p50", generate_us.quantile(0.5), "us");
  const Telemetry& d = traced.first_pass;
  const double sessions = std::max(1.0, d.counter("session/arrived"));
  graph_layer_metrics(d, sessions, layer);
  batch_layer_metrics(d, sessions, layer);
  session_plane_probe(base, w.daemon, options.seed, w.probe_slots,
                      pass.e2e.sessions_per_s, layer, out);
  http_layer_metrics(traced.log, layer);
  set_metric(layer, "trace.throughput_overhead_ratio",
             pass.e2e.ops_per_s / std::max(1e-9, t.ops_per_s), "ratio");
  set_metric(layer, "trace.cpu_overhead_ratio",
             t.cpu_ms_per_op / std::max(1e-12, pass.e2e.cpu_ms_per_op), "ratio");
  const std::string trace_path = options.work_dir + "/" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".trace.json";
  out.check(tracer.write(trace_path), "cannot write " + trace_path);
  out.info.set("trace_file", trace_path);
  out.info.set("trace_spans", static_cast<double>(tracer.size()));
}

}  // namespace muerpbench
