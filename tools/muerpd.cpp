// muerpd — long-running entanglement routing service with a live
// observability and control plane.
//
// Wraps sim::ShardedSessionService (arrivals -> admission routing ->
// execution windows, partitioned into deterministic lanes stepped by up to
// --shards worker threads) in an event-driven slot loop and exposes the
// full telemetry registry over HTTP while it runs:
//
//   GET  /metrics        Prometheus text exposition (scrape target)
//   GET  /healthz        liveness JSON with slot/session/admission state
//   GET  /snapshot.json  metrics + recent structured log events
//   GET  /api/v1/range   windowed time-series queries (rates / levels /
//                        exact per-window quantiles) against the sampler's
//                        history ring — what tools/muerptop renders
//   GET  /api/v1/metrics names the history ring has data for
//   GET  /api/v1/sessions       per-session flight records (tail-sampled),
//                        filterable with ?state=&lane=&alg=&min-slot=&
//                        max-slot=&limit=
//   GET  /api/v1/session/<id>   one full flight record; ?format=trace
//                        renders it as a Chrome trace-event document
//   GET  /api/v1/alerts  the SLO alert-rule table with live firing state
//   GET  /api/v1/topology       the served network (nodes, fibers, static
//                        attributes) joined with the link ledger's live
//                        occupancy per edge and per switch
//   GET  /api/v1/links   per-link utilization / attempts / contention-loss
//                        table, ?sort=util|losses&limit=N (the hot-links
//                        view muerptop renders)
//   GET  /api/v1/explain/<id>   one flight record joined with the links of
//                        its lane that were saturated at its admission
//                        slot — "why was THIS session rejected"
//   GET  /api/v1/topology.svg   live heatmap: the network rendered with
//                        every fiber stroked on the green→amber→red ramp
//                        by its current utilization
//   (sessions, session, alerts, topology, links and explain are the
//   read-only ctl verbs of the same names — alerts is `slo` list — served
//   through one adapter: same documents, same argument checks; 400 for a
//   bad argument, 404 for an unknown session, {"error": ...} bodies)
//   POST /api/v1/ctl     the versioned command API ({"cmd","args"} in, a
//                        uniform {"ok",...} envelope out) — what
//                        `muerpctl ctl <verb>` speaks. Verbs: set/get for
//                        arrival-rate, algorithm, arrival-burst,
//                        batch-policy, log-level, log-rate,
//                        sample-interval-ms; lifecycle pause / resume /
//                        drain / snapshot / status; sessions / session
//                        query the flight recorder; slo lists/edits alert
//                        rules; `commands` lists the table with schemas.
//                        With --ctl-token the route requires a matching
//                        `Authorization: Bearer` header (401 otherwise).
//
// Control commands are applied at tick boundaries only: the HTTP acceptor
// thread parks each mutation in a ControlMailbox, the slot loop drains the
// mailbox between scheduler batches (a kick() wakes a blocked wait), so a
// setter never races a routing pass and determinism is preserved — a
// paused-then-resumed daemon with unchanged config plays the same slot
// trajectory as one that never paused (tests assert bit-identity).
//
// With --history <file> the daemon keeps an append-only, CRC-framed
// session-history table: counter deltas appended every ~250 ms and a
// run-start marker per boot, replayed (and any torn tail truncated) on
// start — so a killed-and-restarted daemon answers `ctl get lifetime` with
// counts spanning every run against that file.
//
// A background Sampler captures the whole registry every
// --sample-interval-ms into a TimeSeriesStore holding --retention samples
// (default 600 x 1 s = the last 10 minutes, delta-encoded).
//
// Examples:
//   muerpd --port 9464                       # paper-default Waxman network
//   muerpd --net n.txt --algorithm alg3      # serve a saved network
//   muerpd --slots 20000 --slot-ms 0         # finite, unpaced (benchmarks)
//   muerpd --history muerpd.hist             # durable lifetime counters
//   muerpctl ctl set arrival-rate 0.2        # live retune
//   muerpctl ctl drain                       # stop intake, finish, exit
//
// The daemon prints "serving on <addr>:<port>" once the endpoint is up
// (port 0 binds an ephemeral port — tests parse the line), then plays
// execution windows on a fixed --slot-ms grid until --slots windows
// elapsed, SIGINT/SIGTERM, or `ctl drain`. Pacing is event-driven
// (SlotScheduler): the loop blocks until the next slot is due and, when a
// slow routing pass put it behind the grid, catches up by playing the
// backlog as one batch (at most --tick-batch slots per wake). While paused
// the loop keeps advancing the deadline grid without playing slots, so
// resuming never triggers a catch-up burst. /healthz reads a published
// atomic snapshot (including the running/paused/draining state), so
// scrapes never wait for a routing pass.
//
// The first signal shuts down gracefully: arrivals stop and in-flight
// sessions drain (completed or timed out, unpaced) before the final
// muerpd/shutdown event; a second signal skips the drain. With
// --snapshot-out the exiting daemon writes one last /snapshot.json
// document to that path. Exit prints the ProtocolMetrics summary table.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "muerp.hpp"

namespace {

using namespace muerp;
namespace json = support::json;

// Counts delivered stop signals: 1 = graceful (drain in-flight sessions),
// 2+ = immediate (skip the drain too).
volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = g_stop + 1; }

int fail(const std::string& message) {
  std::cerr << "muerpd: " << message << '\n';
  return 1;
}

/// Slot-loop lifecycle, readable by the acceptor thread for /healthz.
enum class RunState : int { kRunning = 0, kPaused = 1, kDraining = 2 };

const char* run_state_name(RunState state) {
  switch (state) {
    case RunState::kRunning:
      return "running";
    case RunState::kPaused:
      return "paused";
    case RunState::kDraining:
      return "draining";
  }
  return "?";
}

/// The GET /api/v1/topology document: the served network's static shape
/// (node kinds, positions, qubit budgets, fiber endpoints and lengths)
/// joined with the link ledger's live per-edge / per-switch occupancy.
/// `links` is ShardedSessionService::link_stats() — empty (OFF build, or
/// --record-links false) degrades to the static topology with zeroed
/// occupancy, still a valid document.
std::string topology_json(
    const net::QuantumNetwork& network,
    const std::vector<support::telemetry::LinkStat>& links,
    std::uint64_t slot) {
  namespace tel = support::telemetry;
  const auto edges = network.graph().edges();
  std::string out = "{\"slot\": " + std::to_string(slot);
  out += ", \"nodes\": [";
  for (net::NodeId v = 0; v < network.node_count(); ++v) {
    if (v > 0) out += ", ";
    out += "{\"id\": " + std::to_string(v);
    out += ", \"kind\": \"";
    out += network.is_user(v) ? "user" : "switch";
    out += "\", \"x\": " + json::number(network.positions()[v].x);
    out += ", \"y\": " + json::number(network.positions()[v].y);
    if (network.is_switch(v)) {
      out += ", \"qubits\": " + std::to_string(network.qubits(v));
    }
    out += "}";
  }
  out += "], \"edges\": [";
  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    const auto& edge = edges[e];
    if (e > 0) out += ", ";
    const tel::LinkStat* live =
        e < links.size() && links[e].kind == tel::LinkKind::kEdge ? &links[e]
                                                                  : nullptr;
    out += "{\"id\": " + std::to_string(e);
    out += ", \"a\": " + std::to_string(edge.a);
    out += ", \"b\": " + std::to_string(edge.b);
    out += ", \"length_km\": " + json::number(edge.length_km);
    out += ", \"capacity\": " + std::to_string(live ? live->capacity : 0);
    out += ", \"held\": " + std::to_string(live ? live->held : 0);
    out += ", \"utilization\": " +
           json::number(live ? live->utilization : 0.0);
    out += "}";
  }
  out += "], \"switches\": [";
  const auto switch_ids = network.switches();
  for (std::size_t s = 0; s < switch_ids.size(); ++s) {
    if (s > 0) out += ", ";
    const std::size_t flat = edges.size() + s;
    const tel::LinkStat* live =
        flat < links.size() && links[flat].kind == tel::LinkKind::kSwitch
            ? &links[flat]
            : nullptr;
    out += "{\"node\": " + std::to_string(switch_ids[s]);
    out += ", \"capacity\": " +
           std::to_string(live ? live->capacity
                               : network.qubits(switch_ids[s]));
    out += ", \"held\": " + std::to_string(live ? live->held : 0);
    out += ", \"utilization\": " +
           json::number(live ? live->utilization : 0.0);
    out += "}";
  }
  out += "]}\n";
  return out;
}

/// A read-only GET page served by the ctl verb that renders the same
/// document. Only `query_keys` are forwarded as args (others are ignored);
/// a prefix route passes its path tail as `path_arg`; `fixed_args` are set
/// by the route and cannot be overridden from the query.
struct VerbPage {
  const char* path;  // exact path, or a prefix when path_arg is set
  const char* verb;
  std::vector<std::string> query_keys;
  const char* path_arg = nullptr;
  std::vector<std::pair<std::string, std::string>> fixed_args;
};

const VerbPage kVerbPages[] = {
    {"/api/v1/sessions",
     "sessions",
     {"state", "lane", "alg", "min-slot", "max-slot", "limit"},
     nullptr,
     {}},
    {"/api/v1/session/", "session", {"format"}, "id", {}},
    {"/api/v1/alerts", "slo", {}, nullptr, {{"action", "list"}}},
    {"/api/v1/topology", "topology", {}, nullptr, {}},
    {"/api/v1/links", "links", {"sort", "limit"}, nullptr, {}},
    {"/api/v1/explain/", "explain", {}, "id", {}},
};

/// Runs `page`'s verb on the request: each non-empty value becomes the arg
/// type its ArgSpec declares (text that is not a finite number stays a
/// string, so the registry's schema check rejects it), and the ctl result
/// maps to HTTP — ok 200 with the verb's document, not_found 404,
/// bad_arg / out_of_range 400, anything else 500 — with every error body
/// {"error": <message>}.
std::string serve_verb_page(const ctl::CommandRegistry& registry,
                            const VerbPage& page,
                            const support::telemetry::HttpRequest& request) {
  using support::telemetry::HttpExporter;
  const ctl::CommandSpec* spec = registry.find(page.verb);
  json::Value args;
  args.kind = json::Value::Kind::kObject;
  const auto add_arg = [&](const std::string& name, const std::string& text) {
    if (text.empty()) return;
    json::Value value;
    value.kind = json::Value::Kind::kString;
    value.string_value = text;
    const bool numeric =
        spec != nullptr &&
        std::any_of(spec->args.begin(), spec->args.end(),
                    [&name](const ctl::ArgSpec& a) {
                      return a.name == name &&
                             (a.type == ctl::ArgType::kInt ||
                              a.type == ctl::ArgType::kNumber);
                    });
    double number = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), number);
    if (numeric && ec == std::errc() && end == text.data() + text.size() &&
        std::isfinite(number)) {
      value.kind = json::Value::Kind::kNumber;
      value.number_value = number;
    }
    args.members.emplace_back(name, std::move(value));
  };
  for (const std::string& key : page.query_keys) {
    add_arg(key, support::telemetry::http_query_param(request.query, key));
  }
  if (page.path_arg != nullptr) {
    add_arg(page.path_arg,
            request.path.substr(std::string_view(page.path).size()));
  }
  for (const auto& [name, value] : page.fixed_args) add_arg(name, value);

  const ctl::CommandResult result = registry.run(page.verb, args);
  if (result.ok) {
    std::string body = result.result_json;
    if (body.empty() || body.back() != '\n') body += '\n';
    return HttpExporter::response(200, "application/json", body);
  }
  int status = 500;
  if (result.code == ctl::kErrNotFound) {
    status = 404;
  } else if (result.code == ctl::kErrBadArg ||
             result.code == ctl::kErrOutOfRange) {
    status = 400;
  }
  return HttpExporter::response(
      status, "application/json",
      "{\"error\": " + json::quote(result.message) + "}\n");
}

/// One row of the daemon's settings table: what `ctl set`/`ctl get`
/// dispatch on. Accessors run on the loop thread (inside a mailbox
/// action), so they may touch the session service freely.
struct Setting {
  std::string name;
  std::string summary;
  std::function<std::string()> get;  // current value as a JSON document
  /// Applies a validated-by-type value; null marks a read-only row.
  std::function<ctl::CommandResult(const support::json::Value&)> set;
};

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "muerpd — entanglement routing session service with /metrics");
  cli.add_flag("net", "network file (else generate from scenario flags)", "");
  cli.add_flag("topology", "waxman|ws|volchenkov (generated)", "waxman");
  cli.add_flag("switches", "switch count (generated)", "50");
  cli.add_flag("users", "user count (generated)", "10");
  cli.add_flag("qubits", "qubits per switch (generated)", "6");
  cli.add_flag("degree", "average degree (generated)", "6");
  cli.add_flag("alpha", "fiber attenuation 1/km (generated)", "2e-5");
  cli.add_flag("swap", "BSM success probability (generated)", "0.9");
  cli.add_flag("seed", "random seed (network + arrivals)", "1");
  cli.add_flag("algorithm",
               "admission router: shared-prim or a registry name", "");
  cli.add_flag("arrival", "session arrival probability per slot", "0.05");
  cli.add_flag("arrival-burst",
               "arrival attempts per slot; >1 admits each slot's arrivals "
               "as one batch through the routing kernel",
               "1");
  cli.add_flag("batch-policy",
               "burst admission order: given-order|smallest-first|"
               "largest-first|greedy|fair-share",
               "given-order");
  cli.add_flag("min-group", "smallest session group size", "2");
  cli.add_flag("max-group", "largest session group size", "4");
  cli.add_flag("timeout", "session timeout in slots", "500");
  cli.add_flag("batch-single",
               "route single arrivals through the persistent batch kernel "
               "(bit-identical admissions, warm slabs across slots)",
               "false");
  cli.add_flag("lanes",
               "deterministic session lanes (traffic/capacity partitions; "
               "results depend on this, not on --shards)",
               "1");
  cli.add_flag("shards",
               "worker threads stepping the lanes (performance only)", "1");
  cli.add_flag("tick-batch",
               "max due slots played per scheduler wake when catching up",
               "64");
  cli.add_flag("slots", "stop after this many slots (0 = until signal)", "0");
  cli.add_flag("slot-ms", "pacing: milliseconds per slot (0 = unpaced)", "10");
  cli.add_flag("port", "HTTP port (0 = ephemeral)", "9464");
  cli.add_flag("bind", "HTTP bind address", "127.0.0.1");
  cli.add_flag("log-level", "debug|info|warn|error|off", "info");
  cli.add_flag("log-format", "text|json", "text");
  cli.add_flag("log-rate",
               "per-session log events per second (0 = unlimited)", "0");
  cli.add_flag("sample-interval-ms",
               "time-series sampling period for /api/v1/range", "1000");
  cli.add_flag("retention",
               "time-series samples kept (retention = this x interval)",
               "600");
  cli.add_flag("history",
               "append-only session-history file (crash-safe; replayed on "
               "start for `ctl get lifetime`)",
               "");
  cli.add_flag("snapshot-out",
               "write a final /snapshot.json document here on exit", "");
  cli.add_flag("ctl-token",
               "bearer token required on POST /api/v1/ctl (empty = open)", "");
  cli.add_flag("record-sessions",
               "per-session flight recorder with tail sampling", "true");
  cli.add_flag("recorder-capacity",
               "finalized flight records retained per lane", "512");
  cli.add_flag("recorder-keep",
               "happy-path completions kept per 1024 hash draws (the tail — "
               "rejected/timed-out/drained/slow — is always kept)",
               "128");
  cli.add_flag("record-links",
               "per-link utilization ledger behind /api/v1/topology, "
               "/api/v1/links and /api/v1/explain",
               "true");
  cli.add_flag("link-window",
               "tumbling-window width in slots for windowed link utilization",
               "64");
  cli.add_flag("link-events",
               "saturation-transition events retained per lane ledger",
               "4096");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  // Observability knobs first, so network construction already logs.
  support::telemetry::LogLevel level;
  if (!support::telemetry::parse_log_level(cli.get_string("log-level"),
                                           &level)) {
    return fail("unknown --log-level '" + cli.get_string("log-level") +
                "' (debug|info|warn|error|off)");
  }
  support::telemetry::set_log_level(level);
  support::telemetry::LogFormat format;
  if (!support::telemetry::parse_log_format(cli.get_string("log-format"),
                                            &format)) {
    return fail("unknown --log-format '" + cli.get_string("log-format") +
                "' (text|json)");
  }
  support::telemetry::set_log_format(format);

  // The served network: a file, or a scenario-generated instance.
  std::optional<net::QuantumNetwork> network;
  if (const std::string path = cli.get_string("net"); !path.empty()) {
    auto result = net::load_network_file(path);
    if (std::holds_alternative<std::string>(result)) {
      return fail("cannot load " + path + ": " +
                  std::get<std::string>(result));
    }
    network = std::move(std::get<net::QuantumNetwork>(result));
  } else {
    experiment::Scenario s;
    const std::string kind = cli.get_string("topology");
    if (kind == "waxman") {
      s.topology = experiment::TopologyKind::kWaxman;
    } else if (kind == "ws") {
      s.topology = experiment::TopologyKind::kWattsStrogatz;
    } else if (kind == "volchenkov") {
      s.topology = experiment::TopologyKind::kVolchenkov;
    } else {
      return fail("unknown --topology '" + kind + "' (waxman|ws|volchenkov)");
    }
    s.switch_count =
        static_cast<std::size_t>(cli.get_int("switches").value_or(50));
    s.user_count = static_cast<std::size_t>(cli.get_int("users").value_or(10));
    s.qubits_per_switch = static_cast<int>(cli.get_int("qubits").value_or(6));
    s.average_degree = cli.get_double("degree").value_or(6.0);
    s.attenuation = cli.get_double("alpha").value_or(2e-5);
    s.swap_success = cli.get_double("swap").value_or(0.9);
    s.seed = static_cast<std::uint64_t>(cli.get_int("seed").value_or(1));
    network = std::move(experiment::instantiate(s, 0).network);
  }

  sim::SessionServiceConfig config;
  config.algorithm = cli.get_string("algorithm");
  if (config.algorithm == sim::kSharedPrimAlgorithm) config.algorithm.clear();
  // Registry admission routes on a residual-capacity copy; Algorithm 2's
  // sufficient-condition boost would fake qubits the service doesn't have.
  config.router_options.pin_alg2_sufficient = false;
  config.params.arrival_prob_per_slot = cli.get_double("arrival").value_or(0.05);
  config.params.min_group_size =
      static_cast<std::size_t>(cli.get_int("min-group").value_or(2));
  config.params.max_group_size =
      static_cast<std::size_t>(cli.get_int("max-group").value_or(4));
  config.params.session_timeout_slots =
      static_cast<std::uint64_t>(cli.get_int("timeout").value_or(500));
  if (config.params.min_group_size < 2 ||
      config.params.max_group_size < config.params.min_group_size ||
      config.params.max_group_size > network->users().size()) {
    return fail("group sizes must satisfy 2 <= min <= max <= user count (" +
                std::to_string(network->users().size()) + ")");
  }
  config.log_events_per_second = cli.get_double("log-rate").value_or(0.0);
  const auto arrival_burst = cli.get_int("arrival-burst").value_or(1);
  if (arrival_burst < 1) return fail("--arrival-burst must be >= 1");
  config.arrival_burst = static_cast<std::size_t>(arrival_burst);
  if (!routing::parse_batch_policy(cli.get_string("batch-policy"),
                                   &config.batch_policy)) {
    return fail("unknown --batch-policy '" + cli.get_string("batch-policy") +
                "' (given-order|smallest-first|largest-first|greedy|"
                "fair-share)");
  }
  config.batch_single_arrivals = cli.get_bool("batch-single");
  const auto lanes = cli.get_int("lanes").value_or(1);
  const auto shards = cli.get_int("shards").value_or(1);
  const auto tick_batch = cli.get_int("tick-batch").value_or(64);
  if (lanes < 1) return fail("--lanes must be >= 1");
  if (shards < 1) return fail("--shards must be >= 1");
  if (tick_batch < 1) return fail("--tick-batch must be >= 1");
  const auto max_slots =
      static_cast<std::uint64_t>(cli.get_int("slots").value_or(0));
  const auto slot_ms = cli.get_int("slot-ms").value_or(10);
  const auto sample_interval_ms =
      cli.get_int("sample-interval-ms").value_or(1000);
  const auto retention = cli.get_int("retention").value_or(600);
  if (sample_interval_ms <= 0) return fail("--sample-interval-ms must be > 0");
  if (retention < 2) return fail("--retention must be >= 2");
  const std::string snapshot_out = cli.get_string("snapshot-out");
  const std::string ctl_token = cli.get_string("ctl-token");
  const auto recorder_capacity =
      cli.get_int("recorder-capacity").value_or(512);
  const auto recorder_keep = cli.get_int("recorder-keep").value_or(128);
  if (recorder_capacity < 1) return fail("--recorder-capacity must be >= 1");
  if (recorder_keep < 0 || recorder_keep > 1024) {
    return fail("--recorder-keep must be in [0, 1024]");
  }
  const bool record_links = cli.get_bool("record-links");
  const auto link_window = cli.get_int("link-window").value_or(64);
  const auto link_events = cli.get_int("link-events").value_or(4096);
  if (link_window < 1) return fail("--link-window must be >= 1");
  if (link_events < 1) return fail("--link-events must be >= 1");

  sim::ShardedSessionServiceConfig sharded_config;
  sharded_config.base = config;
  sharded_config.lane_count = static_cast<std::size_t>(lanes);
  sharded_config.shard_count = static_cast<std::size_t>(shards);
  sharded_config.record_sessions = cli.get_bool("record-sessions");
  sharded_config.recorder_capacity =
      static_cast<std::size_t>(recorder_capacity);
  sharded_config.recorder_happy_keep_per_1024 =
      static_cast<std::uint32_t>(recorder_keep);
  sharded_config.record_links = record_links;
  sharded_config.ledger_window_slots = static_cast<std::uint64_t>(link_window);
  sharded_config.ledger_event_capacity =
      static_cast<std::size_t>(link_events);
  // The service validates what the flags alone cannot: the registry throws
  // std::out_of_range for an unknown --algorithm, and the constructor
  // std::invalid_argument for a refused combination (fair-share with a
  // non-batch-native kernel). Both are flag errors, not crashes.
  std::optional<sim::ShardedSessionService> sharded_service;
  try {
    sharded_service.emplace(
        *network, sharded_config,
        static_cast<std::uint64_t>(cli.get_int("seed").value_or(1)));
  } catch (const std::out_of_range& error) {
    std::cerr << "muerpd: --algorithm: " << error.what() << ", or "
              << sim::kSharedPrimAlgorithm << " for the built-in pass\n";
    return 2;
  } catch (const std::invalid_argument& error) {
    std::cerr << "muerpd: bad flag combination: " << error.what() << '\n';
    return 2;
  }
  sim::ShardedSessionService& service = *sharded_service;

  // Durable session history: replay previous runs (truncating any torn
  // tail), then mark this run's start.
  ctl::HistoryLog history;
  if (const std::string path = cli.get_string("history"); !path.empty()) {
    std::string history_error;
    if (!history.open(path, &history_error)) return fail(history_error);
    if (history.bytes_truncated() > 0) {
      MUERP_LOG_WARN("muerpd/history_truncated",
                     support::telemetry::field(
                         "bytes", history.bytes_truncated()));
    }
    history.begin_run();
  }
  // Counters already appended to the history file this run; lifetime =
  // history.lifetime() once flush_history ran (loop thread only).
  sim::ProtocolMetrics history_flushed;
  std::uint64_t history_flushed_slots = 0;
  std::uint64_t history_last_append_ns = 0;
  const auto flush_history = [&](bool force) {
    if (!history.is_open()) return;
    const std::uint64_t now = support::telemetry::monotonic_now_ns();
    if (!force && now - history_last_append_ns < 250'000'000ull) return;
    const sim::ProtocolMetrics m = service.metrics();
    ctl::HistoryRecord record;
    record.slots = service.slot() - history_flushed_slots;
    record.arrived = m.sessions_arrived - history_flushed.sessions_arrived;
    record.admitted = m.sessions_admitted - history_flushed.sessions_admitted;
    record.completed =
        m.sessions_completed - history_flushed.sessions_completed;
    record.timed_out =
        m.sessions_timed_out - history_flushed.sessions_timed_out;
    record.rejected = m.sessions_rejected - history_flushed.sessions_rejected;
    history_last_append_ns = now;
    // A forced flush (drain/shutdown, `ctl get lifetime`) must never skip:
    // the idle check exists only to keep a paused daemon from growing the
    // file, and it has to cover EVERY delta field — a tick whose only news
    // was admissions/rejections used to be dropped here and lost on kill.
    if (!force && record.slots == 0 && record.arrived == 0 &&
        record.admitted == 0 && record.completed == 0 &&
        record.timed_out == 0 && record.rejected == 0) {
      return;  // nothing new — don't grow the file while paused/idle
    }
    if (history.append(record)) {
      history_flushed = m;
      history_flushed_slots = service.slot();
    }
  };

  // Observability plane up before the first slot so a scraper never sees
  // connection refused while the service is live.
  support::telemetry::HttpExporter::Options http;
  http.port = static_cast<std::uint16_t>(cli.get_int("port").value_or(9464));
  http.bind_address = cli.get_string("bind");
  support::telemetry::HttpExporter exporter(http);
  // Historical plane: the sampler captures the registry into the store on
  // its own thread; the exporter serves windowed queries from it under
  // /api/v1/. In MUERP_TELEMETRY=OFF builds both are inert stubs and the
  // endpoints serve empty series — the flags still parse.
  support::telemetry::TimeSeriesStore store(
      static_cast<std::size_t>(retention));
  support::telemetry::Sampler::Options sampler_options;
  sampler_options.interval = std::chrono::milliseconds(sample_interval_ms);
  support::telemetry::Sampler sampler(store, sampler_options);
  exporter.set_time_series(&store);
  // SLO alert engine: the whole rule table is evaluated right after every
  // registry capture, on the sampler's thread — alerting rides the sampling
  // the daemon already does. alerts_firing mirrors the count for /healthz
  // (the health appender reads an atomic instead of taking engine locks).
  support::telemetry::AlertRules alerts(store);
  std::atomic<std::uint64_t> alerts_firing{0};
  sampler.set_after_sample([&alerts, &alerts_firing](std::uint64_t t_ns) {
    alerts.evaluate(t_ns);
    alerts_firing.store(alerts.firing(), std::memory_order_relaxed);
  });

  // Lifecycle state, written by mailbox actions on the loop thread, read by
  // the acceptor thread for /healthz and by the loop condition.
  std::atomic<RunState> run_state{RunState::kRunning};
  std::uint64_t drain_started_slot = 0;  // loop thread only

  // /healthz reads a published snapshot, not the live service: the main
  // loop stores these atomics after every tick, the acceptor thread loads
  // them — a scrape never waits out a routing pass (the seed held a mutex
  // across the whole service.step() here).
  struct HealthSnapshot {
    std::atomic<std::uint64_t> slot{0};
    std::atomic<std::uint64_t> active{0};
    std::atomic<std::uint64_t> arrived{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> completed{0};
    // Runtime-mutable (`ctl set algorithm`), so not a plain string: the
    // acceptor thread reads it while the loop thread republishes.
    std::mutex algorithm_mutex;
    std::string algorithm;
  };
  HealthSnapshot health;
  const auto publish_health = [&service, &health] {
    const sim::ProtocolMetrics m = service.metrics();
    {
      const std::lock_guard<std::mutex> lock(health.algorithm_mutex);
      health.algorithm = service.algorithm().empty()
                             ? sim::kSharedPrimAlgorithm
                             : service.algorithm();
    }
    health.slot.store(service.slot(), std::memory_order_relaxed);
    health.active.store(service.active_sessions(), std::memory_order_relaxed);
    health.arrived.store(m.sessions_arrived, std::memory_order_relaxed);
    health.admitted.store(m.sessions_admitted, std::memory_order_relaxed);
    health.completed.store(m.sessions_completed, std::memory_order_relaxed);
  };
  // The algorithm label is mutable at runtime (`ctl set algorithm`), so the
  // health appender reads the service via the snapshot; the label only
  // names the per-algorithm instrument families, which keep their
  // boot-time name (a counter cannot be renamed mid-flight).
  const std::string algorithm_label =
      config.algorithm.empty() ? sim::kSharedPrimAlgorithm : config.algorithm;
  exporter.set_health_fields([&health, &run_state, &alerts_firing, lanes,
                              shards](std::string& body) {
    body += ", \"state\": \"";
    body += run_state_name(run_state.load(std::memory_order_relaxed));
    body += "\"";
    {
      const std::lock_guard<std::mutex> lock(health.algorithm_mutex);
      body += ", \"algorithm\": " + json::quote(health.algorithm);
    }
    body += ", \"slot\": " +
            std::to_string(health.slot.load(std::memory_order_relaxed));
    body += ", \"active_sessions\": " +
            std::to_string(health.active.load(std::memory_order_relaxed));
    body += ", \"sessions_arrived\": " +
            std::to_string(health.arrived.load(std::memory_order_relaxed));
    body += ", \"sessions_admitted\": " +
            std::to_string(health.admitted.load(std::memory_order_relaxed));
    body += ", \"sessions_completed\": " +
            std::to_string(health.completed.load(std::memory_order_relaxed));
    body += ", \"lanes\": " + std::to_string(lanes);
    body += ", \"shards\": " + std::to_string(shards);
    body += ", \"alerts_firing\": " +
            std::to_string(alerts_firing.load(std::memory_order_relaxed));
  });

  // Default SLO rules every muerpd shares. All burn-rate style (three
  // consecutive breached samples) so one noisy sample never fires; `ctl
  // slo set`/`remove` can retune or drop any of them at runtime.
  {
    support::telemetry::AlertRule rejections;
    rejections.name = "rejection-ratio";
    rejections.kind = support::telemetry::AlertKind::kRatio;
    rejections.metric = "session/rejected";
    rejections.denominator = "session/arrived";
    rejections.threshold = 0.5;
    rejections.for_count = 3;
    alerts.upsert(rejections);

    support::telemetry::AlertRule backlog;
    backlog.name = "scheduler-backlog";
    backlog.kind = support::telemetry::AlertKind::kGauge;
    backlog.metric = "muerpd/scheduler/backlog";
    backlog.threshold = static_cast<double>(tick_batch);
    backlog.for_count = 3;
    alerts.upsert(backlog);

    if (slot_ms > 0) {
      // A paced daemon whose p95 slot latency exceeds the slot period is
      // falling behind its own grid.
      support::telemetry::AlertRule p95;
      p95.name = "slot-p95-us";
      p95.kind = support::telemetry::AlertKind::kHistogramQuantile;
      p95.metric = "muerpd/slot_us/" + algorithm_label;
      p95.quantile = 0.95;
      p95.threshold = static_cast<double>(slot_ms) * 1000.0;
      p95.for_count = 3;
      alerts.upsert(p95);
    }
  }

  // Event-driven slot loop pacing (constructed before the control plane so
  // the mailbox wake can kick it).
  support::SlotScheduler::Options pace;
  pace.period = std::chrono::milliseconds(slot_ms);
  pace.max_batch = static_cast<std::uint64_t>(tick_batch);
  support::SlotScheduler scheduler(pace);

  // -------------------------------------------------------------------------
  // Control plane: the command registry behind POST /api/v1/ctl. Every
  // mutation rides the mailbox to the loop thread and is applied between
  // scheduler batches; submit() kicks the scheduler so a command never
  // waits out a slot period.
  ctl::ControlMailbox mailbox;
  mailbox.set_wake([&scheduler] { scheduler.kick(); });

  // Refuse mutations while draining — the daemon is committed to exiting.
  const auto draining_guard = [&run_state]() -> std::optional<ctl::CommandResult> {
    if (run_state.load(std::memory_order_relaxed) == RunState::kDraining) {
      return ctl::CommandResult::failure(ctl::kErrDraining,
                                         "daemon is draining");
    }
    return std::nullopt;
  };

  // The settings table `ctl set` / `ctl get` dispatch on. Accessors run on
  // the loop thread inside mailbox actions.
  std::vector<Setting> settings;
  settings.push_back(
      {"arrival-rate", "session arrival probability per slot",
       [&service] { return json::number(service.arrival_prob()); },
       [&service](const support::json::Value& value) {
         if (!value.is_number()) {
           return ctl::CommandResult::failure(ctl::kErrBadArg,
                                              "arrival-rate must be a number");
         }
         std::string error;
         if (!service.set_arrival_prob(value.number_value, &error)) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
         }
         return ctl::CommandResult::success(
             json::number(service.arrival_prob()));
       }});
  settings.push_back(
      {"algorithm", "admission router (shared-prim or a registry name)",
       [&service] {
         return json::quote(service.algorithm().empty()
                                ? sim::kSharedPrimAlgorithm
                                : service.algorithm());
       },
       [&service](const support::json::Value& value) {
         if (!value.is_string()) {
           return ctl::CommandResult::failure(ctl::kErrBadArg,
                                              "algorithm must be a string");
         }
         std::string name = value.string_value;
         if (name == sim::kSharedPrimAlgorithm) name.clear();
         std::string error;
         if (!service.set_algorithm(name, &error)) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
         }
         return ctl::CommandResult::success(
             json::quote(name.empty() ? sim::kSharedPrimAlgorithm : name));
       }});
  settings.push_back(
      {"arrival-burst", "arrival attempts per slot (>= 1)",
       [&service] {
         return std::to_string(service.arrival_burst());
       },
       [&service](const support::json::Value& value) {
         if (!value.is_number() ||
             value.number_value != static_cast<std::uint64_t>(
                                       value.number_value)) {
           return ctl::CommandResult::failure(
               ctl::kErrBadArg, "arrival-burst must be an integer");
         }
         std::string error;
         if (!service.set_arrival_burst(
                 static_cast<std::size_t>(value.number_value), &error)) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
         }
         return ctl::CommandResult::success(
             std::to_string(service.arrival_burst()));
       }});
  settings.push_back(
      {"batch-policy",
       "burst admission order (given-order|smallest-first|largest-first|"
       "greedy|fair-share)",
       [&service] {
         return json::quote(
             routing::batch_policy_name(service.batch_policy()));
       },
       [&service](const support::json::Value& value) {
         if (!value.is_string()) {
           return ctl::CommandResult::failure(ctl::kErrBadArg,
                                              "batch-policy must be a string");
         }
         routing::BatchPolicy policy;
         if (!routing::parse_batch_policy(value.string_value, &policy)) {
           return ctl::CommandResult::failure(
               ctl::kErrOutOfRange,
               "unknown batch policy '" + value.string_value +
                   "' (given-order|smallest-first|largest-first|greedy|"
                   "fair-share)");
         }
         std::string error;
         if (!service.set_batch_policy(policy, &error)) {
           return ctl::CommandResult::failure(ctl::kErrUnsupported, error);
         }
         return ctl::CommandResult::success(
             json::quote(routing::batch_policy_name(policy)));
       }});
  settings.push_back(
      {"log-level", "structured log threshold (debug|info|warn|error|off)",
       [] {
         return json::quote(support::telemetry::log_level_name(
             support::telemetry::log_level()));
       },
       [](const support::json::Value& value) {
         if (!value.is_string()) {
           return ctl::CommandResult::failure(ctl::kErrBadArg,
                                              "log-level must be a string");
         }
         support::telemetry::LogLevel parsed;
         if (!support::telemetry::parse_log_level(value.string_value,
                                                  &parsed)) {
           return ctl::CommandResult::failure(
               ctl::kErrOutOfRange, "unknown log level '" +
                                        value.string_value +
                                        "' (debug|info|warn|error|off)");
         }
         support::telemetry::set_log_level(parsed);
         return ctl::CommandResult::success(
             json::quote(value.string_value));
       }});
  settings.push_back(
      {"log-rate", "per-session log events per second (0 = unlimited)",
       [&service] {
         return json::number(service.log_events_per_second());
       },
       [&service](const support::json::Value& value) {
         if (!value.is_number()) {
           return ctl::CommandResult::failure(ctl::kErrBadArg,
                                              "log-rate must be a number");
         }
         std::string error;
         if (!service.set_log_events_per_second(value.number_value, &error)) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
         }
         return ctl::CommandResult::success(
             json::number(service.log_events_per_second()));
       }});
  settings.push_back(
      {"sample-interval-ms", "time-series sampling period in milliseconds",
       [&sampler] {
         return std::to_string(sampler.interval().count());
       },
       [&sampler](const support::json::Value& value) {
         if (!value.is_number() ||
             value.number_value != static_cast<std::int64_t>(
                                       value.number_value)) {
           return ctl::CommandResult::failure(
               ctl::kErrBadArg, "sample-interval-ms must be an integer");
         }
         if (value.number_value < 1.0 || value.number_value > 3600'000.0) {
           return ctl::CommandResult::failure(
               ctl::kErrOutOfRange,
               "sample-interval-ms must be in [1, 3600000]");
         }
         sampler.set_interval(std::chrono::milliseconds(
             static_cast<std::int64_t>(value.number_value)));
         return ctl::CommandResult::success(
             std::to_string(sampler.interval().count()));
       }});
  settings.push_back(
      {"lifetime",
       "totals across every run recorded in the --history file (read-only)",
       [&history, &flush_history] {
         if (!history.is_open()) return std::string("null");
         flush_history(true);
         const ctl::HistoryTotals t = history.lifetime();
         std::string out = "{\"runs\": " + std::to_string(t.runs);
         out += ", \"slots\": " + std::to_string(t.slots);
         out += ", \"arrived\": " + std::to_string(t.arrived);
         out += ", \"admitted\": " + std::to_string(t.admitted);
         out += ", \"completed\": " + std::to_string(t.completed);
         out += ", \"timed_out\": " + std::to_string(t.timed_out);
         out += ", \"rejected\": " + std::to_string(t.rejected);
         out += "}";
         return out;
       },
       nullptr});

  const auto find_setting = [&settings](const std::string& name)
      -> std::pair<const Setting*, ctl::CommandResult> {
    for (const Setting& setting : settings) {
      if (setting.name == name) return {&setting, ctl::CommandResult{}};
    }
    std::string known;
    for (const Setting& setting : settings) {
      if (!known.empty()) known += ", ";
      known += setting.name;
    }
    return {nullptr,
            ctl::CommandResult::failure(
                ctl::kErrBadArg,
                "unknown setting '" + name + "' (known: " + known + ")")};
  };

  ctl::CommandRegistry registry;
  registry.add(
      {"set",
       "change a runtime setting (applied at the next tick boundary)",
       {{"name", ctl::ArgType::kString, true, "setting to change"},
        {"value", ctl::ArgType::kAny, true, "new value (type per setting)"}},
       [&](const support::json::Value& args) {
         const auto [setting, lookup_error] =
             find_setting(args["name"].string_value);
         if (setting == nullptr) return lookup_error;
         if (!setting->set) {
           return ctl::CommandResult::failure(
               ctl::kErrUnsupported,
               "setting '" + setting->name + "' is read-only");
         }
         // Copy the value out of the parsed request: the mailbox action
         // runs after this handler's request document is gone.
         const support::json::Value value = args["value"];
         if (auto refused = draining_guard()) return *refused;
         return mailbox.submit(
             [setting, value] { return setting->set(value); });
       }});
  registry.add(
      {"get",
       "read a runtime setting (loop-thread-consistent snapshot)",
       {{"name", ctl::ArgType::kString, true, "setting to read"}},
       [&](const support::json::Value& args) {
         const auto [setting, lookup_error] =
             find_setting(args["name"].string_value);
         if (setting == nullptr) return lookup_error;
         if (setting->name == "lifetime" && !history.is_open()) {
           return ctl::CommandResult::failure(
               ctl::kErrUnsupported,
               "no --history file configured for this daemon");
         }
         return mailbox.submit([setting] {
           return ctl::CommandResult::success(setting->get());
         });
       }});
  registry.add(
      {"status",
       "lifecycle state plus the live session counters",
       {},
       [&](const support::json::Value&) {
         return mailbox.submit([&] {
           const sim::ProtocolMetrics m = service.metrics();
           std::string out = "{\"state\": ";
           out += json::quote(
               run_state_name(run_state.load(std::memory_order_relaxed)));
           out += ", \"slot\": " + std::to_string(service.slot());
           out += ", \"active_sessions\": " +
                  std::to_string(service.active_sessions());
           out += ", \"arrived\": " + std::to_string(m.sessions_arrived);
           out += ", \"admitted\": " + std::to_string(m.sessions_admitted);
           out += ", \"completed\": " + std::to_string(m.sessions_completed);
           out += ", \"timed_out\": " + std::to_string(m.sessions_timed_out);
           out += ", \"rejected\": " + std::to_string(m.sessions_rejected);
           out += ", \"arrivals_enabled\": ";
           out += service.arrivals_enabled() ? "true" : "false";
           out += "}";
           return ctl::CommandResult::success(out);
         });
       }});
  registry.add(
      {"pause",
       "hold the slot loop (the deadline grid keeps advancing; resuming "
       "never replays a backlog)",
       {},
       [&](const support::json::Value&) {
         if (auto refused = draining_guard()) return *refused;
         return mailbox.submit([&run_state] {
           run_state.store(RunState::kPaused, std::memory_order_relaxed);
           return ctl::CommandResult::success("{\"state\": \"paused\"}");
         });
       }});
  registry.add(
      {"resume",
       "resume a paused slot loop",
       {},
       [&](const support::json::Value&) {
         if (auto refused = draining_guard()) return *refused;
         return mailbox.submit([&run_state] {
           run_state.store(RunState::kRunning, std::memory_order_relaxed);
           return ctl::CommandResult::success("{\"state\": \"running\"}");
         });
       }});
  registry.add(
      {"drain",
       "stop intake, finish in-flight sessions, then exit",
       {},
       [&](const support::json::Value&) {
         if (auto refused = draining_guard()) return *refused;
         return mailbox.submit([&] {
           service.set_arrivals_enabled(false);
           drain_started_slot = service.slot();
           run_state.store(RunState::kDraining, std::memory_order_relaxed);
           return ctl::CommandResult::success(
               "{\"state\": \"draining\", \"active_sessions\": " +
               std::to_string(service.active_sessions()) + "}");
         });
       }});
  registry.add(
      {"snapshot",
       "full metrics + recent-events document, inline or written to a file",
       {{"path", ctl::ArgType::kString, false,
         "write the document here instead of returning it"}},
       [&](const support::json::Value& args) {
         const std::string document = support::telemetry::snapshot_document(
             support::telemetry::capture_process(),
             support::telemetry::recent_log_events());
         const support::json::Value* path = args.find("path");
         if (path == nullptr) {
           return ctl::CommandResult::success(document);
         }
         std::ofstream out(path->string_value);
         if (!out) {
           return ctl::CommandResult::failure(
               ctl::kErrBadArg,
               "cannot write snapshot to '" + path->string_value + "'");
         }
         out << document;
         return ctl::CommandResult::success(
             "{\"written\": " + json::quote(path->string_value) + "}");
       }});
  registry.add(
      {"commands",
       "this command table, with argument schemas",
       {},
       [&registry](const support::json::Value&) {
         return ctl::CommandResult::success(registry.describe_json());
       }});

  // Flight-recorder verbs. The recorder is internally locked, so these run
  // directly on the acceptor thread — a query must keep answering while the
  // loop thread is blocked in acquire() (no mailbox hop).
  const auto session_filter_of =
      [](const support::json::Value& args,
         support::telemetry::SessionFilter* filter) -> ctl::CommandResult {
    namespace tel = support::telemetry;
    filter->limit = 100;
    if (const auto* v = args.find("state")) {
      tel::SessionState state;
      if (!tel::parse_session_state(v->string_value, &state)) {
        return ctl::CommandResult::failure(
            ctl::kErrOutOfRange,
            "unknown state '" + v->string_value +
                "' (active|completed|timed_out|rejected|drained)");
      }
      filter->state = state;
    }
    if (const auto* v = args.find("alg")) filter->algorithm = v->string_value;
    const auto non_negative =
        [&args](const char* name) -> std::optional<std::uint64_t> {
      const auto* v = args.find(name);
      if (v == nullptr || v->number_value < 0) return std::nullopt;
      return static_cast<std::uint64_t>(v->number_value);
    };
    for (const char* name : {"lane", "min-slot", "max-slot", "limit"}) {
      if (args.find(name) != nullptr && !non_negative(name)) {
        return ctl::CommandResult::failure(
            ctl::kErrOutOfRange, std::string(name) + " must be >= 0");
      }
    }
    if (const auto v = non_negative("lane")) {
      filter->lane = static_cast<std::uint32_t>(*v);
    }
    if (const auto v = non_negative("min-slot")) filter->min_slot = *v;
    if (const auto v = non_negative("max-slot")) filter->max_slot = *v;
    if (const auto v = non_negative("limit")) {
      filter->limit = static_cast<std::size_t>(*v);
    }
    return ctl::CommandResult::success();
  };
  registry.add(
      {"sessions",
       "flight-recorder records (tail-sampled; rejections and timeouts are "
       "always kept)",
       {{"state", ctl::ArgType::kString, false,
         "active|completed|timed_out|rejected|drained"},
        {"lane", ctl::ArgType::kInt, false, "only this lane"},
        {"alg", ctl::ArgType::kString, false,
         "only this admission algorithm"},
        {"min-slot", ctl::ArgType::kInt, false, "arrival slot >= this"},
        {"max-slot", ctl::ArgType::kInt, false, "arrival slot <= this"},
        {"limit", ctl::ArgType::kInt, false,
         "keep only the last n matches (default 100; 0 = all)"}},
       [&service, session_filter_of](const support::json::Value& args) {
         support::telemetry::SessionFilter filter;
         if (const auto parsed = session_filter_of(args, &filter); !parsed.ok) {
           return parsed;
         }
         return ctl::CommandResult::success(
             support::telemetry::session_records_json(
                 service.session_records(filter),
                 service.session_record_stats()));
       }});
  registry.add(
      {"session",
       "one full flight record by id (as `sessions` reports them)",
       {{"id", ctl::ArgType::kInt, true, "record id (lane << 32 | seq)"},
        {"format", ctl::ArgType::kString, false,
         "json (default) or trace (Chrome trace-event document)"}},
       [&service](const support::json::Value& args) {
         namespace tel = support::telemetry;
         if (args["id"].number_value < 0) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                              "id must be >= 0");
         }
         const auto id = static_cast<std::uint64_t>(args["id"].number_value);
         const auto record = service.find_session_record(id);
         if (!record) {
           return ctl::CommandResult::failure(
               ctl::kErrNotFound,
               "no flight record with id " + std::to_string(id));
         }
         std::string fmt = "json";
         if (const auto* v = args.find("format")) fmt = v->string_value;
         if (fmt == "trace") {
           return ctl::CommandResult::success(tel::session_trace_json(*record));
         }
         if (fmt != "json") {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                              "format must be json|trace");
         }
         return ctl::CommandResult::success(tel::session_record_json(*record));
       }});
  // Network-plane verbs. Like the flight-recorder verbs these are
  // read-only and internally locked, so they run directly on the acceptor
  // thread; curl on the GET routes below sees identical documents.
  registry.add(
      {"topology",
       "the served network joined with live per-link occupancy",
       {},
       [&service, &network, &health](const support::json::Value&) {
         return ctl::CommandResult::success(topology_json(
             *network, service.link_stats(),
             health.slot.load(std::memory_order_relaxed)));
       }});
  registry.add(
      {"links",
       "per-link utilization / attempts / contention-loss table",
       {{"sort", ctl::ArgType::kString, false, "util (default) or losses"},
        {"limit", ctl::ArgType::kInt, false,
         "keep only the top n links (0 = all)"}},
       [&service, &health](const support::json::Value& args) {
         namespace tel = support::telemetry;
         tel::LinkSort sort = tel::LinkSort::kUtil;
         if (const auto* v = args.find("sort")) {
           if (!tel::parse_link_sort(v->string_value, &sort)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange, "unknown sort '" + v->string_value +
                                          "' (util|losses)");
           }
         }
         std::size_t limit = 0;
         if (const auto* v = args.find("limit")) {
           if (v->number_value < 0) {
             return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                                "limit must be >= 0");
           }
           limit = static_cast<std::size_t>(v->number_value);
         }
         auto stats = service.link_stats();
         tel::sort_links(stats, sort, limit);
         return ctl::CommandResult::success(tel::links_json(
             stats, health.slot.load(std::memory_order_relaxed)));
       }});
  registry.add(
      {"explain",
       "a flight record joined with the links saturated at its admission "
       "slot (why was THIS session rejected)",
       {{"id", ctl::ArgType::kInt, true, "record id (lane << 32 | seq)"}},
       [&service](const support::json::Value& args) {
         namespace tel = support::telemetry;
         if (args["id"].number_value < 0) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                              "id must be >= 0");
         }
         const auto id = static_cast<std::uint64_t>(args["id"].number_value);
         // Unknown ids still succeed with a found:false document — explain
         // is a join, and a missing record is a valid answer.
         const auto explained = service.explain_session(id);
         if (!explained) {
           return ctl::CommandResult::success(
               tel::explain_json(id, nullptr, tel::SaturatedLinks{}));
         }
         return ctl::CommandResult::success(tel::explain_json(
             id, &explained->record, explained->saturated));
       }});
  registry.add(
      {"slo",
       "alert-rule table: list (default), set a rule, or remove one",
       {{"action", ctl::ArgType::kString, false, "list|set|remove"},
        {"name", ctl::ArgType::kString, false, "rule name (set/remove)"},
        {"kind", ctl::ArgType::kString, false,
         "counter-rate|gauge|histogram-quantile|ratio (set)"},
        {"metric", ctl::ArgType::kString, false,
         "counter/gauge/histogram name; ratio numerator (set)"},
        {"denominator", ctl::ArgType::kString, false,
         "ratio denominator counter (set, kind=ratio)"},
        {"quantile", ctl::ArgType::kNumber, false,
         "quantile in [0, 1] (set, kind=histogram-quantile; default 0.95)"},
        {"window-seconds", ctl::ArgType::kNumber, false,
         "trailing evaluation window (set; default 60)"},
        {"op", ctl::ArgType::kString, false,
         "above|below (set; default above)"},
        {"threshold", ctl::ArgType::kNumber, false, "breach threshold (set)"},
        {"for", ctl::ArgType::kInt, false,
         "consecutive breached samples before firing (set; default 1)"},
        {"severity", ctl::ArgType::kString, false,
         "free-form label surfaced with the alert (set; default warning)"}},
       [&alerts](const support::json::Value& args) {
         namespace tel = support::telemetry;
         std::string action = "list";
         if (const auto* v = args.find("action")) action = v->string_value;
         if (action == "list") {
           return ctl::CommandResult::success(
               tel::alerts_json(alerts.status()));
         }
         const auto* name = args.find("name");
         if (name == nullptr || name->string_value.empty()) {
           return ctl::CommandResult::failure(
               ctl::kErrBadArg, "slo " + action + " needs name=<rule>");
         }
         if (action == "remove") {
           if (!alerts.remove(name->string_value)) {
             return ctl::CommandResult::failure(
                 ctl::kErrNotFound,
                 "no alert rule named '" + name->string_value + "'");
           }
           return ctl::CommandResult::success(
               "{\"removed\": " + json::quote(name->string_value) + "}");
         }
         if (action != "set") {
           return ctl::CommandResult::failure(
               ctl::kErrOutOfRange,
               "unknown action '" + action + "' (list|set|remove)");
         }
         tel::AlertRule rule;
         rule.name = name->string_value;
         if (const auto* v = args.find("kind")) {
           if (!tel::parse_alert_kind(v->string_value, &rule.kind)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "unknown kind '" + v->string_value +
                     "' (counter-rate|gauge|histogram-quantile|ratio)");
           }
         }
         if (const auto* v = args.find("metric")) rule.metric = v->string_value;
         if (const auto* v = args.find("denominator")) {
           rule.denominator = v->string_value;
         }
         if (const auto* v = args.find("quantile")) {
           rule.quantile = v->number_value;
         }
         if (const auto* v = args.find("window-seconds")) {
           if (!(v->number_value > 0)) {
             return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                                "window-seconds must be > 0");
           }
           rule.window_ns = static_cast<std::uint64_t>(v->number_value * 1e9);
         }
         if (const auto* v = args.find("op")) {
           if (!tel::parse_alert_op(v->string_value, &rule.op)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "unknown op '" + v->string_value + "' (above|below)");
           }
         }
         if (const auto* v = args.find("threshold")) {
           rule.threshold = v->number_value;
         }
         if (const auto* v = args.find("for")) {
           if (v->number_value < 1) {
             return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                                "for must be >= 1");
           }
           rule.for_count = static_cast<std::uint32_t>(v->number_value);
         }
         if (const auto* v = args.find("severity")) {
           rule.severity = v->string_value;
         }
         std::string rule_error;
         if (!alerts.upsert(rule, &rule_error)) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange, rule_error);
         }
         return ctl::CommandResult::success(tel::alerts_json(alerts.status()));
       }});

  exporter.add_route(
      "POST", "/api/v1/ctl",
      [&registry, &ctl_token](const support::telemetry::HttpRequest& request) {
        // With --ctl-token the control plane requires a matching bearer
        // token; read-only GET endpoints stay open (observability is not a
        // mutation). 401 carries the same envelope shape clients already
        // parse, with the stable unauthorized code.
        if (!ctl_token.empty() &&
            request.authorization != "Bearer " + ctl_token) {
          return support::telemetry::HttpExporter::response(
              401, "application/json",
              "{\"ok\": false, \"code\": \"unauthorized\", \"error\": "
              "\"missing or wrong bearer token (--ctl-token)\"}\n",
              "WWW-Authenticate: Bearer\r\n");
        }
        // Every outcome — success or failure — is HTTP 200 with the
        // envelope carrying ok/code; transport-level errors stay HTTP.
        return support::telemetry::HttpExporter::response(
            200, "application/json", registry.dispatch(request.body));
      });
  // The read-only JSON pages are their ctl verbs behind one adapter, so
  // curl and muerpctl get identical documents and identical validation
  // (an OFF build serves empty-but-valid ones). Every verb here is
  // read-only and internally locked, so pages answer on the acceptor
  // thread while the lanes run; /api/v1/alerts pins `slo` to action=list.
  for (const VerbPage& page : kVerbPages) {
    const auto handler =
        [&registry, &page](const support::telemetry::HttpRequest& request) {
          return serve_verb_page(registry, page, request);
        };
    if (page.path_arg != nullptr) {
      exporter.add_prefix_route("GET", page.path, handler);
    } else {
      exporter.add_route("GET", page.path, handler);
    }
  }
  exporter.add_route(
      "GET", "/api/v1/topology.svg",
      [&service, &network, &health](const support::telemetry::HttpRequest&) {
        namespace tel = support::telemetry;
        const auto stats = service.link_stats();
        std::vector<double> utilization(network->graph().edges().size(), 0.0);
        for (const tel::LinkStat& stat : stats) {
          if (stat.kind == tel::LinkKind::kEdge &&
              stat.index < utilization.size()) {
            utilization[stat.index] = stat.utilization;
          }
        }
        net::SvgOptions svg_options;
        svg_options.edge_utilization = &utilization;
        svg_options.title =
            "muerpd link utilization, slot " +
            std::to_string(health.slot.load(std::memory_order_relaxed));
        return tel::HttpExporter::response(
            200, "image/svg+xml", net::to_svg(*network, nullptr, svg_options));
      });

  std::string error;
  if (!exporter.start(&error)) {
    return fail("cannot serve on " + http.bind_address + ":" +
                std::to_string(http.port) + ": " + error);
  }
  sampler.start();
  publish_health();  // slot-0 snapshot, so early scrapes see real fields
  std::cout << "muerpd: serving on " << http.bind_address << ":"
            << exporter.port() << std::endl;
  MUERP_LOG_INFO("muerpd/start", support::telemetry::field(
                                     "algorithm", algorithm_label),
                 support::telemetry::field("port", exporter.port()),
                 support::telemetry::field("users", network->users().size()),
                 support::telemetry::field("switches",
                                           network->switches().size()));

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  // Per-algorithm instruments (runtime labels — one daemon, one algorithm,
  // but a Prometheus server aggregating several muerpds can tell them
  // apart by name).
  const support::telemetry::Counter slots_counter("muerpd/slots/" +
                                                  algorithm_label);
  const support::telemetry::Counter requests_counter("muerpd/requests/" +
                                                     algorithm_label);
  const support::telemetry::Counter admitted_counter("muerpd/admitted/" +
                                                     algorithm_label);
  const support::telemetry::Counter completed_counter("muerpd/completed/" +
                                                      algorithm_label);
  const support::telemetry::Histogram slot_us_histogram("muerpd/slot_us/" +
                                                        algorithm_label);
  // Scheduler-lag gauges: due-but-unplayed slots and how far past the grid
  // the next deadline is. Sampled into the time-series plane, where the
  // scheduler-backlog default alert rule watches the backlog level.
  const support::telemetry::Gauge backlog_gauge("muerpd/scheduler/backlog");
  const support::telemetry::Gauge overrun_gauge("muerpd/scheduler/overrun_us");
  // Hot-link families: the top-5 utilizations republished after every wake
  // (rank k in net/link_util/top<k>), plus a histogram of the same values
  // in percent — enough for a Prometheus panel and the slot-p95 style SLO
  // rules without one family per link (the registry's instrument caps are
  // fixed).
  constexpr std::size_t kHotLinkGauges = 5;
  std::vector<support::telemetry::Gauge> link_util_gauges;
  link_util_gauges.reserve(kHotLinkGauges);
  for (std::size_t k = 0; k < kHotLinkGauges; ++k) {
    link_util_gauges.emplace_back("net/link_util/top" + std::to_string(k));
  }
  const support::telemetry::Histogram link_util_histogram("net/link_util_pct");
  const auto publish_hot_links = [&] {
    if (!record_links) return;
    auto hot = service.link_stats();
    support::telemetry::sort_links(hot, support::telemetry::LinkSort::kUtil,
                                   kHotLinkGauges);
    for (std::size_t k = 0; k < kHotLinkGauges; ++k) {
      const double util = k < hot.size() ? hot[k].utilization : 0.0;
      link_util_gauges[k].set(util);
      if (k < hot.size()) link_util_histogram.observe(util * 100.0);
    }
  };

  // Event-driven slot loop: drain control commands at the tick boundary,
  // block until the next slot on the fixed grid is due, play every due slot
  // as one batch (one parallel dispatch across the lanes), publish the
  // health snapshot, repeat. acquire() bounds its waits so a signal (which
  // cannot wake the condition variable) is observed promptly; a 0 return is
  // just a control wake. While paused, due slots are advanced WITHOUT being
  // played: the grid keeps moving, so resume continues at the live edge
  // with no catch-up burst, and a --slots-bounded run still plays exactly
  // its N slots — which is what makes a paused-then-resumed run
  // bit-identical to an unpaused one.
  const std::uint64_t drain_cap = config.params.session_timeout_slots + 1;
  while (g_stop == 0 && (max_slots == 0 || service.slot() < max_slots)) {
    mailbox.drain();  // tick boundary: apply queued control commands
    const RunState state = run_state.load(std::memory_order_relaxed);
    if (state == RunState::kPaused) {
      publish_health();
      if (pace.period == std::chrono::nanoseconds::zero()) {
        // Unpaced pause has no deadline grid to follow — idle on the
        // mailbox instead of spinning through immediate acquire()s.
        mailbox.wait_pending(std::chrono::milliseconds(50));
        continue;
      }
      const std::uint64_t due = scheduler.acquire();
      mailbox.drain();  // a resume may be what woke the wait
      if (run_state.load(std::memory_order_relaxed) == RunState::kPaused &&
          due > 0) {
        scheduler.advance(due);  // grid moves on; the slots are not played
      }
      continue;
    }
    std::uint64_t due = scheduler.acquire();
    if (due == 0) continue;  // control wake: drain at the top of the loop
    if (max_slots != 0) {
      due = std::min<std::uint64_t>(due, max_slots - service.slot());
    }
    const std::uint64_t t0 = support::telemetry::monotonic_now_ns();
    const sim::ShardTickReport tick = service.run_slots(due);
    scheduler.advance(due);
    // Mean per-slot latency over the batch (one observation per slot keeps
    // the histogram's count equal to the slot count, as before).
    const double per_slot_us =
        static_cast<double>(support::telemetry::monotonic_now_ns() - t0) /
        (1e3 * static_cast<double>(due));
    for (std::uint64_t s = 0; s < due; ++s) slot_us_histogram.observe(per_slot_us);
    slots_counter.add(due);
    requests_counter.add(tick.arrivals);
    admitted_counter.add(tick.admissions);
    if (tick.completed > 0) completed_counter.add(tick.completed);
    backlog_gauge.set(static_cast<double>(scheduler.backlog()));
    overrun_gauge.set(static_cast<double>(scheduler.overrun_ns()) / 1e3);
    publish_health();
    publish_hot_links();
    flush_history(false);
    if (state == RunState::kDraining &&
        (service.active_sessions() == 0 ||
         service.slot() - drain_started_slot >= drain_cap)) {
      break;  // commanded drain finished — exit cleanly
    }
    // Heartbeat: one debug line per 256 wakes, not one per slot.
    MUERP_LOG_EVERY_N(256, support::telemetry::LogLevel::kDebug, "muerpd/slot",
                      support::telemetry::field("slot", service.slot()),
                      support::telemetry::field("batch", due),
                      support::telemetry::field("active",
                                                tick.active_sessions),
                      support::telemetry::field("qubit_utilization",
                                                tick.qubit_utilization));
  }

  // Graceful shutdown on signal: stop arrivals and play unpaced slots until
  // the in-flight sessions complete or time out (bounded by the session
  // timeout); a second signal skips the drain. A `ctl drain` already did
  // its draining inside the main loop. Control commands still drain here so
  // `status` keeps answering (mutations are refused — state is draining).
  std::uint64_t drain_slots = 0;
  std::uint64_t drained_completed = 0;
  if (g_stop != 0 &&
      run_state.load(std::memory_order_relaxed) != RunState::kDraining) {
    run_state.store(RunState::kDraining, std::memory_order_relaxed);
    service.set_arrivals_enabled(false);
    while (g_stop < 2 && drain_slots < drain_cap) {
      mailbox.drain();
      if (service.active_sessions() == 0) break;
      const sim::ShardTickReport tick = service.step();
      ++drain_slots;
      slots_counter.add();
      if (tick.completed > 0) completed_counter.add(tick.completed);
      drained_completed += tick.completed;
      publish_health();
    }
  }
  // Sessions still in flight when the daemon exits are finalized as
  // drained flight records — "killed mid-run" stays distinguishable from
  // "timed out" in the recorder.
  service.finalize_session_records();
  flush_history(true);
  history.close();

  const sim::ProtocolMetrics m = service.metrics();
  MUERP_LOG_INFO("muerpd/shutdown",
                 support::telemetry::field("slot", service.slot()),
                 support::telemetry::field("arrived", m.sessions_arrived),
                 support::telemetry::field("completed", m.sessions_completed),
                 support::telemetry::field("drain_slots", drain_slots),
                 support::telemetry::field("drained_completed",
                                           drained_completed),
                 support::telemetry::field("active_remaining",
                                           service.active_sessions()),
                 support::telemetry::field("log_suppressed",
                                           service.log_events_suppressed()));
  // Close the mailbox BEFORE the exporter: pending and future control
  // submits fail fast with shutting_down, so an acceptor thread blocked in
  // a ctl request can answer and the exporter join cannot deadlock.
  mailbox.close();
  sampler.stop();
  exporter.stop();

  if (!snapshot_out.empty()) {
    std::ofstream out(snapshot_out);
    if (out) {
      out << support::telemetry::snapshot_document(
          support::telemetry::capture_process(),
          support::telemetry::recent_log_events());
    } else {
      std::cerr << "muerpd: cannot write --snapshot-out " << snapshot_out
                << '\n';
    }
  }

  const std::string final_label = service.algorithm().empty()
                                      ? sim::kSharedPrimAlgorithm
                                      : service.algorithm();
  support::Table summary("muerpd session service (" + final_label + ")",
                         {"metric", "value"});
  summary.add_row("slots played", {static_cast<double>(service.slot())});
  summary.add_row("sessions arrived",
                  {static_cast<double>(m.sessions_arrived)});
  summary.add_row("sessions admitted",
                  {static_cast<double>(m.sessions_admitted)});
  summary.add_row("sessions completed",
                  {static_cast<double>(m.sessions_completed)});
  summary.add_row("sessions timed out",
                  {static_cast<double>(m.sessions_timed_out)});
  summary.add_row("admitted fraction", {m.admitted_fraction()});
  summary.add_row("mean completion slots", {m.mean_completion_slots});
  summary.add_row("mean qubit utilization", {m.mean_qubit_utilization});
  summary.add_row("http requests served",
                  {static_cast<double>(exporter.requests_served())});
  summary.add_row("time-series samples",
                  {static_cast<double>(sampler.samples_taken())});
  summary.add_row("log events suppressed",
                  {static_cast<double>(service.log_events_suppressed())});
  std::cout << summary;
  return 0;
}
