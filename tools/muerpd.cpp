// muerpd — the entanglement routing session daemon: flag parsing, the
// served network, the signal handler and the exit summary around one
// daemon::Daemon (src/daemon/daemon.hpp documents its HTTP routes, ctl
// verbs, settings and drain rules). Flag-value errors exit 2; a network
// that cannot be loaded, a port that cannot be bound or a history file
// that cannot be opened exit 1.
//
//   muerpd --port 9464                       # paper-default Waxman network
//   muerpd --net n.txt --algorithm alg3      # serve a saved network
//   muerpd --slots 20000 --slot-ms 0         # finite, unpaced (benchmarks)
//   muerpd --history muerpd.hist             # durable lifetime counters
//   muerpctl ctl set arrival-rate 0.2        # live retune
//   muerpctl ctl drain                       # stop intake, finish, exit
#include <atomic>
#include <csignal>
#include <iostream>

#include "muerp.hpp"

namespace {

using namespace muerp;

// Counts delivered stop signals: 1 = drain in-flight sessions, 2+ = end
// the drain. Lock-free, so the handler may touch it.
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free);

void handle_stop(int) { g_stop.fetch_add(1, std::memory_order_relaxed); }

/// Reports `message`; returns `code` (2 for a flag-value error, 1 for a
/// runtime failure).
int fail(const std::string& message, int code = 2) {
  std::cerr << "muerpd: " << message << '\n';
  return code;
}

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
  daemon::Daemon::add_setting_flags(cli);
  cli.add_flag("slots", "stop after this many slots (0 = until signal)", "0");
  cli.add_flag("slot-ms", "pacing: milliseconds per slot (0 = unpaced)", "10");
  cli.add_flag("port", "HTTP port (0 = ephemeral)", "9464");
  cli.add_flag("bind", "HTTP bind address", "127.0.0.1");
  cli.add_flag("log-format", "text|json", "text");
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

  // The log format is not a runtime setting; the log level is, and comes
  // with the other settings below (nothing logs before the daemon exists).
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
      return fail("cannot load " + path + ": " + std::get<std::string>(result),
                  1);
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

  // Construction-only flags. The runtime settings are not read here: the
  // daemon's settings table applies them below.
  daemon::DaemonOptions options;
  sim::SessionServiceConfig& base = options.service.base;
  // Registry admission routes on a residual-capacity copy; Algorithm 2's
  // sufficient-condition boost would fake qubits the service doesn't have.
  base.router_options.pin_alg2_sufficient = false;
  base.params.min_group_size =
      static_cast<std::size_t>(cli.get_int("min-group").value_or(2));
  base.params.max_group_size =
      static_cast<std::size_t>(cli.get_int("max-group").value_or(4));
  base.params.session_timeout_slots =
      static_cast<std::uint64_t>(cli.get_int("timeout").value_or(500));
  if (base.params.min_group_size < 2 ||
      base.params.max_group_size < base.params.min_group_size ||
      base.params.max_group_size > network->users().size()) {
    return fail("group sizes must satisfy 2 <= min <= max <= user count (" +
                std::to_string(network->users().size()) + ")");
  }
  base.batch_single_arrivals = cli.get_bool("batch-single");
  const std::pair<const char*, int> minimums[] = {
      {"lanes", 1}, {"shards", 1}, {"tick-batch", 1}, {"retention", 2},
      {"recorder-capacity", 1}, {"link-window", 1}, {"link-events", 1}};
  for (const auto& [flag, min] : minimums) {
    if (cli.get_int(flag).value_or(min) < min) {
      return fail("--" + std::string(flag) + " must be >= " +
                  std::to_string(min));
    }
  }
  const auto recorder_keep = cli.get_int("recorder-keep").value_or(128);
  if (recorder_keep < 0 || recorder_keep > 1024) {
    return fail("--recorder-keep must be in [0, 1024]");
  }
  options.service.lane_count =
      static_cast<std::size_t>(cli.get_int("lanes").value_or(1));
  options.service.shard_count =
      static_cast<std::size_t>(cli.get_int("shards").value_or(1));
  options.service.record_sessions = cli.get_bool("record-sessions");
  options.service.recorder_capacity =
      static_cast<std::size_t>(cli.get_int("recorder-capacity").value_or(512));
  options.service.recorder_happy_keep_per_1024 =
      static_cast<std::uint32_t>(recorder_keep);
  options.service.record_links = cli.get_bool("record-links");
  options.service.ledger_window_slots =
      static_cast<std::uint64_t>(cli.get_int("link-window").value_or(64));
  options.service.ledger_event_capacity =
      static_cast<std::size_t>(cli.get_int("link-events").value_or(4096));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed").value_or(1));
  options.max_slots =
      static_cast<std::uint64_t>(cli.get_int("slots").value_or(0));
  options.slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms").value_or(10));
  options.tick_batch =
      static_cast<std::uint64_t>(cli.get_int("tick-batch").value_or(64));
  options.retention =
      static_cast<std::size_t>(cli.get_int("retention").value_or(600));
  options.http.port =
      static_cast<std::uint16_t>(cli.get_int("port").value_or(9464));
  options.http.bind_address = cli.get_string("bind");
  options.history_path = cli.get_string("history");
  options.snapshot_out = cli.get_string("snapshot-out");
  options.ctl_token = cli.get_string("ctl-token");

  daemon::Daemon daemon(*network, options);
  std::string error;
  if (!daemon.apply_flags(cli, &error)) return fail(error);
  if (!daemon.start(&error)) return fail(error, 1);
  std::cout << "muerpd: serving on " << options.http.bind_address << ":"
            << daemon.port() << std::endl;

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  const daemon::RunReport r = daemon.run(g_stop);

  const sim::ProtocolMetrics& m = r.metrics;
  const std::pair<const char*, double> rows[] = {
      {"slots played", static_cast<double>(r.slots)},
      {"sessions arrived", static_cast<double>(m.sessions_arrived)},
      {"sessions admitted", static_cast<double>(m.sessions_admitted)},
      {"sessions completed", static_cast<double>(m.sessions_completed)},
      {"sessions timed out", static_cast<double>(m.sessions_timed_out)},
      {"admitted fraction", m.admitted_fraction()},
      {"mean completion slots", m.mean_completion_slots},
      {"mean qubit utilization", m.mean_qubit_utilization},
      {"http requests served", static_cast<double>(r.http_requests)},
      {"time-series samples", static_cast<double>(r.samples)},
      {"log events suppressed", static_cast<double>(r.log_suppressed)}};
  support::Table summary("muerpd session service (" + r.algorithm + ")",
                         {"metric", "value"});
  for (const auto& [label, value] : rows) summary.add_row(label, {value});
  std::cout << summary;
  return 0;
}
