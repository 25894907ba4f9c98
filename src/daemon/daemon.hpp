// daemon::Daemon — the long-running entanglement routing service behind
// muerpd, with its live observability and control plane.
//
// Wraps sim::ShardedSessionService (arrivals -> admission routing ->
// execution windows, partitioned into deterministic lanes stepped by up to
// `shard_count` worker threads) in an event-driven slot loop and serves the
// telemetry registry over HTTP while it runs (docs/OBSERVABILITY.md lists
// every route and document):
//
//   GET  /metrics, /healthz, /snapshot.json, /api/v1/range, /api/v1/metrics
//        the exporter's pages; /healthz reads a published atomic snapshot
//        (including the running/paused/draining state), so a scrape never
//        waits for a routing pass
//   GET  /api/v1/{sessions, session/<id>, alerts, topology, links,
//        explain/<id>}  the read-only ctl verbs of the same names (alerts
//        is `slo` list) behind one adapter: same documents, same argument
//        checks; 400 for a bad argument, 404 for an unknown session
//   GET  /api/v1/topology.svg  the network with every fiber stroked by its
//        live utilization
//   POST /api/v1/ctl  the versioned command API ({"cmd","args"} in, a
//        uniform {"ok",...} envelope out) that `muerpctl ctl <verb>`
//        speaks: set/get, pause / resume / drain / snapshot / status,
//        sessions / session / topology / links / explain, slo, commands.
//        With a ctl token the route requires a matching
//        `Authorization: Bearer` header (401 otherwise).
//
// One settings table: each runtime setting (arrival-rate, algorithm,
// arrival-burst, batch-policy, log-level, log-rate, sample-interval-ms;
// lifetime is read-only) is parsed, validated and applied by its row
// alone. `ctl set` runs the row on the loop thread; apply_flags() runs it
// on the muerpd flag of the same meaning before the first slot, so a flag
// is refused exactly when `ctl set` refuses the value, with the same
// message. The service draws nothing from its Rng at construction, so a
// setting applied after construction plays the same slot trajectory.
//
// Control commands are applied at tick boundaries only: the HTTP acceptor
// thread parks each mutation in a ControlMailbox and the slot loop drains
// it between scheduler batches (a kick() wakes a blocked wait), so a
// setter never races a routing pass — a paused-then-resumed daemon with
// unchanged config plays the same slot trajectory as one that never
// paused (tests assert bit-identity).
//
// run() plays execution windows on a fixed slot-period grid until
// max_slots windows elapsed or a drain finished. Pacing is event-driven
// (SlotScheduler): the loop blocks until the next slot is due and, when a
// slow routing pass put it behind the grid, catches up by playing the
// backlog as one batch (at most tick_batch slots per wake). While paused
// the loop keeps advancing the deadline grid without playing slots, so
// resuming never triggers a catch-up burst.
//
// One drain loop: the first stop request and `ctl drain` both put the loop
// in the draining state — arrivals stop and slots play unpaced, one at a
// time, until no session is active or timeout + 1 slots were played; a
// second stop request ends the drain. Then open flight records are
// finalized as drained, the history is flushed, muerpd/shutdown is logged
// and the optional snapshot document written.
//
// With a history file the daemon keeps an append-only, CRC-framed
// session-history table (counter deltas every ~250 ms, a run-start marker
// per boot, replayed on start), so `ctl get lifetime` spans every run
// against that file. A background Sampler captures the registry every
// sample-interval-ms into a TimeSeriesStore of `retention` samples, and
// the SLO alert rules are evaluated after every capture.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "ctl/command_registry.hpp"
#include "ctl/history.hpp"
#include "ctl/mailbox.hpp"
#include "network/quantum_network.hpp"
#include "simulation/sharded_session_service.hpp"
#include "support/cli.hpp"
#include "support/scheduler.hpp"
#include "support/telemetry/alerts.hpp"
#include "support/telemetry/http_exporter.hpp"
#include "support/telemetry/sampler.hpp"
#include "support/telemetry/timeseries.hpp"

namespace muerp::daemon {

/// Construction-time configuration. Runtime settings (arrival rate,
/// algorithm, burst, batch policy, log level, log rate, sample interval)
/// are not here: they go through the settings table (apply_flags, `ctl
/// set`), and `service.base` keeps its defaults for them.
struct DaemonOptions {
  sim::ShardedSessionServiceConfig service;
  std::uint64_t seed = 1;
  /// Stop after this many slots (0 = until a drain finishes).
  std::uint64_t max_slots = 0;
  /// Slot pacing period (zero = unpaced).
  std::chrono::milliseconds slot_period{10};
  /// Most due slots played per scheduler wake when catching up.
  std::uint64_t tick_batch = 64;
  /// Time-series samples kept.
  std::size_t retention = 600;
  support::telemetry::HttpExporter::Options http;
  /// Append-only session-history file ("" = none).
  std::string history_path;
  /// Final /snapshot.json document written here on exit ("" = none).
  std::string snapshot_out;
  /// Bearer token required on POST /api/v1/ctl ("" = open).
  std::string ctl_token;
};

/// A finished run's totals: what muerpd prints as its exit summary.
struct RunReport {
  sim::ProtocolMetrics metrics;
  std::uint64_t slots = 0;
  /// Admission algorithm at exit ("shared-prim" for the built-in pass).
  std::string algorithm;
  std::uint64_t http_requests = 0;
  std::uint64_t samples = 0;
  std::uint64_t log_suppressed = 0;
  /// Slots played while draining, and sessions they completed.
  std::uint64_t drain_slots = 0;
  std::uint64_t drained_completed = 0;
};

class Daemon {
 public:
  /// `network` must outlive the daemon.
  Daemon(const net::QuantumNetwork& network, DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Declares the flag of every settable row (name, default, help) on
  /// `cli` — muerpd's seven runtime-setting flags.
  static void add_setting_flags(support::CliParser& cli);

  /// Applies every settable row to the value of its flag in `cli` (the
  /// flag's default when it was not given), in table order, before the
  /// first slot. On a refusal returns false with "--<flag>: <message>" —
  /// the message `ctl set` gives for the same value.
  bool apply_flags(const support::CliParser& cli, std::string* error);

  /// Opens the history file, binds the HTTP plane and starts the sampler.
  /// False with *error on a runtime failure.
  bool start(std::string* error);

  /// The bound HTTP port (after start()).
  std::uint16_t port() const noexcept { return exporter_.port(); }

  /// Runs the slot loop, then shuts down. `stop` counts stop requests
  /// (muerpd's signal handler increments it): 1 drains, 2 or more ends the
  /// drain. Call once, after start().
  RunReport run(const std::atomic<int>& stop);

 private:
  enum class RunState : int { kRunning = 0, kPaused = 1, kDraining = 2 };
  struct Setting;
  struct Verb;
  struct Instruments;
  static const Setting kSettings[];
  static const Verb kVerbs[];

  /// /healthz reads this published snapshot, not the live service: the
  /// loop stores it after every tick, the acceptor thread loads it — a
  /// scrape never waits out a routing pass.
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

  /// The row named `name`, or nullptr with a bad_arg failure in *error.
  const Setting* find_setting(const std::string& name,
                              ctl::CommandResult* error) const;
  /// The lifecycle state as /healthz and `status` name it.
  const char* state_name() const;
  /// The admission algorithm's name ("shared-prim" for the built-in pass).
  std::string algorithm_name() const;
  /// Refuses mutations while draining — the daemon is committed to exiting.
  std::optional<ctl::CommandResult> refuse_if_draining() const;
  /// Loop thread: stops arrivals and enters the draining state.
  void begin_drain();
  /// Loop thread: plays `n` slots and publishes their instruments, health,
  /// hot links and history.
  sim::ShardTickReport play(std::uint64_t n);
  void publish_health();
  void publish_hot_links();
  /// Appends the counter deltas since the last append to the history file;
  /// unforced appends are throttled to one per 250 ms and skip idle ticks.
  void flush_history(bool force);

  const net::QuantumNetwork& network_;
  const DaemonOptions options_;
  sim::ShardedSessionService service_;
  ctl::HistoryLog history_;
  // Counters already appended to the history file this run; lifetime =
  // history_.lifetime() once flush_history ran (loop thread only).
  sim::ProtocolMetrics history_flushed_;
  std::uint64_t history_flushed_slots_ = 0;
  std::uint64_t history_last_append_ns_ = 0;

  support::telemetry::TimeSeriesStore store_;
  support::telemetry::AlertRules alerts_;
  // Mirrors alerts_.firing() for /healthz (an atomic, not engine locks).
  std::atomic<std::uint64_t> alerts_firing_{0};
  // After what its thread uses (the store and the alert rules).
  support::telemetry::Sampler sampler_;

  // Lifecycle state, written on the loop thread, read by the acceptor
  // thread for /healthz and status.
  std::atomic<RunState> run_state_{RunState::kRunning};
  HealthSnapshot health_;
  std::unique_ptr<Instruments> instruments_;  // created by start()

  support::SlotScheduler scheduler_;
  ctl::ControlMailbox mailbox_;
  ctl::CommandRegistry registry_;
  // Last: its routes reference everything above, and it stops first.
  support::telemetry::HttpExporter exporter_;
};

}  // namespace muerp::daemon
