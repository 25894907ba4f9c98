// Stepped multi-user session service — the §II-B control loop as a
// long-lived object.
//
// ProtocolSimulator::run() scores a whole horizon in one call; a daemon
// (daemon::Daemon, behind muerpd) and incremental tests need the same loop
// advanced one execution window at a time while the process keeps serving
// /metrics.
// SessionService extracts that loop: each step() plays exactly one slot —
// Bernoulli arrival, admission routing against residual switch capacity,
// one execution attempt per active session at its tree rate (Eq. (2)),
// timeout expiry — and reports what happened. ProtocolSimulator delegates
// to it verbatim (same Rng call sequence, so seeded results are unchanged).
//
// Admission routing is pluggable: the default empty `algorithm` uses the
// capacity-sharing Prim pass (routing::prim_based_shared) the simulator
// always used; naming a routing::RouterRegistry entry ("alg3", "eqcast",
// ...) instead routes each arrival on a residual-capacity copy of the
// network, after which the returned tree is admitted only if it fits the
// qubits actually free — so even a capacity-oblivious baseline cannot
// oversubscribe a switch.
//
// Every step emits structured telemetry: session/* counters, gauges for
// active sessions and qubit utilization, a completion-slots histogram, and
// MUERP_LOG events (session/admitted, session/rejected, session/completed,
// session/timeout) carrying slot, group size and tree rate fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "routing/router.hpp"
#include "simulation/protocol.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/telemetry/flight_recorder.hpp"
#include "support/telemetry/link_ledger.hpp"
#include "support/telemetry/log.hpp"

namespace muerp::sim {

struct SessionServiceConfig {
  ProtocolParams params;
  /// RouterRegistry name used for admission routing; empty selects the
  /// built-in capacity-sharing Prim pass (the ProtocolSimulator default).
  std::string algorithm;
  /// Forwarded to the registry router when `algorithm` is non-empty.
  routing::RouterOptions router_options;
  /// Token-bucket budget for per-session MUERP_LOG events (admitted /
  /// rejected / completed / timeout). 0 (the default) means unlimited —
  /// the historical behavior; a daemon serving thousands of slots per
  /// second opts into a budget so the log ring keeps hours of context
  /// instead of milliseconds. Suppressed counts are readable via
  /// SessionService::log_events_suppressed().
  double log_events_per_second = 0.0;
  /// Arrival attempts per slot. 1 (the default) keeps the historical loop
  /// — one Bernoulli draw, one admission — and its exact Rng sequence.
  /// Larger values draw up to `arrival_burst` independent Bernoulli
  /// arrivals per slot and admit them as ONE batch through the routing
  /// kernel, amortizing CSR builds and residual-view syncs across the
  /// burst. This is a different (documented) Rng sequence: all arrival
  /// groups are generated before any routing happens. Flight records label
  /// the intake "single" at 1 and with the batch-policy name otherwise.
  std::size_t arrival_burst = 1;
  /// Contention-resolution policy for burst admission (ignored when
  /// arrival_burst <= 1). kFairShare requires the batch-native kernel:
  /// empty `algorithm` or "alg4".
  routing::BatchPolicy batch_policy = routing::BatchPolicy::kGivenOrder;
  /// Routes single arrivals (arrival_burst <= 1) through the batch kernel as
  /// a batch of one instead of the cold per-arrival pass. With the built-in
  /// shared-Prim admission (empty `algorithm`) admission decisions AND the
  /// Rng draw sequence are bit-identical to the cold path (the kernel draws
  /// the same uniform_index seed before routing, and route_one is
  /// bit-identical to prim_based_shared — tests assert both); what changes
  /// is cost: the kernel's pair slabs persist across slots, so steady-state
  /// pair admissions skip the per-arrival Dijkstra. This is the lever the sharded session plane uses for its
  /// per-lane throughput. With a registry `algorithm` the flag routes
  /// through Router::route_batch_trees, which skips the cold path's unused
  /// seed draw — a different Rng sequence, so those runs diverge from the
  /// cold path within a few slots.
  bool batch_single_arrivals = false;
  /// Optional admission-latency sink: when set, every routed arrival
  /// appends its admission wall time in microseconds (admitted or not, in
  /// admission order). The vector is appended to, never cleared — callers
  /// own its lifetime and reset. Used by bench/session_throughput for
  /// p50/p95/p99.
  std::vector<double>* admit_us = nullptr;
  /// Oracle knob: reconstruct the registry router's residual network from
  /// scratch on every admission (the historical O(topology) path) instead
  /// of syncing the cached ResidualNetworkView. Admission decisions are
  /// bit-identical either way — tests assert it.
  bool rebuild_residual_view = false;
  /// Optional flight recorder: when set, every arrival opens (or finalizes,
  /// for rejections) a SessionRecord and every terminal event closes it.
  /// The recorder never touches the Rng, so admission decisions and the
  /// draw sequence are bit-identical with and without it — tests assert it.
  /// Must outlive the service.
  support::telemetry::SessionRecorder* recorder = nullptr;
  /// Optional link ledger: when set, every admission outcome records the
  /// edges/switches its routed tree touched and every commit/release
  /// updates per-link occupancy. Like the recorder, the ledger never
  /// touches the Rng, so admission decisions and the draw sequence are
  /// bit-identical with and without it — tests assert it. Build it with
  /// ledger_edge_capacity() / ledger_switch_capacity() over the SAME
  /// network this service routes on; must outlive the service.
  support::telemetry::LinkLedger* ledger = nullptr;
};

/// Name of the built-in shared-Prim admission pass (the empty
/// SessionServiceConfig::algorithm) wherever a label is shown: flight
/// records, muerpd's --algorithm flag, /healthz and `ctl get algorithm`.
inline constexpr char kSharedPrimAlgorithm[] = "shared-prim";

/// Per-edge channel capacities for a LinkLedger over `network`: the
/// smallest channel_capacity() among an edge's switch endpoints, and 1 for
/// a user-to-user fiber (one direct channel saturates it — the paper's
/// "adequate fiber capacity" assumption keeps fibers otherwise unbounded).
std::vector<int> ledger_edge_capacity(const net::QuantumNetwork& network);

/// Per-switch qubit budgets for a LinkLedger over `network`, in
/// network.switches() order (the ledger's switch ordinal space).
std::vector<int> ledger_switch_capacity(const net::QuantumNetwork& network);

/// What one step() observed — the per-slot feed a daemon exports.
struct SlotReport {
  std::uint64_t slot = 0;
  bool arrived = false;
  bool admitted = false;
  /// Arrival/admission counts this slot (0 or 1 when arrival_burst <= 1;
  /// up to arrival_burst under burst intake).
  std::uint32_t arrivals = 0;
  std::uint32_t admissions = 0;
  /// Entanglement rate of the first tree admitted this slot (0 when none).
  double admitted_rate = 0.0;
  /// Sum of the rates of ALL trees admitted this slot. Equal to
  /// admitted_rate when at most one session is admitted per slot; under
  /// burst intake this is the field that sees every admission (satellite
  /// fix: admitted_rate alone truncated burst telemetry to the first tree).
  double admitted_rate_sum = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  /// Sessions holding qubits after this slot's expiries.
  std::size_t active_sessions = 0;
  /// Fraction of all switch qubits pledged after this slot.
  double qubit_utilization = 0.0;
};

class SessionService {
 public:
  /// `network` and `rng` must outlive the service; the rng is advanced by
  /// every step() in a deterministic order.
  SessionService(const net::QuantumNetwork& network,
                 SessionServiceConfig config, support::Rng& rng);

  /// Plays the next execution window. Call freely forever — the horizon in
  /// config.params bounds ProtocolSimulator, not the service.
  SlotReport step();

  std::uint64_t slot() const noexcept { return slot_; }
  std::size_t active_sessions() const noexcept { return active_.size(); }

  /// Gates the Bernoulli arrival draw. While enabled (the default) the Rng
  /// call sequence is exactly the historical one — ProtocolSimulator's
  /// seeded results depend on that. Disabling skips the draw entirely:
  /// active sessions keep playing execution windows but nothing new is
  /// admitted, which is how muerpd drains in-flight work on SIGTERM.
  void set_arrivals_enabled(bool enabled) noexcept {
    arrivals_enabled_ = enabled;
  }
  bool arrivals_enabled() const noexcept { return arrivals_enabled_; }

  /// Per-session log events dropped by the config.log_events_per_second
  /// budget (always 0 when the budget is 0 / telemetry is compiled out).
  std::uint64_t log_events_suppressed() const noexcept {
    return log_bucket_.suppressed();
  }

  // -------------------------------------------------------------------------
  // Runtime mutators for the live control plane (`muerpctl ctl set ...`).
  //
  // Safe only BETWEEN step() calls — muerpd applies them through its
  // tick-boundary mailbox. They mutate intake configuration, never Rng
  // state or active sessions, so a run whose changed knob is not exercised
  // stays bit-identical. The bool setters return false (message in *error
  // when non-null) instead of throwing: a bad live request must not take
  // the daemon down.

  /// Bernoulli arrival probability per slot. Rejects values outside [0, 1].
  bool set_arrival_prob(double prob, std::string* error = nullptr);
  double arrival_prob() const noexcept {
    return config_.params.arrival_prob_per_slot;
  }

  /// Arrival attempts per slot (>= 1). Switching 1 <-> N changes which
  /// (documented) draw sequence later slots use, exactly as if the service
  /// had been constructed with the new value.
  bool set_arrival_burst(std::size_t burst, std::string* error = nullptr);
  std::size_t arrival_burst() const noexcept { return config_.arrival_burst; }

  /// Burst contention policy. Rejects fair-share when the current
  /// algorithm lacks the batch-native kernel.
  bool set_batch_policy(routing::BatchPolicy policy,
                        std::string* error = nullptr);
  routing::BatchPolicy batch_policy() const noexcept {
    return config_.batch_policy;
  }

  /// Admission algorithm by registry name ("" = built-in shared Prim).
  /// Rejects unknown names and combinations the batch policy forbids.
  /// Active sessions keep the trees their admission-time algorithm built.
  bool set_algorithm(const std::string& algorithm,
                     std::string* error = nullptr);
  const std::string& algorithm() const noexcept { return config_.algorithm; }

  /// Reconfigures the per-session log-event budget (0 = unlimited).
  bool set_log_events_per_second(double per_second,
                                 std::string* error = nullptr);
  double log_events_per_second() const noexcept {
    return config_.log_events_per_second;
  }

  /// Fraction of all switch qubits currently pledged to sessions.
  double qubit_utilization() const noexcept;

  /// Totals so far with the mean/in-flight fields computed — the same
  /// numbers ProtocolSimulator::run() returns after the full horizon.
  ProtocolMetrics metrics() const;

 private:
  struct ActiveSession {
    net::EntanglementTree tree;
    std::uint64_t admitted_slot = 0;
    std::size_t group_size = 0;
    /// Flight-recorder id (0 when no recorder is attached).
    std::uint64_t record_id = 0;
    /// Ledger indices this tree occupies (empty when no ledger is
    /// attached); released with the tree.
    support::telemetry::TreeTouch touch;
  };

  /// Routes one arrival group; returns a feasible tree already committed to
  /// capacity_, or an infeasible one with nothing held. `capacity_guard`
  /// (when non-null) is set when a registry router's tree was refused by
  /// the admission capacity guard rather than found infeasible.
  net::EntanglementTree admit(const std::vector<net::NodeId>& group,
                              bool* capacity_guard = nullptr);

  /// Routes this slot's arrival_groups_: as one batch through the warm
  /// kernel when arrival_burst > 1 or batch_single_arrivals, else the lone
  /// group through admit() (which may set `capacity_guard`). Feeds
  /// config_.admit_us; outcomes come back in admission order.
  routing::BatchResult route_arrivals(bool* capacity_guard);

  /// (Re)creates the residual view / batch kernel the current algorithm +
  /// intake mode needs — shared by the constructor and the runtime setters.
  void ensure_admission_state();

  /// Ledger indices of every channel traversal (edges) and 2-qubit relay
  /// pledge (switch ordinals) of `tree` — empty when no ledger is attached.
  support::telemetry::TreeTouch make_touch(
      const net::EntanglementTree& tree) const;

  /// The constructor-time fair-share validation, reusable by the setters;
  /// returns false with *error when the combination is invalid.
  bool validate_batch_combination(const std::string& algorithm,
                                  routing::BatchPolicy policy,
                                  std::size_t burst,
                                  std::string* error) const;

  const net::QuantumNetwork* network_;
  SessionServiceConfig config_;
  support::Rng* rng_;
  const routing::Router* router_ = nullptr;  // null => shared-Prim admission
  bool arrivals_enabled_ = true;
  support::telemetry::LogTokenBucket log_bucket_;

  /// Cached residual-network copy for registry admission (satellite fix:
  /// the historical code rebuilt this O(topology) object every arrival).
  std::optional<net::ResidualNetworkView> residual_view_;
  /// Persistent batch kernel for burst intake with the built-in shared-Prim
  /// admission (slab arrays survive across slots).
  std::optional<routing::BatchRouter> batch_router_;
  /// Scratch: this slot's arrival groups and their batch request views.
  std::vector<std::vector<net::NodeId>> arrival_groups_;
  std::vector<routing::BatchRequest> batch_requests_;
  /// Scratch for per-route admission latencies (BatchOptions::admit_us is
  /// cleared per route call; config_.admit_us accumulates across slots).
  std::vector<double> admit_us_scratch_;

  net::CapacityState capacity_;
  /// NodeId -> ledger switch ordinal (-1 for non-switches); built only
  /// when a ledger is attached.
  std::vector<std::int32_t> switch_ordinal_;
  std::vector<ActiveSession> active_;
  ProtocolMetrics totals_;
  support::Accumulator completion_slots_;
  std::uint64_t slot_ = 0;
  int total_switch_qubits_ = 0;
  double utilization_sum_ = 0.0;
};

}  // namespace muerp::sim
