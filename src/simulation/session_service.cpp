#include "simulation/session_service.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "routing/plan.hpp"
#include "routing/prim_based.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::sim {

using support::telemetry::field;

/// Per-session events go through the config.log_events_per_second bucket.
constexpr auto kInfo = support::telemetry::LogLevel::kInfo;

namespace {

/// Admission-time fields common to every record of an arrival. The
/// recorder assigns id/lane/seq; the caller fills verdict fields.
support::telemetry::SessionRecord make_record_draft(
    std::uint64_t slot, const std::vector<net::NodeId>& group,
    const std::string& algorithm, const char* policy,
    const support::telemetry::RoutingWork& work) {
  support::telemetry::SessionRecord draft;
  draft.arrival_slot = slot;
  draft.group.assign(group.begin(), group.end());
  draft.algorithm = algorithm.empty() ? kSharedPrimAlgorithm : algorithm;
  draft.policy = policy;
  draft.work = work;
  return draft;
}

/// Satellite: per-reason rejection counters, one OpenMetrics family per
/// RejectReason (muerp_muerpd_rejects_<reason> after sanitization).
void count_reject_reason(support::telemetry::RejectReason reason) {
  using support::telemetry::RejectReason;
  switch (reason) {
    case RejectReason::kNoFeasibleTree:
      MUERP_COUNTER_INC("muerpd/rejects/no_feasible_tree");
      break;
    case RejectReason::kCapacityGuard:
      MUERP_COUNTER_INC("muerpd/rejects/capacity_guard");
      break;
    case RejectReason::kContentionLoss:
      MUERP_COUNTER_INC("muerpd/rejects/contention_loss");
      break;
    case RejectReason::kNone:
      break;
  }
}

}  // namespace

std::vector<int> ledger_edge_capacity(const net::QuantumNetwork& network) {
  std::vector<int> capacity;
  capacity.reserve(network.graph().edge_count());
  for (const auto& e : network.graph().edges()) {
    int cap = std::numeric_limits<int>::max();
    if (network.is_switch(e.a)) {
      cap = std::min(cap, network.channel_capacity(e.a));
    }
    if (network.is_switch(e.b)) {
      cap = std::min(cap, network.channel_capacity(e.b));
    }
    // A user-to-user fiber carries at most the one direct channel the pair
    // shares (§II-D); switch-less edges would otherwise report 0 forever.
    if (cap == std::numeric_limits<int>::max()) cap = 1;
    capacity.push_back(std::max(cap, 1));
  }
  return capacity;
}

std::vector<int> ledger_switch_capacity(const net::QuantumNetwork& network) {
  std::vector<int> capacity;
  capacity.reserve(network.switches().size());
  for (const net::NodeId sw : network.switches()) {
    capacity.push_back(network.qubits(sw));
  }
  return capacity;
}

SessionService::SessionService(const net::QuantumNetwork& network,
                               SessionServiceConfig config, support::Rng& rng)
    : network_(&network),
      config_(std::move(config)),
      rng_(&rng),
      log_bucket_(config_.log_events_per_second,
                  config_.log_events_per_second),
      capacity_(network) {
  assert(config_.params.min_group_size >= 2);
  assert(config_.params.max_group_size >= config_.params.min_group_size);
  assert(config_.params.max_group_size <= network_->users().size());
  assert(config_.arrival_burst >= 1);
  if (!config_.algorithm.empty()) {
    router_ = &routing::RouterRegistry::instance().at(config_.algorithm);
  }
  std::string error;
  if (!validate_batch_combination(config_.algorithm, config_.batch_policy,
                                  config_.arrival_burst, &error)) {
    // Fail at construction, not mid-simulation: the generic batch pass
    // would throw on the first burst anyway.
    throw std::invalid_argument("SessionServiceConfig: " + error);
  }
  ensure_admission_state();
  for (net::NodeId sw : network_->switches()) {
    total_switch_qubits_ += network_->qubits(sw);
  }
  if (config_.ledger != nullptr) {
    switch_ordinal_.assign(network_->node_count(), -1);
    for (std::size_t s = 0; s < network_->switches().size(); ++s) {
      switch_ordinal_[network_->switches()[s]] = static_cast<std::int32_t>(s);
    }
  }
}

support::telemetry::TreeTouch SessionService::make_touch(
    const net::EntanglementTree& tree) const {
  support::telemetry::TreeTouch touch;
  if (config_.ledger == nullptr) return touch;
  for (const net::Channel& ch : tree.channels) {
    const auto& path = ch.path;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto edge = network_->graph().find_edge(path[i], path[i + 1]);
      if (edge) touch.edges.push_back(static_cast<std::uint32_t>(*edge));
    }
    // Interior vertices pledge 2 qubits each (CapacityState::commit_channel).
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const std::int32_t ordinal = switch_ordinal_[path[i]];
      if (ordinal >= 0) {
        touch.switches.push_back(static_cast<std::uint32_t>(ordinal));
      }
    }
  }
  return touch;
}

bool SessionService::validate_batch_combination(const std::string& algorithm,
                                                routing::BatchPolicy policy,
                                                std::size_t burst,
                                                std::string* error) const {
  if ((burst > 1 || config_.batch_single_arrivals) &&
      policy == routing::BatchPolicy::kFairShare && !algorithm.empty() &&
      algorithm != "alg4") {
    if (error != nullptr) {
      *error =
          "fair-share batch admission needs the batch-native kernel "
          "(algorithm \"\" or \"alg4\"), not '" +
          algorithm + "'";
    }
    return false;
  }
  return true;
}

void SessionService::ensure_admission_state() {
  if (router_ != nullptr) {
    if (!residual_view_) residual_view_.emplace(*network_);
  } else if (config_.arrival_burst > 1 || config_.batch_single_arrivals) {
    if (!batch_router_) batch_router_.emplace(*network_);
  }
}

bool SessionService::set_arrival_prob(double prob, std::string* error) {
  if (!(prob >= 0.0 && prob <= 1.0)) {  // also rejects NaN
    if (error != nullptr) {
      *error = "arrival probability must be in [0, 1]";
    }
    return false;
  }
  config_.params.arrival_prob_per_slot = prob;
  return true;
}

bool SessionService::set_arrival_burst(std::size_t burst,
                                       std::string* error) {
  if (burst < 1) {
    if (error != nullptr) *error = "arrival burst must be >= 1";
    return false;
  }
  if (!validate_batch_combination(config_.algorithm, config_.batch_policy,
                                  burst, error)) {
    return false;
  }
  config_.arrival_burst = burst;
  ensure_admission_state();
  return true;
}

bool SessionService::set_batch_policy(routing::BatchPolicy policy,
                                      std::string* error) {
  if (!validate_batch_combination(config_.algorithm, policy,
                                  config_.arrival_burst, error)) {
    return false;
  }
  config_.batch_policy = policy;
  return true;
}

bool SessionService::set_algorithm(const std::string& algorithm,
                                   std::string* error) {
  const routing::Router* router = nullptr;
  if (!algorithm.empty()) {
    router = routing::RouterRegistry::instance().find(algorithm);
    if (router == nullptr) {
      if (error != nullptr) {
        std::string known;
        for (const std::string& name :
             routing::RouterRegistry::instance().names()) {
          if (!known.empty()) known += ", ";
          known += name;
        }
        *error = "unknown algorithm '" + algorithm + "' (known: " + known +
                 ", or \"\" for the built-in shared-Prim pass)";
      }
      return false;
    }
  }
  if (!validate_batch_combination(algorithm, config_.batch_policy,
                                  config_.arrival_burst, error)) {
    return false;
  }
  config_.algorithm = algorithm;
  router_ = router;
  ensure_admission_state();
  return true;
}

bool SessionService::set_log_events_per_second(double per_second,
                                               std::string* error) {
  if (!(per_second >= 0.0)) {  // also rejects NaN
    if (error != nullptr) {
      *error = "log events per second must be >= 0 (0 = unlimited)";
    }
    return false;
  }
  config_.log_events_per_second = per_second;
  log_bucket_.reconfigure(per_second, per_second);
  return true;
}

double SessionService::qubit_utilization() const noexcept {
  if (total_switch_qubits_ <= 0) return 0.0;
  int held = 0;
  for (net::NodeId sw : network_->switches()) {
    held += network_->qubits(sw) - capacity_.free_qubits(sw);
  }
  return static_cast<double>(held) / static_cast<double>(total_switch_qubits_);
}

net::EntanglementTree SessionService::admit(
    const std::vector<net::NodeId>& group, bool* capacity_guard) {
  const auto seed =
      static_cast<std::size_t>(rng_->uniform_index(group.size()));
  if (router_ == nullptr) {
    // prim_based_shared deducts as it commits; on failure, roll the partial
    // commits back so a rejected session holds nothing.
    auto tree = routing::prim_based_shared(*network_, group, seed, capacity_);
    if (!tree.feasible) {
      for (const net::Channel& ch : tree.channels) {
        capacity_.release_channel(ch.path);
      }
    }
    return tree;
  }
  // Registry algorithms see the residual network: a copy whose switch
  // budgets are the qubits currently free, so capacity-aware routers route
  // around held qubits. The cached view patches only the budgets that
  // changed since the last admission; the rebuild_residual_view oracle knob
  // keeps the historical from-scratch construction for bit-identity tests.
  std::optional<net::QuantumNetwork> rebuilt;
  const net::QuantumNetwork* residual = nullptr;
  if (config_.rebuild_residual_view) {
    std::vector<net::NodeKind> kinds(network_->node_count());
    std::vector<int> residual_qubits(network_->node_count());
    for (std::size_t i = 0; i < network_->node_count(); ++i) {
      const auto v = static_cast<net::NodeId>(i);
      kinds[i] = network_->kind(v);
      residual_qubits[i] = network_->is_switch(v) ? capacity_.free_qubits(v)
                                                  : network_->qubits(v);
    }
    rebuilt.emplace(
        network_->graph(),
        std::vector<support::Point2D>(network_->positions().begin(),
                                      network_->positions().end()),
        std::move(kinds), std::move(residual_qubits), network_->physical());
    residual = &*rebuilt;
  } else {
    residual = &residual_view_->sync(capacity_);
  }
  routing::RoutingRequest request;
  request.network = residual;
  request.users = group;
  request.rng = rng_;
  request.options = config_.router_options;
  net::EntanglementTree tree = router_->route_tree(request);
  // Admission guard: a capacity-oblivious baseline may return a tree the
  // residual network cannot host. Such a session is rejected, not trimmed.
  if (tree.feasible &&
      !routing::tree_fits_capacity(*network_, tree, capacity_)) {
    tree.feasible = false;
    if (capacity_guard != nullptr) *capacity_guard = true;
  }
  if (tree.feasible) {
    for (const net::Channel& ch : tree.channels) {
      capacity_.commit_channel(ch.path);
    }
  }
  return tree;
}

routing::BatchResult SessionService::route_arrivals(bool* capacity_guard) {
  if (config_.arrival_burst > 1 || config_.batch_single_arrivals) {
    batch_requests_.clear();
    for (const std::vector<net::NodeId>& group : arrival_groups_) {
      batch_requests_.push_back({std::span<const net::NodeId>(group)});
    }
    routing::BatchOptions options;
    options.policy = config_.batch_policy;
    // Service semantics: a rejected session holds nothing (the same rollback
    // admit() performs for the shared-Prim path).
    options.release_on_failure = true;
    if (config_.admit_us != nullptr) {
      options.admit_us = &admit_us_scratch_;  // kernel clears it per call
    }
    routing::BatchResult result;
    if (router_ == nullptr) {
      result = batch_router_->route_shared(batch_requests_, options, *rng_,
                                           capacity_);
    } else {
      routing::BatchRoutingRequest request;
      request.network = network_;
      request.groups = batch_requests_;
      request.batch = options;
      request.rng = rng_;
      request.options = config_.router_options;
      request.capacity = &capacity_;
      request.residual_view = &*residual_view_;
      result = router_->route_batch_trees(request);
    }
    if (config_.admit_us != nullptr) {
      config_.admit_us->insert(config_.admit_us->end(),
                               admit_us_scratch_.begin(),
                               admit_us_scratch_.end());
    }
    return result;
  }
  // Cold intake: arrival_burst == 1 draws at most one group per slot.
  assert(arrival_groups_.size() == 1);
  const std::uint64_t admit_t0 = config_.admit_us != nullptr
                                     ? support::telemetry::monotonic_now_ns()
                                     : 0;
  routing::BatchResult result;
  result.outcomes.push_back(
      {0, admit(arrival_groups_.front(), capacity_guard)});
  if (config_.admit_us != nullptr) {
    config_.admit_us->push_back(
        static_cast<double>(support::telemetry::monotonic_now_ns() -
                            admit_t0) /
        1e3);
  }
  result.groups_served = result.outcomes.front().tree.feasible ? 1 : 0;
  return result;
}

SlotReport SessionService::step() {
  SlotReport report;
  report.slot = ++slot_;

  // 1. Arrivals: the central node routes against residual capacity, in
  //    three stages — draw, route, account. The enabled check comes first
  //    so a draining service (arrivals off) skips the draw. Each of the
  //    arrival_burst attempts draws bernoulli, then size, then members;
  //    with arrival_burst == 1 that is the untouched historical sequence.
  //    Larger bursts draw every group before any routing happens — a
  //    different, documented sequence.
  arrival_groups_.clear();
  if (arrivals_enabled_) {
    for (std::size_t a = 0; a < config_.arrival_burst; ++a) {
      if (!rng_->bernoulli(config_.params.arrival_prob_per_slot)) continue;
      const std::size_t size =
          config_.params.min_group_size +
          rng_->uniform_index(config_.params.max_group_size -
                              config_.params.min_group_size + 1);
      std::vector<net::NodeId> group;
      for (std::size_t idx :
           rng_->sample_indices(network_->users().size(), size)) {
        group.push_back(network_->users()[idx]);
      }
      arrival_groups_.push_back(std::move(group));
    }
  }
  if (!arrival_groups_.empty()) {
    const std::size_t arrivals = arrival_groups_.size();
    report.arrived = true;
    report.arrivals = static_cast<std::uint32_t>(arrivals);
    totals_.sessions_arrived += arrivals;
    MUERP_COUNTER_ADD("session/arrived", arrivals);

    const bool recording = config_.recorder != nullptr;
    const auto work_before = recording
                                 ? support::telemetry::capture_routing_work()
                                 : support::telemetry::RoutingWork{};
    bool capacity_guard = false;
    routing::BatchResult result = route_arrivals(&capacity_guard);
    // One routing call admits the whole burst, so every record of the batch
    // carries the same batch-level work delta (documented on RoutingWork).
    const auto work =
        recording ? support::telemetry::routing_work_delta(
                        work_before, support::telemetry::capture_routing_work())
                  : support::telemetry::RoutingWork{};

    // Per-session accounting in admission order. A rejection is a
    // CONTENTION loss when batch siblings were served this slot — the
    // policy granted them the capacity this group was refused; with nothing
    // served (or a batch of one) the residual network simply had no
    // feasible tree, unless the capacity guard refused a registry router's
    // tree.
    const bool contended = arrivals > 1 && result.groups_served > 0;
    const char* policy_label =
        config_.arrival_burst == 1
            ? "single"
            : routing::batch_policy_name(config_.batch_policy);
    for (routing::BatchGroupOutcome& outcome : result.outcomes) {
      const std::vector<net::NodeId>& group =
          arrival_groups_[outcome.request_index];
      const std::size_t size = group.size();
      net::EntanglementTree& tree = outcome.tree;
      auto draft = recording ? make_record_draft(slot_, group,
                                                 config_.algorithm,
                                                 policy_label, work)
                             : support::telemetry::SessionRecord{};
      if (tree.feasible) {
        if (!report.admitted) {
          report.admitted = true;
          report.admitted_rate = tree.rate;
        }
        report.admitted_rate_sum += tree.rate;
        ++report.admissions;
        ++totals_.sessions_admitted;
        MUERP_COUNTER_INC("session/admitted");
        MUERP_HISTOGRAM_OBSERVE("session/admitted_rate_ppm", tree.rate * 1e6);
        MUERP_LOG_RATE_LIMITED(log_bucket_, kInfo, "session/admitted",
                               field("slot", slot_), field("group_size", size),
                               field("rate", tree.rate),
                               field("channels", tree.channels.size()),
                               field("active", active_.size() + 1));
        std::uint64_t record_id = 0;
        if (recording) {
          draft.tree_rate = tree.rate;
          draft.tree_channels =
              static_cast<std::uint32_t>(tree.channels.size());
          record_id = config_.recorder->open(std::move(draft));
        }
        auto touch = make_touch(tree);
        if (config_.ledger != nullptr) {
          config_.ledger->record_admit(touch, slot_);
        }
        active_.push_back(
            {std::move(tree), slot_, size, record_id, std::move(touch)});
        continue;
      }
      ++totals_.sessions_rejected;
      const double utilization = qubit_utilization();
      MUERP_COUNTER_INC("session/rejected");
      MUERP_LOG_RATE_LIMITED(log_bucket_, kInfo, "session/rejected",
                             field("slot", slot_), field("group_size", size),
                             field("active", active_.size()),
                             field("qubit_utilization", utilization));
      // Rejection with most of the qubit pool pledged is saturation (the
      // switch fabric, not the topology, refused the session).
      if (utilization >= 0.9) {
        MUERP_COUNTER_INC("session/switch_saturation");
        MUERP_LOG_INFO("session/switch_saturation", field("slot", slot_),
                       field("qubit_utilization", utilization),
                       field("active", active_.size()));
      }
      using support::telemetry::RejectReason;
      const RejectReason reason =
          capacity_guard ? RejectReason::kCapacityGuard
          : contended    ? RejectReason::kContentionLoss
                         : RejectReason::kNoFeasibleTree;
      count_reject_reason(reason);
      if (recording) {
        draft.reject_reason = reason;
        draft.saturated = utilization >= 0.9;
        config_.recorder->reject(std::move(draft));
      }
      if (config_.ledger != nullptr) {
        config_.ledger->record_reject(make_touch(tree), contended, slot_);
      }
    }
  }

  // 2. Execution windows: every active session attempts its whole tree;
  //    per-window success probability is exactly Eq. (2).
  for (std::size_t i = 0; i < active_.size();) {
    ActiveSession& session = active_[i];
    const bool success = rng_->bernoulli(session.tree.rate);
    const bool timed_out = !success && slot_ - session.admitted_slot >=
                                           config_.params.session_timeout_slots;
    if (success || timed_out) {
      const std::uint64_t held_slots = slot_ - session.admitted_slot + 1;
      if (success) {
        ++report.completed;
        ++totals_.sessions_completed;
        completion_slots_.add(static_cast<double>(held_slots));
        MUERP_COUNTER_INC("session/completed");
        MUERP_HISTOGRAM_OBSERVE("session/completion_slots", held_slots);
        MUERP_LOG_RATE_LIMITED(log_bucket_, kInfo, "session/completed",
                               field("slot", slot_),
                               field("group_size", session.group_size),
                               field("held_slots", held_slots));
      } else {
        ++report.timed_out;
        ++totals_.sessions_timed_out;
        MUERP_COUNTER_INC("session/timed_out");
        MUERP_LOG_RATE_LIMITED(log_bucket_, kInfo, "session/timeout",
                               field("slot", slot_),
                               field("group_size", session.group_size),
                               field("held_slots", held_slots),
                               field("rate", session.tree.rate));
      }
      if (config_.recorder != nullptr && session.record_id != 0) {
        config_.recorder->close(
            session.record_id,
            success ? support::telemetry::SessionState::kCompleted
                    : support::telemetry::SessionState::kTimedOut,
            slot_, held_slots);
      }
      for (const net::Channel& ch : session.tree.channels) {
        capacity_.release_channel(ch.path);
      }
      if (config_.ledger != nullptr) {
        config_.ledger->record_release(session.touch, slot_);
      }
      active_[i] = std::move(active_.back());
      active_.pop_back();
    } else {
      ++i;
    }
  }

  report.active_sessions = active_.size();
  report.qubit_utilization = qubit_utilization();
  utilization_sum_ += report.qubit_utilization;
  MUERP_GAUGE_SET("session/active", active_.size());
  MUERP_GAUGE_SET("session/qubit_utilization", report.qubit_utilization);
  return report;
}

ProtocolMetrics SessionService::metrics() const {
  ProtocolMetrics m = totals_;
  m.sessions_in_flight = active_.size();
  m.mean_completion_slots = completion_slots_.mean();
  m.mean_qubit_utilization =
      slot_ == 0 ? 0.0 : utilization_sum_ / static_cast<double>(slot_);
  return m;
}

}  // namespace muerp::sim
