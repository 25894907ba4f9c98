#include "simulation/session_service.hpp"

#include <gtest/gtest.h>

#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "experiment/scenario.hpp"
#include "simulation/protocol.hpp"

namespace muerp::sim {
namespace {

net::QuantumNetwork service_network(std::uint64_t seed = 11) {
  experiment::Scenario s;
  s.switch_count = 30;
  s.user_count = 8;
  s.qubits_per_switch = 6;
  s.attenuation = 2e-5;
  s.seed = seed;
  return experiment::instantiate(s, 0).network;
}

ProtocolParams light_params() {
  ProtocolParams params;
  params.horizon_slots = 4000;
  params.arrival_prob_per_slot = 0.05;
  return params;
}

/// Steps a service over a full horizon and returns its metrics plus every
/// slot report for invariants checking.
ProtocolMetrics run_stepped(SessionService& service, std::uint64_t slots,
                            std::vector<SlotReport>* reports = nullptr) {
  for (std::uint64_t i = 0; i < slots; ++i) {
    const SlotReport report = service.step();
    if (reports != nullptr) reports->push_back(report);
  }
  return service.metrics();
}

TEST(SessionService, SteppedRunMatchesProtocolSimulator) {
  const auto net = service_network();
  const ProtocolParams params = light_params();

  support::Rng sim_rng(7);
  const ProtocolMetrics expected =
      ProtocolSimulator(net, params).run(sim_rng);

  support::Rng svc_rng(7);
  SessionService service(net, SessionServiceConfig{params, "", {}}, svc_rng);
  const ProtocolMetrics actual = run_stepped(service, params.horizon_slots);

  EXPECT_EQ(actual.sessions_arrived, expected.sessions_arrived);
  EXPECT_EQ(actual.sessions_admitted, expected.sessions_admitted);
  EXPECT_EQ(actual.sessions_rejected, expected.sessions_rejected);
  EXPECT_EQ(actual.sessions_completed, expected.sessions_completed);
  EXPECT_EQ(actual.sessions_timed_out, expected.sessions_timed_out);
  EXPECT_EQ(actual.sessions_in_flight, expected.sessions_in_flight);
  EXPECT_DOUBLE_EQ(actual.mean_completion_slots,
                   expected.mean_completion_slots);
  EXPECT_DOUBLE_EQ(actual.mean_qubit_utilization,
                   expected.mean_qubit_utilization);
}

TEST(SessionService, SlotReportsSumToMetrics) {
  const auto net = service_network();
  const ProtocolParams params = light_params();
  support::Rng rng(3);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  std::vector<SlotReport> reports;
  const ProtocolMetrics m =
      run_stepped(service, params.horizon_slots, &reports);

  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  for (const SlotReport& r : reports) {
    arrived += r.arrived ? 1 : 0;
    admitted += r.admitted ? 1 : 0;
    completed += r.completed;
    timed_out += r.timed_out;
    EXPECT_GE(r.qubit_utilization, 0.0);
    EXPECT_LE(r.qubit_utilization, 1.0);
    if (r.admitted) {
      EXPECT_GT(r.admitted_rate, 0.0);
    }
  }
  EXPECT_EQ(arrived, m.sessions_arrived);
  EXPECT_EQ(admitted, m.sessions_admitted);
  EXPECT_EQ(completed, m.sessions_completed);
  EXPECT_EQ(timed_out, m.sessions_timed_out);
  EXPECT_EQ(reports.back().slot, params.horizon_slots);
  EXPECT_EQ(service.slot(), params.horizon_slots);
  EXPECT_EQ(m.sessions_in_flight, service.active_sessions());
}

TEST(SessionService, RegistryAlgorithmAccountingIsConsistent) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  SessionServiceConfig config;
  config.params = params;
  config.algorithm = "alg3";
  config.router_options.pin_alg2_sufficient = false;
  support::Rng rng(5);
  SessionService service(net, config, rng);
  const ProtocolMetrics m = run_stepped(service, params.horizon_slots);

  EXPECT_GT(m.sessions_arrived, 0u);
  EXPECT_EQ(m.sessions_arrived, m.sessions_admitted + m.sessions_rejected);
  EXPECT_EQ(m.sessions_admitted,
            m.sessions_completed + m.sessions_timed_out + m.sessions_in_flight);
  EXPECT_GE(m.mean_qubit_utilization, 0.0);
  EXPECT_LE(m.mean_qubit_utilization, 1.0);
}

TEST(SessionService, RegistryAlgorithmNeverOversubscribesCapacity) {
  const auto net = service_network(17);
  ProtocolParams params;
  params.horizon_slots = 3000;
  params.arrival_prob_per_slot = 0.5;  // heavy load to stress admission
  params.session_timeout_slots = 800;
  SessionServiceConfig config;
  config.params = params;
  config.algorithm = "eqcast";  // capacity-oblivious baseline
  config.router_options.pin_alg2_sufficient = false;
  support::Rng rng(9);
  SessionService service(net, config, rng);
  for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
    service.step();
    // The residual-capacity guard must keep the pledge fraction physical
    // after every single slot, even for a router that ignores capacity.
    ASSERT_LE(service.qubit_utilization(), 1.0 + 1e-12) << "slot " << i;
  }
}

TEST(SessionService, UnknownAlgorithmThrows) {
  const auto net = service_network();
  SessionServiceConfig config;
  config.algorithm = "definitely-not-a-router";
  support::Rng rng(1);
  EXPECT_THROW(SessionService(net, config, rng), std::exception);
}

TEST(SessionService, ZeroArrivalStaysIdle) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.arrival_prob_per_slot = 0.0;
  support::Rng rng(2);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  const ProtocolMetrics m = run_stepped(service, 500);
  EXPECT_EQ(m.sessions_arrived, 0u);
  EXPECT_EQ(service.active_sessions(), 0u);
  EXPECT_DOUBLE_EQ(service.qubit_utilization(), 0.0);
}

TEST(SessionService, DisablingArrivalsDrainsTheServiceForShutdown) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.arrival_prob_per_slot = 0.3;  // keep sessions in flight
  support::Rng rng(6);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  run_stepped(service, 500);
  EXPECT_TRUE(service.arrivals_enabled());

  service.set_arrivals_enabled(false);
  EXPECT_FALSE(service.arrivals_enabled());
  const std::uint64_t arrived_at_stop = service.metrics().sessions_arrived;
  // Every admitted session either completes or times out within the
  // timeout horizon once the arrival process is frozen.
  run_stepped(service, params.session_timeout_slots + 1);
  EXPECT_EQ(service.metrics().sessions_arrived, arrived_at_stop);
  EXPECT_EQ(service.active_sessions(), 0u);

  service.set_arrivals_enabled(true);
  const ProtocolMetrics after = run_stepped(service, 500);
  EXPECT_GT(after.sessions_arrived, arrived_at_stop);
}

TEST(SessionService, LogRateLimitCountsSuppressedSessionEvents) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.arrival_prob_per_slot = 0.5;
  support::Rng rng(8);
  SessionServiceConfig config{params, "", {}};
  EXPECT_EQ(config.log_events_per_second, 0.0);  // unlimited by default
  config.log_events_per_second = 0.001;  // ~one token, then suppression
  SessionService service(net, config, rng);
  EXPECT_EQ(service.log_events_suppressed(), 0u);

  // Suppression only counts events that clear the level threshold, so opt
  // into kInfo (ring-only, no stream spam) for the duration of the run.
  support::telemetry::set_log_sink(nullptr);
  support::telemetry::set_log_level(support::telemetry::LogLevel::kInfo);
  const ProtocolMetrics m = run_stepped(service, 2000);
  support::telemetry::set_log_level(support::telemetry::LogLevel::kWarn);
  support::telemetry::set_log_sink(&std::cerr);

  EXPECT_GT(m.sessions_arrived, 100u);
#if MUERP_TELEMETRY_ENABLED
  // Per-session info events vastly outnumber the bucket's budget.
  EXPECT_GT(service.log_events_suppressed(), 0u);
#else
  EXPECT_EQ(service.log_events_suppressed(), 0u);
#endif
}

TEST(SessionService, CachedResidualViewMatchesRebuildOracle) {
  // Satellite fix: registry admission used to reconstruct the full residual
  // QuantumNetwork every arrival. The cached ResidualNetworkView patches
  // switch budgets in place; admission decisions must be bit-identical.
  for (const char* algorithm : {"alg3", "eqcast"}) {
    const auto net = service_network();
    ProtocolParams params = light_params();
    params.horizon_slots = 1500;
    params.arrival_prob_per_slot = 0.3;

    SessionServiceConfig cached_config;
    cached_config.params = params;
    cached_config.algorithm = algorithm;
    cached_config.router_options.pin_alg2_sufficient = false;
    SessionServiceConfig oracle_config = cached_config;
    oracle_config.rebuild_residual_view = true;

    support::Rng cached_rng(13);
    support::Rng oracle_rng(13);
    SessionService cached(net, cached_config, cached_rng);
    SessionService oracle(net, oracle_config, oracle_rng);

    for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
      const SlotReport a = cached.step();
      const SlotReport b = oracle.step();
      ASSERT_EQ(a.arrived, b.arrived) << algorithm << " slot " << i;
      ASSERT_EQ(a.admitted, b.admitted) << algorithm << " slot " << i;
      ASSERT_EQ(a.admitted_rate, b.admitted_rate)
          << algorithm << " slot " << i;  // bitwise
      ASSERT_EQ(a.completed, b.completed) << algorithm << " slot " << i;
      ASSERT_EQ(a.timed_out, b.timed_out) << algorithm << " slot " << i;
      ASSERT_EQ(a.qubit_utilization, b.qubit_utilization)
          << algorithm << " slot " << i;
    }
    const ProtocolMetrics ma = cached.metrics();
    const ProtocolMetrics mb = oracle.metrics();
    EXPECT_EQ(ma.sessions_admitted, mb.sessions_admitted);
    EXPECT_EQ(ma.sessions_rejected, mb.sessions_rejected);
    EXPECT_GT(ma.sessions_arrived, 0u);
  }
}

TEST(SessionService, BurstIntakeAccountingStaysConsistent) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 2000;
  params.arrival_prob_per_slot = 0.3;
  SessionServiceConfig config{params, "", {}};
  config.arrival_burst = 4;
  support::Rng rng(19);
  SessionService service(net, config, rng);

  std::vector<SlotReport> reports;
  const ProtocolMetrics m =
      run_stepped(service, params.horizon_slots, &reports);

  std::uint64_t arrivals = 0;
  std::uint64_t admissions = 0;
  for (const SlotReport& r : reports) {
    EXPECT_LE(r.arrivals, config.arrival_burst);
    EXPECT_LE(r.admissions, r.arrivals);
    EXPECT_EQ(r.arrived, r.arrivals > 0);
    EXPECT_EQ(r.admitted, r.admissions > 0);
    if (r.admitted) {
      EXPECT_GT(r.admitted_rate, 0.0);
    }
    EXPECT_GE(r.qubit_utilization, 0.0);
    EXPECT_LE(r.qubit_utilization, 1.0);
    arrivals += r.arrivals;
    admissions += r.admissions;
  }
  EXPECT_GT(m.sessions_arrived, 0u);
  EXPECT_EQ(arrivals, m.sessions_arrived);
  EXPECT_EQ(admissions, m.sessions_admitted);
  EXPECT_EQ(m.sessions_arrived, m.sessions_admitted + m.sessions_rejected);
  EXPECT_EQ(m.sessions_admitted,
            m.sessions_completed + m.sessions_timed_out + m.sessions_in_flight);
}

TEST(SessionService, BurstIntakeWorksAcrossPoliciesAndRouters) {
  // Every (policy, router) combination the service supports stays
  // physical under heavy burst load: no oversubscription, consistent
  // accounting. fair-share is restricted to the batch-native kernels.
  struct Case {
    const char* algorithm;
    routing::BatchPolicy policy;
  };
  const Case cases[] = {
      {"", routing::BatchPolicy::kFairShare},
      {"", routing::BatchPolicy::kGreedy},
      {"alg4", routing::BatchPolicy::kFairShare},
      {"alg3", routing::BatchPolicy::kGivenOrder},
      {"eqcast", routing::BatchPolicy::kGreedy},
      {"eqcast", routing::BatchPolicy::kSmallestFirst},
  };
  for (const Case& c : cases) {
    const auto net = service_network(17);
    ProtocolParams params;
    params.horizon_slots = 600;
    params.arrival_prob_per_slot = 0.5;
    params.session_timeout_slots = 300;
    SessionServiceConfig config;
    config.params = params;
    config.algorithm = c.algorithm;
    config.router_options.pin_alg2_sufficient = false;
    config.arrival_burst = 3;
    config.batch_policy = c.policy;
    support::Rng rng(23);
    SessionService service(net, config, rng);
    for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
      service.step();
      ASSERT_LE(service.qubit_utilization(), 1.0 + 1e-12)
          << c.algorithm << "/" << routing::batch_policy_name(c.policy)
          << " slot " << i;
    }
    const ProtocolMetrics m = service.metrics();
    EXPECT_GT(m.sessions_arrived, 0u)
        << c.algorithm << "/" << routing::batch_policy_name(c.policy);
    EXPECT_EQ(m.sessions_arrived, m.sessions_admitted + m.sessions_rejected);
  }
}

TEST(SessionService, BurstFairShareNeedsBatchNativeKernel) {
  const auto net = service_network();
  SessionServiceConfig config;
  config.params = light_params();
  config.arrival_burst = 2;
  config.batch_policy = routing::BatchPolicy::kFairShare;
  config.algorithm = "alg3";
  config.router_options.pin_alg2_sufficient = false;
  support::Rng rng(1);
  EXPECT_THROW(SessionService(net, config, rng), std::invalid_argument);

  config.algorithm = "alg4";
  support::Rng rng2(1);
  EXPECT_NO_THROW(SessionService(net, config, rng2));
  config.algorithm = "";
  support::Rng rng3(1);
  EXPECT_NO_THROW(SessionService(net, config, rng3));
}

TEST(SessionService, BatchSingleArrivalsBitIdenticalToHistoricalPath) {
  // batch_single_arrivals re-routes each single arrival through the batch
  // kernel; decisions, metrics AND the Rng draw sequence must match the
  // historical per-arrival path exactly. The Rng objects are compared via
  // identical downstream behavior: both services keep producing identical
  // slots for the whole horizon, which would diverge after one extra or
  // missing draw.
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 2000;
  params.arrival_prob_per_slot = 0.3;

  // Keep-everything recorders: the flight records must match too, policy
  // label included — the intake is "single" on both paths. Only `work`
  // may differ: it counts the routing work each path performed (cold SPF
  // runs vs warm-kernel Dijkstra runs and slab hits), which is the cost
  // the warm path exists to change.
  support::telemetry::SessionRecorderOptions keep_all;
  keep_all.capacity = 4096;
  keep_all.happy_keep_per_1024 = 1024;
  support::telemetry::SessionRecorder historical_recorder(keep_all);
  support::telemetry::SessionRecorder batched_recorder(keep_all);

  SessionServiceConfig historical{params, "", {}};
  historical.recorder = &historical_recorder;
  support::Rng historical_rng(29);
  SessionService historical_service(net, historical, historical_rng);

  SessionServiceConfig batched{params, "", {}};
  batched.batch_single_arrivals = true;
  batched.recorder = &batched_recorder;
  support::Rng batched_rng(29);
  SessionService batched_service(net, batched, batched_rng);

  for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
    const SlotReport a = historical_service.step();
    const SlotReport b = batched_service.step();
    ASSERT_EQ(a.arrivals, b.arrivals) << "slot " << i;
    ASSERT_EQ(a.admissions, b.admissions) << "slot " << i;
    ASSERT_EQ(a.admitted_rate, b.admitted_rate) << "slot " << i;
    ASSERT_EQ(a.admitted_rate_sum, b.admitted_rate_sum) << "slot " << i;
    ASSERT_EQ(a.completed, b.completed) << "slot " << i;
    ASSERT_EQ(a.timed_out, b.timed_out) << "slot " << i;
    ASSERT_EQ(a.active_sessions, b.active_sessions) << "slot " << i;
    ASSERT_EQ(a.qubit_utilization, b.qubit_utilization) << "slot " << i;
  }
  const ProtocolMetrics expected = historical_service.metrics();
  const ProtocolMetrics actual = batched_service.metrics();
  EXPECT_EQ(actual.sessions_arrived, expected.sessions_arrived);
  EXPECT_EQ(actual.sessions_admitted, expected.sessions_admitted);
  EXPECT_EQ(actual.sessions_rejected, expected.sessions_rejected);
  EXPECT_EQ(actual.sessions_completed, expected.sessions_completed);
  EXPECT_EQ(actual.mean_completion_slots, expected.mean_completion_slots);
  EXPECT_EQ(actual.mean_qubit_utilization, expected.mean_qubit_utilization);

  auto a = historical_recorder.records();
  auto b = batched_recorder.records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i].work = b[i].work = {};
    ASSERT_EQ(a[i], b[i]) << "record " << i << ": policy " << a[i].policy
                          << " vs " << b[i].policy << ", algorithm "
                          << a[i].algorithm << " vs " << b[i].algorithm;
  }
}

#if MUERP_TELEMETRY_ENABLED
TEST(SessionService, RejectReasonsFollowTheAdmissionPath) {
  // Each admission path names its own refusals, and every rejection gets
  // exactly one reason: per-reason record counts sum to sessions_rejected.
  using support::telemetry::RejectReason;
  struct Case {
    const char* algorithm;
    std::size_t arrival_burst;
    RejectReason expected;  // must occur
    bool only_expected;     // ... and be the only reason seen
  };
  const Case cases[] = {
      // Alg-2 pinned to its sufficient condition routes as if every switch
      // had 2|U| qubits — capacity-oblivious, so the admission guard
      // refuses its trees.
      {"alg2", 1, RejectReason::kCapacityGuard, false},
      // Saturated bursts refuse groups whose siblings took the capacity.
      {"", 4, RejectReason::kContentionLoss, false},
      // Shared-Prim single intake never contends and has no guard.
      {"", 1, RejectReason::kNoFeasibleTree, true},
  };
  // A starved fabric (3 qubits per switch, weak swaps, short timeout)
  // keeps enough qubits pledged for admission to refuse groups.
  experiment::Scenario scenario;
  scenario.switch_count = 30;
  scenario.user_count = 8;
  scenario.qubits_per_switch = 3;
  scenario.swap_success = 0.5;
  scenario.seed = 11;
  const auto net = experiment::instantiate(scenario, 0).network;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algorithm) + " burst " +
                 std::to_string(c.arrival_burst));
    support::telemetry::SessionRecorderOptions options;
    options.capacity = std::size_t{1} << 16;  // retain every rejection
    support::telemetry::SessionRecorder recorder(options);
    SessionServiceConfig config;
    config.params.arrival_prob_per_slot = 0.5;
    config.params.session_timeout_slots = 50;
    config.algorithm = c.algorithm;
    config.router_options.pin_alg2_sufficient = true;
    config.arrival_burst = c.arrival_burst;
    config.recorder = &recorder;
    support::Rng rng(9);
    SessionService service(net, config, rng);
    const ProtocolMetrics m = run_stepped(service, 1500);

    support::telemetry::SessionFilter rejected;
    rejected.state = support::telemetry::SessionState::kRejected;
    std::map<RejectReason, std::uint64_t> by_reason;
    for (const auto& record : recorder.records(rejected)) {
      ++by_reason[record.reject_reason];
    }
    std::uint64_t total = 0;
    for (const auto& [reason, count] : by_reason) {
      EXPECT_NE(reason, RejectReason::kNone);
      if (c.only_expected) {
        EXPECT_EQ(reason, c.expected);
      }
      total += count;
    }
    EXPECT_GT(by_reason[c.expected], 0u);
    EXPECT_EQ(total, m.sessions_rejected);
  }
}
#endif  // MUERP_TELEMETRY_ENABLED

TEST(SessionService, AdmittedRateSumSeesEveryAdmissionInABurst) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 1500;
  params.arrival_prob_per_slot = 0.5;
  SessionServiceConfig config{params, "", {}};
  config.arrival_burst = 4;
  support::Rng rng(31);
  SessionService service(net, config, rng);

  bool saw_multi_admission_slot = false;
  for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
    const SlotReport r = service.step();
    if (r.admissions == 0) {
      EXPECT_EQ(r.admitted_rate_sum, 0.0);
      continue;
    }
    // admitted_rate keeps its historical meaning (first tree); the sum
    // covers the whole burst, so it dominates once a slot admits > 1.
    EXPECT_GT(r.admitted_rate_sum, 0.0);
    EXPECT_GE(r.admitted_rate_sum, r.admitted_rate);
    if (r.admissions == 1) {
      EXPECT_EQ(r.admitted_rate_sum, r.admitted_rate);
    } else {
      EXPECT_GT(r.admitted_rate_sum, r.admitted_rate);
      saw_multi_admission_slot = true;
    }
  }
  EXPECT_TRUE(saw_multi_admission_slot);
}

TEST(SessionService, AdmitLatencySinkRecordsEveryRoutedArrival) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 800;
  params.arrival_prob_per_slot = 0.4;
  // All three admission paths feed the sink: single historical, single
  // batched, burst.
  for (const std::size_t burst : {std::size_t{1}, std::size_t{3}}) {
    for (const bool batch_single : {false, true}) {
      if (burst > 1 && batch_single) continue;  // burst ignores the knob
      std::vector<double> admit_us;
      SessionServiceConfig config{params, "", {}};
      config.arrival_burst = burst;
      config.batch_single_arrivals = batch_single;
      config.admit_us = &admit_us;
      support::Rng rng(37);
      SessionService service(net, config, rng);
      const ProtocolMetrics m = run_stepped(service, params.horizon_slots);
      ASSERT_GT(m.sessions_arrived, 0u);
      EXPECT_EQ(admit_us.size(), m.sessions_arrived)
          << "burst " << burst << " batch_single " << batch_single;
      for (const double us : admit_us) EXPECT_GE(us, 0.0);
    }
  }
}

TEST(SessionService, StepsBeyondProtocolHorizonKeepWorking) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 100;  // the service is not bounded by it
  support::Rng rng(4);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  const ProtocolMetrics m = run_stepped(service, 2000);
  EXPECT_EQ(service.slot(), 2000u);
  EXPECT_GT(m.sessions_arrived, 0u);
}

// ---------------------------------------------------------------------------
// Runtime mutators (the ctl plane's `set` verbs apply these between steps).

TEST(SessionService, IdentitySettersPreserveTheSlotTrajectory) {
  const auto net = service_network();
  const ProtocolParams params = light_params();

  support::Rng plain_rng(7);
  SessionService plain(net, SessionServiceConfig{params, "", {}}, plain_rng);
  const ProtocolMetrics expected = run_stepped(plain, 2000);

  // Same run, but mid-flight every setter re-applies its current value —
  // what a pause/resume cycle with unchanged config does. Must be a no-op.
  support::Rng poked_rng(7);
  SessionService poked(net, SessionServiceConfig{params, "", {}}, poked_rng);
  run_stepped(poked, 1000);
  std::string error;
  ASSERT_TRUE(poked.set_arrival_prob(poked.arrival_prob(), &error)) << error;
  ASSERT_TRUE(poked.set_arrival_burst(poked.arrival_burst(), &error)) << error;
  ASSERT_TRUE(poked.set_batch_policy(poked.batch_policy(), &error)) << error;
  ASSERT_TRUE(poked.set_algorithm(poked.algorithm(), &error)) << error;
  ASSERT_TRUE(poked.set_log_events_per_second(poked.log_events_per_second(),
                                              &error))
      << error;
  const ProtocolMetrics actual = run_stepped(poked, 1000);

  EXPECT_EQ(actual.sessions_arrived, expected.sessions_arrived);
  EXPECT_EQ(actual.sessions_admitted, expected.sessions_admitted);
  EXPECT_EQ(actual.sessions_completed, expected.sessions_completed);
  EXPECT_EQ(actual.sessions_timed_out, expected.sessions_timed_out);
  EXPECT_DOUBLE_EQ(actual.mean_completion_slots,
                   expected.mean_completion_slots);
  EXPECT_DOUBLE_EQ(actual.mean_qubit_utilization,
                   expected.mean_qubit_utilization);
}

TEST(SessionService, SettersRejectInvalidValuesAndKeepTheOldOnes) {
  const auto net = service_network();
  support::Rng rng(7);
  SessionService service(net, SessionServiceConfig{light_params(), "", {}},
                         rng);
  std::string error;

  EXPECT_FALSE(service.set_arrival_prob(1.5, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.set_arrival_prob(-0.1, &error));
  EXPECT_FALSE(
      service.set_arrival_prob(std::numeric_limits<double>::quiet_NaN(),
                               &error));
  EXPECT_DOUBLE_EQ(service.arrival_prob(), 0.05);

  EXPECT_FALSE(service.set_arrival_burst(0, &error));
  EXPECT_EQ(service.arrival_burst(), 1u);

  EXPECT_FALSE(service.set_algorithm("no-such-router", &error));
  EXPECT_NE(error.find("no-such-router"), std::string::npos);
  EXPECT_EQ(service.algorithm(), "");

  EXPECT_FALSE(service.set_log_events_per_second(-1.0, &error));
}

TEST(SessionService, SettersChangeBehaviorGoingForward) {
  const auto net = service_network();
  support::Rng rng(9);
  SessionService service(net, SessionServiceConfig{light_params(), "", {}},
                         rng);
  std::string error;
  ASSERT_TRUE(service.set_arrival_prob(0.0, &error)) << error;
  const ProtocolMetrics quiet = run_stepped(service, 500);
  EXPECT_EQ(quiet.sessions_arrived, 0u);

  ASSERT_TRUE(service.set_arrival_prob(0.5, &error)) << error;
  const ProtocolMetrics busy = run_stepped(service, 500);
  EXPECT_GT(busy.sessions_arrived, 0u);

  // Switching to a registry algorithm mid-run keeps admitting sessions.
  ASSERT_TRUE(service.set_algorithm("alg3", &error)) << error;
  EXPECT_EQ(service.algorithm(), "alg3");
  const ProtocolMetrics routed = run_stepped(service, 500);
  EXPECT_GT(routed.sessions_arrived, busy.sessions_arrived);
}

TEST(SessionService, FairShareComboIsRejectedAtRuntimeToo) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  support::Rng rng(5);
  SessionServiceConfig config{params, "", {}};
  config.arrival_burst = 4;
  SessionService service(net, config, rng);
  std::string error;
  // fair-share batching needs the batch-native kernel (shared-prim/alg4);
  // pinning algorithm alg3 first makes the policy switch invalid.
  ASSERT_TRUE(service.set_algorithm("alg3", &error)) << error;
  EXPECT_FALSE(
      service.set_batch_policy(routing::BatchPolicy::kFairShare, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(service.batch_policy(), routing::BatchPolicy::kGivenOrder);
}

}  // namespace
}  // namespace muerp::sim
