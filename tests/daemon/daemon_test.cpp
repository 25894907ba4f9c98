// In-process tests of daemon::Daemon: the daemon runs on an ephemeral port
// inside the test process (its loop on a test thread, its acceptor and
// sampler on their own), and the test drives it over POST /api/v1/ctl.
// The spawn-based muerpd_smoke_test keeps the binary-only paths: signals,
// SIGKILL and restart.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ctl/client.hpp"
#include "daemon/daemon.hpp"
#include "experiment/scenario.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/telemetry/metrics.hpp"

namespace {

using namespace muerp;
namespace json = support::json;

/// A small starved fabric: sessions are admitted, rejected and held for
/// tens of slots within the first few hundred milliseconds.
const net::QuantumNetwork& test_network() {
  static const net::QuantumNetwork network = [] {
    experiment::Scenario s;
    s.switch_count = 30;
    s.user_count = 8;
    s.qubits_per_switch = 6;
    s.swap_success = 0.5;
    s.seed = 11;
    return experiment::instantiate(s, 0).network;
  }();
  return network;
}

constexpr std::uint64_t kTimeoutSlots = 40;
constexpr std::uint64_t kSeed = 21;
constexpr double kArrival = 0.3;

daemon::DaemonOptions options(std::uint64_t max_slots) {
  daemon::DaemonOptions o;
  o.service.base.router_options.pin_alg2_sufficient = false;
  o.service.base.params.session_timeout_slots = kTimeoutSlots;
  o.service.record_sessions = true;
  o.service.record_links = true;
  o.seed = kSeed;
  o.max_slots = max_slots;
  o.slot_period = std::chrono::milliseconds(1);
  o.http.port = 0;
  return o;
}

/// muerpd's runtime-setting flags, parsed from `args`.
support::CliParser setting_flags(std::vector<const char*> args) {
  support::CliParser cli("daemon_test");
  daemon::Daemon::add_setting_flags(cli);
  args.insert(args.begin(), "daemon_test");
  EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  return cli;
}

/// A started daemon whose slot loop runs on its own thread.
class Running {
 public:
  explicit Running(daemon::DaemonOptions o)
      : daemon_(test_network(), std::move(o)) {
    std::string error;
    EXPECT_TRUE(daemon_.apply_flags(
        setting_flags({"--arrival", "0.3", "--log-level", "warn",
                       "--sample-interval-ms", "50"}),
        &error))
        << error;
    EXPECT_TRUE(daemon_.start(&error)) << error;
    endpoint_ = std::to_string(daemon_.port());
    loop_ = std::thread([this] { report_ = daemon_.run(stop_); });
  }
  ~Running() {
    if (loop_.joinable()) {
      stop_.store(2);
      loop_.join();
    }
  }

  /// One ctl command's parsed envelope.
  json::Value ctl(const std::string& cmd, const std::string& args = "") {
    ctl::HttpResult result;
    std::string error;
    EXPECT_TRUE(ctl::ctl_request(endpoint_, cmd, args, &result, &error))
        << error;
    const json::ParseResult doc = json::parse(result.body);
    EXPECT_TRUE(doc.ok()) << doc.error << ": " << result.body;
    return doc.value;
  }

  void request_stop() { stop_.fetch_add(1); }

  std::uint16_t port() const { return daemon_.port(); }

  /// Waits for run() to return and hands back its report.
  const daemon::RunReport& join() {
    loop_.join();
    return report_;
  }

 private:
  daemon::Daemon daemon_;
  std::string endpoint_;
  std::atomic<int> stop_{0};
  daemon::RunReport report_;
  std::thread loop_;
};

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void expect_same_metrics(const sim::ProtocolMetrics& a,
                         const sim::ProtocolMetrics& b) {
  EXPECT_EQ(a.sessions_arrived, b.sessions_arrived);
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.sessions_timed_out, b.sessions_timed_out);
  EXPECT_EQ(a.sessions_in_flight, b.sessions_in_flight);
  // Bitwise: the same slot trajectory accumulates the same doubles.
  EXPECT_EQ(a.mean_completion_slots, b.mean_completion_slots);
  EXPECT_EQ(a.mean_qubit_utilization, b.mean_qubit_utilization);
}

TEST(Daemon, SetAndGetRoundTripEverySetting) {
  const std::string history =
      ::testing::TempDir() + "daemon_test_round_trip.hist";
  std::remove(history.c_str());
  daemon::DaemonOptions o = options(0);
  o.history_path = history;
  Running running(o);

  const struct {
    const char* name;
    const char* value;     // JSON sent as `value`
    const char* expected;  // JSON `get` answers afterwards
  } rows[] = {{"arrival-rate", "0.35", "0.35"},
              {"algorithm", "\"alg3\"", "\"alg3\""},
              {"arrival-burst", "3", "3"},
              {"batch-policy", "\"largest-first\"", "\"largest-first\""},
              {"log-level", "\"error\"", "\"error\""},
              {"log-rate", "25", "25"},
              {"sample-interval-ms", "40", "40"},
              {"algorithm", "\"shared-prim\"", "\"shared-prim\""}};
  for (const auto& row : rows) {
    const std::string name = json::quote(row.name);
    json::Value doc = running.ctl(
        "set", "{\"name\": " + name + ", \"value\": " + row.value + "}");
    EXPECT_TRUE(doc["ok"].bool_value)
        << row.name << ": " << doc["error"].string_value;
    doc = running.ctl("get", "{\"name\": " + name + "}");
    ASSERT_TRUE(doc["ok"].bool_value) << row.name;
#if !MUERP_TELEMETRY_ENABLED
    // The OFF build's stub logger and sampler read back as off / 0.
    if (std::string_view(row.name) == "log-level" ||
        std::string_view(row.name) == "sample-interval-ms") {
      continue;
    }
#endif
    const json::Value expected = json::parse(row.expected).value;
    if (expected.is_number()) {
      EXPECT_EQ(doc["result"].number_value, expected.number_value)
          << row.name;
    } else {
      EXPECT_EQ(doc["result"].string_value, expected.string_value)
          << row.name;
    }
  }

  // The read-only pages answer on the acceptor thread while the loop runs.
  for (const char* page :
       {"/healthz", "/metrics", "/api/v1/sessions", "/api/v1/topology",
        "/api/v1/topology.svg", "/api/v1/links", "/api/v1/alerts",
        "/api/v1/explain/1"}) {
    ctl::HttpResult result;
    std::string error;
    EXPECT_TRUE(ctl::http_get("127.0.0.1", running.port(), page, &result,
                              &error))
        << error;
    EXPECT_EQ(result.status, 200) << page;
  }

  // A refusal leaves the row unchanged.
  json::Value doc = running.ctl(
      "set", R"({"name": "arrival-rate", "value": 1.5})");
  EXPECT_EQ(doc["code"].string_value, "out_of_range");
  doc = running.ctl("get", R"({"name": "arrival-rate"})");
  EXPECT_EQ(doc["result"].number_value, 0.35);

  // lifetime is read-only, and reads the history file.
  doc = running.ctl("set", R"({"name": "lifetime", "value": 1})");
  EXPECT_EQ(doc["code"].string_value, "unsupported");
  doc = running.ctl("get", R"({"name": "lifetime"})");
  ASSERT_TRUE(doc["ok"].bool_value) << doc["error"].string_value;
  EXPECT_EQ(doc["result"]["runs"].number_value, 1.0);

  doc = running.ctl("set", R"({"name": "log-level", "value": "warn"})");
  EXPECT_TRUE(doc["ok"].bool_value);
  running.ctl("drain");
  running.join();
  std::remove(history.c_str());
}

TEST(Daemon, PausedThenResumedRunIsBitIdenticalToUnpaused) {
  daemon::RunReport plain;
  {
    Running running(options(600));
    plain = running.join();
  }
  ASSERT_EQ(plain.slots, 600u);
  ASSERT_GT(plain.metrics.sessions_admitted, 0u);

  Running running(options(600));
  sleep_ms(150);
  json::Value doc = running.ctl("pause");
  ASSERT_TRUE(doc["ok"].bool_value);
  const double paused_at = running.ctl("status")["result"]["slot"].number_value;
  sleep_ms(200);
  // Paused, the slot does not move.
  EXPECT_EQ(running.ctl("status")["result"]["slot"].number_value, paused_at);
  ASSERT_TRUE(running.ctl("resume")["ok"].bool_value);
  const daemon::RunReport& resumed = running.join();
  EXPECT_EQ(resumed.slots, 600u);
  expect_same_metrics(plain.metrics, resumed.metrics);
}

/// What a drain that begins at slot `start` must produce: the same service
/// played in-process for `start` slots, then with arrivals off until no
/// session is active or timeout + 1 slots were played.
daemon::RunReport replica_drain(std::uint64_t start) {
  const daemon::DaemonOptions o = options(0);
  sim::ShardedSessionService service(test_network(), o.service, o.seed);
  EXPECT_TRUE(service.set_arrival_prob(kArrival));
  service.run_slots(start);
  service.set_arrivals_enabled(false);
  daemon::RunReport report;
  while (service.active_sessions() > 0 &&
         report.drain_slots < kTimeoutSlots + 1) {
    report.drained_completed += service.step().completed;
    ++report.drain_slots;
  }
  report.metrics = service.metrics();
  report.slots = service.slot();
  return report;
}

/// Runs a daemon to a pause with sessions in flight, then ends it through
/// `begin_drain`; checks the run against replica_drain().
void check_drain(const std::function<void(Running&)>& begin_drain) {
#if MUERP_TELEMETRY_ENABLED
  const support::telemetry::Counter slots_counter("muerpd/slots/shared-prim");
  const auto before = support::telemetry::capture_process();
#endif
  Running running(options(0));
  sleep_ms(150);
  ASSERT_TRUE(running.ctl("pause")["ok"].bool_value);
  const json::Value status = running.ctl("status")["result"];
  const auto start = static_cast<std::uint64_t>(status["slot"].number_value);
  ASSERT_GT(status["active_sessions"].number_value, 0.0)
      << "no session in flight at slot " << start;
  begin_drain(running);
  const daemon::RunReport& report = running.join();

  const daemon::RunReport expected = replica_drain(start);
  EXPECT_EQ(report.slots, expected.slots);
  EXPECT_EQ(report.drain_slots, expected.drain_slots);
  EXPECT_EQ(report.drained_completed, expected.drained_completed);
  EXPECT_GT(report.drain_slots, 0u);
  expect_same_metrics(report.metrics, expected.metrics);
  EXPECT_EQ(report.metrics.sessions_in_flight, 0u);
#if MUERP_TELEMETRY_ENABLED
  // Drain slots are played and counted like any other slot.
  auto delta = support::telemetry::capture_process();
  delta.subtract(before);
  EXPECT_EQ(delta.counters[slots_counter.id()], report.slots);
#endif
}

TEST(Daemon, CtlDrainAndStopRequestShareOneDrainLoop) {
  check_drain([](Running& running) {
    const json::Value doc = running.ctl("drain");
    EXPECT_TRUE(doc["ok"].bool_value);
    EXPECT_EQ(doc["result"]["state"].string_value, "draining");
  });
  check_drain([](Running& running) { running.request_stop(); });
}

TEST(Daemon, TwoStopRequestsSkipTheDrain) {
  Running running(options(0));
  sleep_ms(150);
  ASSERT_TRUE(running.ctl("pause")["ok"].bool_value);
  running.request_stop();
  running.request_stop();
  const daemon::RunReport& report = running.join();
  EXPECT_EQ(report.drain_slots, 0u);
  EXPECT_GT(report.slots, 0u);
}

}  // namespace
