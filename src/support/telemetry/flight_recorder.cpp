#include "support/telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

#include "support/json.hpp"
#include "support/telemetry/metrics.hpp"

namespace muerp::support::telemetry {

const char* session_state_name(SessionState state) noexcept {
  switch (state) {
    case SessionState::kActive:
      return "active";
    case SessionState::kCompleted:
      return "completed";
    case SessionState::kTimedOut:
      return "timed_out";
    case SessionState::kRejected:
      return "rejected";
    case SessionState::kDrained:
      return "drained";
  }
  return "?";
}

const char* reject_reason_name(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kNoFeasibleTree:
      return "no_feasible_tree";
    case RejectReason::kCapacityGuard:
      return "capacity_guard";
    case RejectReason::kContentionLoss:
      return "contention_loss";
  }
  return "?";
}

bool parse_session_state(std::string_view name, SessionState* out) noexcept {
  if (name == "active") {
    *out = SessionState::kActive;
  } else if (name == "completed") {
    *out = SessionState::kCompleted;
  } else if (name == "timed_out") {
    *out = SessionState::kTimedOut;
  } else if (name == "rejected") {
    *out = SessionState::kRejected;
  } else if (name == "drained") {
    *out = SessionState::kDrained;
  } else {
    return false;
  }
  return true;
}

RoutingWork routing_work_delta(const RoutingWork& before,
                               const RoutingWork& after) noexcept {
  const auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  };
  RoutingWork d;
  d.spf_runs = sub(after.spf_runs, before.spf_runs);
  d.dijkstra_runs = sub(after.dijkstra_runs, before.dijkstra_runs);
  d.slab_hits = sub(after.slab_hits, before.slab_hits);
  d.contention_losses = sub(after.contention_losses, before.contention_losses);
  return d;
}

#if MUERP_TELEMETRY_ENABLED

RoutingWork capture_routing_work() noexcept {
  // Construction re-finds (or registers) the names the routing layer uses;
  // static so registration happens once per process.
  static const Counter scan_runs("spf/scan_runs");
  static const Counter heap_runs("spf/heap_runs");
  static const Counter dijkstra_runs("batch/dijkstra_runs");
  static const Counter tree_cache_hits("batch/tree_cache_hits");
  static const Counter deferred("batch/deferred");
  RoutingWork w;
  w.spf_runs = counter_thread_value(scan_runs.id()) +
               counter_thread_value(heap_runs.id());
  w.dijkstra_runs = counter_thread_value(dijkstra_runs.id());
  w.slab_hits = counter_thread_value(tree_cache_hits.id());
  w.contention_losses = counter_thread_value(deferred.id());
  return w;
}

SessionRecorder::Stats& SessionRecorder::Stats::merge(
    const Stats& other) noexcept {
  opened += other.opened;
  rejected += other.rejected;
  completed += other.completed;
  timed_out += other.timed_out;
  drained += other.drained;
  kept += other.kept;
  sampled_out += other.sampled_out;
  p99_held_slots = std::max(p99_held_slots, other.p99_held_slots);
  return *this;
}

std::uint64_t SessionRecorder::mix(std::uint64_t x) noexcept {
  // splitmix64 finalizer — a fixed, well-mixed hash so happy-path sampling
  // is deterministic per id and uncorrelated with arrival order.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

SessionRecorder::SessionRecorder(SessionRecorderOptions options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  options_.happy_keep_per_1024 = std::min<std::uint32_t>(
      options_.happy_keep_per_1024, 1024);
}

std::uint64_t SessionRecorder::open(SessionRecord draft) {
  const std::lock_guard<std::mutex> lock(mutex_);
  draft.lane = options_.lane;
  draft.seq = next_seq_++;
  draft.id = (static_cast<std::uint64_t>(draft.lane) << 32) | draft.seq;
  draft.state = SessionState::kActive;
  draft.end_slot = 0;
  draft.held_slots = 0;
  ++stats_.opened;
  const std::uint64_t id = draft.id;
  open_.push_back(std::move(draft));
  return id;
}

std::uint64_t SessionRecorder::reject(SessionRecord draft) {
  const std::lock_guard<std::mutex> lock(mutex_);
  draft.lane = options_.lane;
  draft.seq = next_seq_++;
  draft.id = (static_cast<std::uint64_t>(draft.lane) << 32) | draft.seq;
  draft.state = SessionState::kRejected;
  draft.end_slot = draft.arrival_slot;
  draft.held_slots = 0;
  ++stats_.rejected;
  const std::uint64_t id = draft.id;
  finalize_locked(std::move(draft));
  return id;
}

void SessionRecorder::close(std::uint64_t id, SessionState state,
                            std::uint64_t end_slot,
                            std::uint64_t held_slots) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].id != id) continue;
    SessionRecord record = std::move(open_[i]);
    open_[i] = std::move(open_.back());
    open_.pop_back();
    record.state = state;
    record.end_slot = end_slot;
    record.held_slots = held_slots;
    switch (state) {
      case SessionState::kCompleted:
        ++stats_.completed;
        break;
      case SessionState::kTimedOut:
        ++stats_.timed_out;
        break;
      case SessionState::kDrained:
        ++stats_.drained;
        break;
      default:
        break;
    }
    finalize_locked(std::move(record));
    return;
  }
}

void SessionRecorder::finalize_open(std::uint64_t end_slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Seq order, so the drained tail lands in the ring deterministically.
  std::sort(open_.begin(), open_.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.seq < b.seq;
            });
  for (SessionRecord& record : open_) {
    record.state = SessionState::kDrained;
    record.end_slot = end_slot;
    record.held_slots =
        end_slot > record.arrival_slot ? end_slot - record.arrival_slot : 0;
    ++stats_.drained;
    finalize_locked(std::move(record));
  }
  open_.clear();
}

std::uint64_t SessionRecorder::p99_locked() const noexcept {
  if (held_total_ < kMinCompletionsForP99) return 0;
  // ceil(0.99 * total) without floating point.
  const std::uint64_t need = (held_total_ * 99 + 99) / 100;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHeldBuckets; ++b) {
    cumulative += held_hist_[b];
    if (cumulative >= need) return static_cast<std::uint64_t>(b);
  }
  return kHeldBuckets - 1;
}

void SessionRecorder::finalize_locked(SessionRecord record) {
  bool keep = true;
  if (record.state == SessionState::kCompleted) {
    // The completion-time distribution feeds the p99 threshold whether or
    // not this record is kept — sampling never skews the threshold.
    const std::size_t bucket = static_cast<std::size_t>(
        std::min<std::uint64_t>(record.held_slots, kHeldBuckets - 1));
    ++held_hist_[bucket];
    ++held_total_;
    const std::uint64_t p99 = p99_locked();
    stats_.p99_held_slots = p99;
    const bool slow = p99 > 0 && record.held_slots > p99;
    keep = slow ||
           (mix(record.id) & 1023u) < options_.happy_keep_per_1024;
  }
  if (!keep) {
    ++stats_.sampled_out;
    return;
  }
  ++stats_.kept;
  ring_.push_back(std::move(record));
  while (ring_.size() > options_.capacity) ring_.pop_front();
}

namespace {

bool matches(const SessionRecord& record, const SessionFilter& filter) {
  if (filter.state && record.state != *filter.state) return false;
  if (filter.lane && record.lane != *filter.lane) return false;
  if (!filter.algorithm.empty() && record.algorithm != filter.algorithm) {
    return false;
  }
  if (filter.min_slot && record.arrival_slot < *filter.min_slot) return false;
  if (filter.max_slot && record.arrival_slot > *filter.max_slot) return false;
  return true;
}

}  // namespace

std::vector<SessionRecord> SessionRecorder::records(
    const SessionFilter& filter) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionRecord> out;
  for (const SessionRecord& record : ring_) {
    if (matches(record, filter)) out.push_back(record);
  }
  std::vector<SessionRecord> active;
  for (const SessionRecord& record : open_) {
    if (matches(record, filter)) active.push_back(record);
  }
  std::sort(active.begin(), active.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.seq < b.seq;
            });
  out.insert(out.end(), std::make_move_iterator(active.begin()),
             std::make_move_iterator(active.end()));
  if (filter.limit > 0 && out.size() > filter.limit) {
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(out.size() -
                                                        filter.limit));
  }
  return out;
}

std::optional<SessionRecord> SessionRecorder::find(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const SessionRecord& record : open_) {
    if (record.id == id) return record;
  }
  for (const SessionRecord& record : ring_) {
    if (record.id == id) return record;
  }
  return std::nullopt;
}

SessionRecorder::Stats SessionRecorder::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

#else  // MUERP_TELEMETRY_ENABLED

RoutingWork capture_routing_work() noexcept { return {}; }

#endif  // MUERP_TELEMETRY_ENABLED

std::string session_record_json(const SessionRecord& record) {
  std::string out = "{\"id\": " + std::to_string(record.id);
  out += ", \"lane\": " + std::to_string(record.lane);
  out += ", \"seq\": " + std::to_string(record.seq);
  out += ", \"arrival_slot\": " + std::to_string(record.arrival_slot);
  out += ", \"end_slot\": " + std::to_string(record.end_slot);
  out += ", \"held_slots\": " + std::to_string(record.held_slots);
  out += ", \"state\": \"";
  out += session_state_name(record.state);
  out += "\", \"reject_reason\": \"";
  out += reject_reason_name(record.reject_reason);
  out += "\", \"saturated\": ";
  out += record.saturated ? "true" : "false";
  out += ", \"group\": [";
  for (std::size_t i = 0; i < record.group.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(record.group[i]);
  }
  out += "], \"algorithm\": ";
  json::append_quoted(out, record.algorithm);
  out += ", \"policy\": ";
  json::append_quoted(out, record.policy);
  out += ", \"tree_rate\": ";
  json::append_number(out, record.tree_rate);
  out += ", \"tree_channels\": " + std::to_string(record.tree_channels);
  out += ", \"work\": {\"spf_runs\": " + std::to_string(record.work.spf_runs);
  out += ", \"dijkstra_runs\": " + std::to_string(record.work.dijkstra_runs);
  out += ", \"slab_hits\": " + std::to_string(record.work.slab_hits);
  out += ", \"contention_losses\": " +
         std::to_string(record.work.contention_losses);
  out += "}}";
  return out;
}

std::string session_records_json(const std::vector<SessionRecord>& records,
                                 const SessionRecorder::Stats& stats) {
  std::string out = "{\"count\": " + std::to_string(records.size());
  out += ", \"stats\": {\"opened\": " + std::to_string(stats.opened);
  out += ", \"rejected\": " + std::to_string(stats.rejected);
  out += ", \"completed\": " + std::to_string(stats.completed);
  out += ", \"timed_out\": " + std::to_string(stats.timed_out);
  out += ", \"drained\": " + std::to_string(stats.drained);
  out += ", \"kept\": " + std::to_string(stats.kept);
  out += ", \"sampled_out\": " + std::to_string(stats.sampled_out);
  out += ", \"p99_held_slots\": " + std::to_string(stats.p99_held_slots);
  out += "}, \"sessions\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ", ";
    out += session_record_json(records[i]);
  }
  out += "]}\n";
  return out;
}

std::string session_trace_json(const SessionRecord& record) {
  /// Per-slot attempt instants emitted at most this many times (a
  /// 10k-slot timeout would otherwise produce a 10k-event document).
  constexpr std::uint64_t kAttemptCap = 256;

  const std::uint64_t pid = record.lane;
  const std::uint64_t tid = record.seq;
  const auto event_prefix = [&](const char* name, const char* phase,
                                std::uint64_t ts_us) {
    std::string e = "{\"name\": \"";
    e += name;
    e += "\", \"cat\": \"session\", \"ph\": \"";
    e += phase;
    e += "\", \"pid\": " + std::to_string(pid);
    e += ", \"tid\": " + std::to_string(tid);
    e += ", \"ts\": " + std::to_string(ts_us);
    return e;
  };

  // Slot k maps to ts = k * 1000 µs, so one slot renders as one millisecond.
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  std::string admission =
      event_prefix("admission", "X", record.arrival_slot * 1000);
  admission += ", \"dur\": 1000, \"args\": {\"verdict\": \"";
  admission += record.state == SessionState::kRejected ? "rejected"
                                                       : "admitted";
  admission += "\", \"reject_reason\": \"";
  admission += reject_reason_name(record.reject_reason);
  admission += "\", \"algorithm\": ";
  json::append_quoted(admission, record.algorithm);
  admission += ", \"policy\": ";
  json::append_quoted(admission, record.policy);
  admission += ", \"group_size\": " + std::to_string(record.group.size());
  admission += ", \"spf_runs\": " + std::to_string(record.work.spf_runs);
  admission +=
      ", \"dijkstra_runs\": " + std::to_string(record.work.dijkstra_runs);
  admission += ", \"slab_hits\": " + std::to_string(record.work.slab_hits);
  admission += ", \"contention_losses\": " +
               std::to_string(record.work.contention_losses);
  admission += "}}";
  out += admission;

  if (record.state != SessionState::kRejected && record.held_slots > 0) {
    std::string hold = event_prefix("hold", "X", record.arrival_slot * 1000);
    hold += ", \"dur\": " + std::to_string(record.held_slots * 1000);
    hold += ", \"args\": {\"state\": \"";
    hold += session_state_name(record.state);
    hold += "\", \"held_slots\": " + std::to_string(record.held_slots);
    hold += ", \"tree_rate\": ";
    json::append_number(hold, record.tree_rate);
    hold += ", \"tree_channels\": " + std::to_string(record.tree_channels);
    hold += "}}";
    out += ", " + hold;

    const std::uint64_t attempts =
        std::min<std::uint64_t>(record.held_slots, kAttemptCap);
    for (std::uint64_t k = 0; k < attempts; ++k) {
      const bool last = k + 1 == record.held_slots;
      const char* name = !last ? "attempt_failed"
                         : record.state == SessionState::kCompleted
                             ? "attempt_succeeded"
                             : session_state_name(record.state);
      std::string attempt =
          event_prefix(name, "i",
                       record.arrival_slot * 1000 + k * 1000 + 999);
      attempt += ", \"s\": \"t\"}";
      out += ", " + attempt;
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace muerp::support::telemetry
