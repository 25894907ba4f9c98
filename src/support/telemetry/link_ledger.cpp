#include "support/telemetry/link_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "support/json.hpp"

namespace muerp::support::telemetry {

const char* link_kind_name(LinkKind kind) noexcept {
  switch (kind) {
    case LinkKind::kEdge:
      return "edge";
    case LinkKind::kSwitch:
      return "switch";
  }
  return "?";
}

bool parse_link_sort(std::string_view name, LinkSort* out) noexcept {
  if (name == "util") {
    *out = LinkSort::kUtil;
  } else if (name == "losses") {
    *out = LinkSort::kLosses;
  } else {
    return false;
  }
  return true;
}

#if MUERP_TELEMETRY_ENABLED

LinkLedger::Stats& LinkLedger::Stats::merge(const Stats& other) noexcept {
  admits += other.admits;
  rejects += other.rejects;
  contention_losses += other.contention_losses;
  saturation_events += other.saturation_events;
  evicted_events += other.evicted_events;
  return *this;
}

LinkLedger::LinkLedger(std::vector<int> edge_capacity,
                       std::vector<int> switch_capacity,
                       LinkLedgerOptions options)
    : options_(options), edge_count_(edge_capacity.size()) {
  if (options_.window_slots == 0) options_.window_slots = 1;
  options_.ewma_alpha = std::clamp(options_.ewma_alpha, 0.0, 1.0);
  if (options_.event_capacity == 0) options_.event_capacity = 1;
  cells_.resize(edge_capacity.size() + switch_capacity.size());
  for (std::size_t e = 0; e < edge_capacity.size(); ++e) {
    cells_[e].capacity = edge_capacity[e];
  }
  for (std::size_t s = 0; s < switch_capacity.size(); ++s) {
    cells_[edge_count_ + s].capacity = switch_capacity[s];
  }
}

void LinkLedger::advance_locked(Cell& cell, std::uint64_t slot) const {
  if (slot <= cell.last_slot) return;
  const std::uint64_t W = options_.window_slots;
  const double occupancy = static_cast<double>(cell.held);
  const double util =
      cell.capacity > 0 ? occupancy / static_cast<double>(cell.capacity) : 0.0;
  while (true) {
    const std::uint64_t window_end = (cell.window_index + 1) * W;
    if (slot < window_end) {
      cell.window_sum +=
          occupancy * static_cast<double>(slot - cell.last_slot);
      cell.last_slot = slot;
      return;
    }
    // Complete the accumulating window at its boundary.
    cell.window_sum +=
        occupancy * static_cast<double>(window_end - cell.last_slot);
    const double mean = cell.window_sum / static_cast<double>(W);
    cell.window_util =
        cell.capacity > 0 ? mean / static_cast<double>(cell.capacity) : 0.0;
    cell.ewma += options_.ewma_alpha * (cell.window_util - cell.ewma);
    ++cell.window_index;
    cell.last_slot = window_end;
    cell.window_sum = 0.0;
    // Fast-forward over fully-skipped windows of constant occupancy: after
    // k identical windows the EWMA is util + (ewma - util) * (1-alpha)^k.
    const std::uint64_t skipped = (slot - window_end) / W;
    if (skipped > 0) {
      cell.window_util = util;
      cell.ewma = util + (cell.ewma - util) *
                             std::pow(1.0 - options_.ewma_alpha,
                                      static_cast<double>(skipped));
      cell.window_index += skipped;
      cell.last_slot = cell.window_index * W;
    }
  }
}

void LinkLedger::occupy_locked(std::uint32_t cell_index, int delta,
                               std::uint64_t slot) {
  Cell& cell = cells_[cell_index];
  advance_locked(cell, slot);
  cell.held += delta;
  if (cell.held < 0) cell.held = 0;  // release without matching admit
  const double util =
      cell.capacity > 0
          ? static_cast<double>(cell.held) / static_cast<double>(cell.capacity)
          : 0.0;
  const bool entered = util >= options_.saturation_threshold;
  if (entered == cell.saturated) return;
  cell.saturated = entered;
  if (entered) cell.last_saturation_slot = slot;
  ++stats_.saturation_events;
  events_.push_back({slot, cell_index, entered});
  while (events_.size() > options_.event_capacity) {
    events_.pop_front();
    ++stats_.evicted_events;
  }
}

void LinkLedger::count_attempt_locked(const TreeTouch& touch, bool win,
                                      bool contention) {
  dedupe_scratch_.clear();
  for (const std::uint32_t e : touch.edges) dedupe_scratch_.push_back(e);
  for (const std::uint32_t s : touch.switches) {
    dedupe_scratch_.push_back(static_cast<std::uint32_t>(edge_count_) + s);
  }
  std::sort(dedupe_scratch_.begin(), dedupe_scratch_.end());
  dedupe_scratch_.erase(
      std::unique(dedupe_scratch_.begin(), dedupe_scratch_.end()),
      dedupe_scratch_.end());
  for (const std::uint32_t c : dedupe_scratch_) {
    Cell& cell = cells_[c];
    ++cell.attempts;
    if (win) ++cell.wins;
    if (contention) ++cell.contention_losses;
  }
}

void LinkLedger::record_admit(const TreeTouch& touch, std::uint64_t slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.admits;
  count_attempt_locked(touch, /*win=*/true, /*contention=*/false);
  for (const std::uint32_t e : touch.edges) occupy_locked(e, 1, slot);
  for (const std::uint32_t s : touch.switches) {
    occupy_locked(static_cast<std::uint32_t>(edge_count_) + s, 2, slot);
  }
}

void LinkLedger::record_reject(const TreeTouch& touch, bool contention,
                               std::uint64_t slot) {
  (void)slot;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.rejects;
  if (contention) ++stats_.contention_losses;
  count_attempt_locked(touch, /*win=*/false, contention);
}

void LinkLedger::record_release(const TreeTouch& touch, std::uint64_t slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::uint32_t e : touch.edges) occupy_locked(e, -1, slot);
  for (const std::uint32_t s : touch.switches) {
    occupy_locked(static_cast<std::uint32_t>(edge_count_) + s, -2, slot);
  }
}

std::vector<LinkStat> LinkLedger::snapshot(std::uint64_t now_slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LinkStat> out;
  out.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    // Advance a copy: queries are read-only, so two snapshots at the same
    // slot are bit-identical regardless of query history.
    Cell cell = cells_[c];
    advance_locked(cell, now_slot);
    LinkStat stat;
    const bool is_edge = c < edge_count_;
    stat.kind = is_edge ? LinkKind::kEdge : LinkKind::kSwitch;
    stat.index = static_cast<std::uint32_t>(is_edge ? c : c - edge_count_);
    stat.capacity = cell.capacity;
    stat.held = cell.held;
    stat.utilization =
        cell.capacity > 0 ? static_cast<double>(cell.held) /
                                static_cast<double>(cell.capacity)
                          : 0.0;
    stat.ewma_utilization = cell.ewma;
    stat.window_utilization = cell.window_util;
    stat.attempts = cell.attempts;
    stat.wins = cell.wins;
    stat.contention_losses = cell.contention_losses;
    stat.last_saturation_slot = cell.last_saturation_slot;
    stat.saturated = cell.saturated;
    out.push_back(stat);
  }
  return out;
}

SaturatedLinks LinkLedger::saturated_at(std::uint64_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<bool> saturated(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    saturated[c] = cells_[c].saturated;
  }
  // Events are slot-ordered: undo everything newer than the queried slot.
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->slot <= slot) break;
    saturated[it->cell] = !it->entered;
  }
  SaturatedLinks out;
  out.exact = stats_.evicted_events == 0 ||
              (!events_.empty() && events_.front().slot <= slot);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (!saturated[c]) continue;
    if (c < edge_count_) {
      out.edges.push_back(static_cast<std::uint32_t>(c));
    } else {
      out.switches.push_back(static_cast<std::uint32_t>(c - edge_count_));
    }
  }
  return out;
}

LinkLedger::Stats LinkLedger::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

#endif  // MUERP_TELEMETRY_ENABLED

void merge_link_stats(std::vector<LinkStat>& into,
                      const std::vector<LinkStat>& lane) {
  if (into.empty()) {
    into = lane;
    // Adopt weighted form so finalize divides once regardless of lane
    // count: utilizations become capacity-weighted sums.
    for (LinkStat& stat : into) {
      const double w = static_cast<double>(stat.capacity);
      stat.ewma_utilization *= w;
      stat.window_utilization *= w;
    }
    return;
  }
  for (std::size_t i = 0; i < into.size() && i < lane.size(); ++i) {
    LinkStat& dst = into[i];
    const LinkStat& src = lane[i];
    const double w = static_cast<double>(src.capacity);
    dst.capacity += src.capacity;
    dst.held += src.held;
    dst.ewma_utilization += src.ewma_utilization * w;
    dst.window_utilization += src.window_utilization * w;
    dst.attempts += src.attempts;
    dst.wins += src.wins;
    dst.contention_losses += src.contention_losses;
    dst.last_saturation_slot =
        std::max(dst.last_saturation_slot, src.last_saturation_slot);
    dst.saturated = dst.saturated || src.saturated;
  }
}

void finalize_merged_link_stats(std::vector<LinkStat>& stats) {
  for (LinkStat& stat : stats) {
    const double capacity = static_cast<double>(stat.capacity);
    if (stat.capacity > 0) {
      stat.utilization = static_cast<double>(stat.held) / capacity;
      stat.ewma_utilization /= capacity;
      stat.window_utilization /= capacity;
    } else {
      stat.utilization = 0.0;
      stat.ewma_utilization = 0.0;
      stat.window_utilization = 0.0;
    }
  }
}

void sort_links(std::vector<LinkStat>& stats, LinkSort sort,
                std::size_t limit) {
  const auto before = [](const LinkStat& l, const LinkStat& r, LinkSort key) {
    switch (key) {
      case LinkSort::kUtil:
        if (l.utilization != r.utilization) {
          return l.utilization > r.utilization;
        }
        if (l.ewma_utilization != r.ewma_utilization) {
          return l.ewma_utilization > r.ewma_utilization;
        }
        break;
      case LinkSort::kLosses: {
        if (l.contention_losses != r.contention_losses) {
          return l.contention_losses > r.contention_losses;
        }
        const std::uint64_t l_failed = l.attempts - l.wins;
        const std::uint64_t r_failed = r.attempts - r.wins;
        if (l_failed != r_failed) return l_failed > r_failed;
        break;
      }
    }
    if (l.kind != r.kind) return l.kind < r.kind;
    return l.index < r.index;
  };
  std::sort(stats.begin(), stats.end(),
            [&](const LinkStat& l, const LinkStat& r) {
              return before(l, r, sort);
            });
  if (limit > 0 && stats.size() > limit) stats.resize(limit);
}

namespace {

void append_index_array(std::string& out,
                        const std::vector<std::uint32_t>& indices) {
  out += '[';
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(indices[i]);
  }
  out += ']';
}

}  // namespace

std::string link_stat_json(const LinkStat& stat) {
  std::string out = "{\"kind\": \"";
  out += link_kind_name(stat.kind);
  out += "\", \"index\": " + std::to_string(stat.index);
  if (stat.kind == LinkKind::kEdge) {
    out += ", \"a\": " + std::to_string(stat.a);
    out += ", \"b\": " + std::to_string(stat.b);
  } else {
    out += ", \"node\": " + std::to_string(stat.a);
  }
  out += ", \"capacity\": " + std::to_string(stat.capacity);
  out += ", \"held\": " + std::to_string(stat.held);
  out += ", \"utilization\": ";
  json::append_number(out, stat.utilization);
  out += ", \"ewma_utilization\": ";
  json::append_number(out, stat.ewma_utilization);
  out += ", \"window_utilization\": ";
  json::append_number(out, stat.window_utilization);
  out += ", \"attempts\": " + std::to_string(stat.attempts);
  out += ", \"wins\": " + std::to_string(stat.wins);
  out += ", \"contention_losses\": " + std::to_string(stat.contention_losses);
  out += ", \"last_saturation_slot\": " +
         std::to_string(stat.last_saturation_slot);
  out += ", \"saturated\": ";
  out += stat.saturated ? "true" : "false";
  out += '}';
  return out;
}

std::string links_json(const std::vector<LinkStat>& stats,
                       std::uint64_t slot) {
  std::string out = "{\"count\": " + std::to_string(stats.size());
  out += ", \"slot\": " + std::to_string(slot);
  out += ", \"links\": [";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i != 0) out += ", ";
    out += link_stat_json(stats[i]);
  }
  out += "]}\n";
  return out;
}

std::string saturated_links_json(const SaturatedLinks& saturated) {
  std::string out = "{\"exact\": ";
  out += saturated.exact ? "true" : "false";
  out += ", \"edges\": ";
  append_index_array(out, saturated.edges);
  out += ", \"switches\": ";
  append_index_array(out, saturated.switches);
  out += '}';
  return out;
}

std::string explain_json(std::uint64_t id, const SessionRecord* record,
                         const SaturatedLinks& saturated) {
  std::string out = "{\"id\": " + std::to_string(id);
  out += ", \"found\": ";
  out += record != nullptr ? "true" : "false";
  out += ", \"session\": ";
  out += record != nullptr ? session_record_json(*record) : "null";
  out += ", \"saturated_links\": ";
  out += saturated_links_json(saturated);
  out += "}\n";
  return out;
}

}  // namespace muerp::support::telemetry
