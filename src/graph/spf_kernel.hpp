// Allocation-free shortest-path-first (SPF) kernel.
//
// Every routing algorithm in this library bottoms out in Dijkstra, and the
// seed implementation paid four structural taxes per call: a std::function
// indirection per edge relaxation, an O(|V|) distance/parent refill, a lazy
// std::priority_queue that re-pops stale entries, and a vector-of-vectors
// adjacency walk with poor cache locality. This header removes all four:
//
//   * Csr        — a compressed-sparse-row adjacency view: a flat offsets
//                  array over packed {target, edge, value} arc records,
//                  built once per topology and keyed to
//                  Graph::topology_version() so it is rebuilt only when the
//                  graph actually mutates.
//   * SpfWorkspace — reusable distance/parent/heap arrays whose entries are
//                  generation-stamped: begin() bumps a counter instead of
//                  refilling O(|V|) memory, so repeated queries on a warm
//                  workspace allocate nothing and touch only reached nodes.
//   * run()      — the one Dijkstra, from one source or several. Weight and
//                  expansion-filter are template functors (inlined into the
//                  relaxation loop), the heap is an indexed 4-ary heap with
//                  decrease-key (no stale re-pops), and a single-source pop
//                  order matches the legacy lazy-heap loop bit for bit: ties
//                  on distance settle in ascending node order, exactly like
//                  the (distance, node) pairs the old std::priority_queue
//                  compared. With several sources a distance tie goes to
//                  the lower source rank.
//   * DaryHeap   — the same 4-ary sift machinery as a standalone non-indexed
//                  heap, for the label-setting constrained searches
//                  (fidelity / purification) that push immutable labels and
//                  never decrease keys.
//
// A functor returning +infinity for an arc excludes it (banned edges/nodes,
// exhausted fiber cores): infinity never improves a tentative distance, so
// no separate filter hook is needed in the inner loop.
//
// graph::dijkstra keeps its std::function signature as a thin shim over
// run() for tests and cold paths; hot paths instantiate run() directly.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::graph::spf {

inline constexpr double kUnreachable =
    std::numeric_limits<double>::infinity();

/// One directed arc of a Csr view: head vertex, originating edge id, and
/// the per-arc payload, packed into 16 bytes so a whole adjacency row sits
/// on one or two cache lines.
struct Arc {
  NodeId target = kInvalidNode;
  EdgeId edge = kInvalidEdge;
  double value = 0.0;
};
static_assert(sizeof(Arc) == 16, "Arc must stay two-per-quadword packed");

/// Flat directed adjacency. For a Graph both arc directions of every edge
/// are materialized in the owner's neighbor order, so the kernel relaxes
/// arcs in exactly the order the adjacency-list loop did. `value(slot)`
/// carries a per-arc payload: the fiber length for Graph-built views
/// (callers fold it into their metric, e.g. alpha * L - ln q), or the arc
/// cost for hand-built digraphs (Suurballe's split graph). Arcs interleave
/// target / edge / value in one stream — a settled vertex's row is a single
/// sequential read, which is what keeps the kernel fast when experiment
/// sweeps cycle through many instances whose views take turns being cold.
struct Csr {
  std::vector<std::uint32_t> offsets;  // node_count() + 1 row starts
  std::vector<Arc> arcs;               // row-major arc records

  std::size_t node_count() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t arc_count() const noexcept { return arcs.size(); }

  NodeId target(std::size_t slot) const noexcept { return arcs[slot].target; }
  EdgeId edge_id(std::size_t slot) const noexcept { return arcs[slot].edge; }
  double value(std::size_t slot) const noexcept { return arcs[slot].value; }

  /// Starts a fresh build, reusing the existing buffers' capacity.
  void begin(std::size_t arc_hint) {
    offsets.clear();
    offsets.push_back(0);
    arcs.clear();
    arcs.reserve(arc_hint);
  }

  /// Appends one arc to the row currently being built.
  void add_arc(NodeId target, EdgeId id, double value) {
    arcs.push_back({target, id, value});
  }

  /// Closes the current row; rows must be finished in node-id order.
  void finish_row() {
    offsets.push_back(static_cast<std::uint32_t>(arcs.size()));
  }

  /// Rebuilds the view from `graph`; `values` receives each edge's length.
  void build_from(const Graph& graph) {
    begin(2 * graph.edge_count());
    const std::size_t n = graph.node_count();
    for (NodeId v = 0; v < n; ++v) {
      for (const Neighbor& nb : graph.neighbors(v)) {
        add_arc(nb.node, nb.edge, graph.edge(nb.edge).length_km);
      }
      finish_row();
    }
  }
};

/// Reusable per-thread state for run(): distance/parent/heap-position
/// arrays plus the indexed 4-ary heap. Entries are stamped with a
/// generation counter; begin() bumps the counter to invalidate the previous
/// query in O(1) instead of refilling the arrays. The workspace adapts to
/// any node count, so one instance serves graphs of different sizes
/// (growing reallocates; shrinking just narrows the logical view).
class SpfWorkspace {
 public:
  /// Starts a query over `n` nodes: sizes the arrays, clears the heap, and
  /// advances the generation. On the (rare) 32-bit generation wrap the
  /// stamps are hard-reset so entries from ~4 billion queries ago can never
  /// masquerade as current.
  void begin(std::size_t n) {
    if (n > dist_.size()) {
      dist_.resize(n);
      parent_.resize(n, kInvalidEdge);
      stamp_.resize(n, 0);
      heap_pos_.resize(n, kNotInHeap);
    }
    node_count_ = n;
    heap_.clear();
    if (++generation_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      generation_ = 1;
    }
  }

  std::size_t node_count() const noexcept { return node_count_; }

  bool reached(NodeId v) const noexcept { return stamp_[v] == generation_; }

  /// Final or tentative distance of `v`; +infinity when unreached.
  double dist(NodeId v) const noexcept {
    return reached(v) ? dist_[v] : kUnreachable;
  }

  /// Distance of a node known to be reached — skips the stamp check. run()
  /// uses it on the vertex it just popped.
  double dist_unchecked(NodeId v) const noexcept {
    assert(reached(v));
    return dist_[v];
  }

  /// Arc that last improved `v`; kInvalidEdge at a source / unreached.
  EdgeId parent(NodeId v) const noexcept {
    return reached(v) ? parent_[v] : kInvalidEdge;
  }

  /// Rank of the source a settled node was reached from (its index in the
  /// span run() was given; 0 for a single-source run).
  std::uint32_t rank(NodeId v) const noexcept {
    assert(settled(v));
    return heap_pos_[v] & ~kSettled;
  }

  bool settled(NodeId v) const noexcept {
    return reached(v) && heap_pos_[v] >= kSettled;
  }

  /// Copies the query result into dense caller-owned arrays (the shape the
  /// cached finder's memoized trees and graph::dijkstra expose). Reuses the
  /// vectors' capacity, so a warm caller allocates nothing.
  void extract(std::vector<double>& dist, std::vector<EdgeId>& parent) const {
    dist.resize(node_count_);
    parent.resize(node_count_);
    for (NodeId v = 0; v < node_count_; ++v) {
      if (reached(v)) {
        dist[v] = dist_[v];
        parent[v] = parent_[v];
      } else {
        dist[v] = kUnreachable;
        parent[v] = kInvalidEdge;
      }
    }
  }

  // --- query-side mutators (used by run(); public for the kernel tests) ---

  /// Marks `source` reached at distance 0 with source rank `rank` and
  /// enqueues it. A seed keeps kInvalidEdge as its parent for good.
  void seed(NodeId source, std::uint32_t rank = 0) {
    assert(source < node_count_);
    assert(!reached(source) && "sources must be distinct");
    assert(rank < kSettled - 1);
    touch(source, 0.0, kInvalidEdge);
    heap_push(source, rank);
  }

  /// Relaxes arc (`from` already settled, reached from source rank `rank`)
  /// -> `to` with total `candidate`: adopts it iff (candidate, rank) is
  /// lexicographically below `to`'s current (distance, rank), pushing or
  /// decreasing `to`'s heap key. Strict improvement reproduces the legacy
  /// loop's first-wins tie handling; with one source every rank is 0 and
  /// the rank clause never fires.
  void relax(NodeId to, EdgeId via, double candidate,
             std::uint32_t rank = 0) {
    // A +infinity candidate is a banned arc (or an unreachable tail): it can
    // never improve anything, and skipping it keeps the heap free of
    // sentinel entries, matching what the legacy strict-< loops enqueued.
    if (candidate == kUnreachable) return;
    if (!reached(to)) {
      touch(to, candidate, via);
      heap_push(to, rank);
      return;
    }
    // An equal distance from a lower-ranked source also improves. A
    // settled node never qualifies (it popped with a (distance, rank) no
    // larger than its settled predecessor's), and a seed keeps its rank.
    if (candidate < dist_[to] ||
        (candidate == dist_[to] && heap_pos_[to] < kSettled &&
         parent_[to] != kInvalidEdge &&
         rank < key_rank(heap_[heap_pos_[to]]))) {
      assert(heap_pos_[to] < kSettled &&
             "non-negative weights never improve a settled node");
      dist_[to] = candidate;
      parent_[to] = via;
      heap_[heap_pos_[to]] = heap_key(candidate, rank, to);
      sift_up(heap_pos_[to]);
    }
  }

  bool heap_empty() const noexcept { return heap_.empty(); }

  /// Pops the node with minimal (distance, rank, id) and marks it settled.
  NodeId heap_pop_min() {
    assert(!heap_.empty());
    const NodeId top = key_node(heap_.front());
    heap_pos_[top] = kSettled | key_rank(heap_.front());
    const HeapKey last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      sift_down(0);
    }
    return top;
  }

  std::uint32_t generation() const noexcept { return generation_; }

  /// Test hook: fast-forwards the generation counter so the wrap path in
  /// begin() can be exercised without ~4 billion queries.
  void debug_set_generation(std::uint32_t generation) noexcept {
    generation_ = generation;
  }

 private:
  // heap_pos_ holds a node's heap index while it is queued, and kSettled
  // plus its source rank once it has settled. A reached node is never left
  // at kNotInHeap, so that value cannot read as a settled rank.
  static constexpr std::uint32_t kNotInHeap = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSettled = 0x80000000u;

  void touch(NodeId v, double dist, EdgeId via) {
    stamp_[v] = generation_;
    dist_[v] = dist;
    parent_[v] = via;
    heap_pos_[v] = kNotInHeap;
  }

  /// Heap order: (distance, source rank, node id) ascending. With one
  /// source every rank is 0, which leaves the exact (distance, node) order
  /// the legacy loop's std::priority_queue popped in — what keeps migrated
  /// callers bit-identical on distance ties. Each entry is its own sort
  /// key: the distance's IEEE bits (monotone as an unsigned integer over
  /// the non-negative, never-NaN distances the kernel holds), then the
  /// rank, then the node id, so comparing two entries is one 128-bit
  /// integer compare — no load through dist_, no branch on distance ties.
  __extension__ typedef unsigned __int128 HeapKey;

  static HeapKey heap_key(double dist, std::uint32_t rank, NodeId v) noexcept {
    return (HeapKey{std::bit_cast<std::uint64_t>(dist)} << 64) |
           (HeapKey{rank} << 32) | v;
  }
  static NodeId key_node(HeapKey key) noexcept {
    return static_cast<NodeId>(key);
  }
  static std::uint32_t key_rank(HeapKey key) noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }

  void heap_push(NodeId v, std::uint32_t rank) {
    heap_.push_back(heap_key(dist_[v], rank, v));
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  }

  void sift_up(std::uint32_t pos) {
    const HeapKey moving = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 4;
      if (!(moving < heap_[parent])) break;
      heap_[pos] = heap_[parent];
      heap_pos_[key_node(heap_[pos])] = pos;
      pos = parent;
    }
    heap_[pos] = moving;
    heap_pos_[key_node(moving)] = pos;
  }

  void sift_down(std::uint32_t pos) {
    const HeapKey moving = heap_[pos];
    const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      std::uint32_t best = first_child;
      if (first_child + 4 <= size) {
        // A full group of children: a tournament on indices, which compiles
        // to flag sets and conditional moves, so choosing the child costs no
        // mispredicted jumps.
        const HeapKey* child = heap_.data() + first_child;
        const std::uint32_t left = child[1] < child[0] ? 1u : 0u;
        const std::uint32_t right = child[3] < child[2] ? 3u : 2u;
        best += child[right] < child[left] ? right : left;
      } else {
        for (std::uint32_t c = first_child + 1; c < size; ++c) {
          best = heap_[c] < heap_[best] ? c : best;
        }
      }
      if (!(heap_[best] < moving)) break;
      heap_[pos] = heap_[best];
      heap_pos_[key_node(heap_[pos])] = pos;
      pos = best;
    }
    heap_[pos] = moving;
    heap_pos_[key_node(moving)] = pos;
  }

  std::vector<double> dist_;
  std::vector<EdgeId> parent_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<HeapKey> heap_;
  std::size_t node_count_ = 0;
  std::uint32_t generation_ = 0;
};

/// run()'s default stop predicate: never stop, drain the frontier.
struct NeverStop {
  constexpr bool operator()(NodeId) const noexcept { return false; }
};

/// Stop predicate for a single destination: stop once `target` settles.
struct StopAt {
  NodeId target;
  constexpr bool operator()(NodeId v) const noexcept { return v == target; }
};

/// The one Dijkstra. `sources` start at distance 0, ranked by their index
/// in the span. `weight(slot)` maps a CSR arc slot to its non-negative cost
/// (+infinity excludes the arc); `allow_expand(v)` gates relaxation out of
/// a non-source vertex — a vertex failing it can still be reached as a path
/// endpoint (the quantum-channel rule of paper Def. 2). Nodes settle in
/// (distance, rank, id) order, each with the least (distance, rank) over
/// the per-source runs and that source's own parent chain — provided arcs
/// out of a source cost more than 0 and sums do not round into ties.
/// `stop(v)` is asked once per settled node, before it is expanded;
/// returning true abandons the frontier. Everything settled by then — the
/// stopping node included — carries its final distance, rank and parent,
/// bit-identical to a run to exhaustion, because the settle order does not
/// depend on where the run ends. `pop_counter`, when non-null, accumulates
/// settled nodes (the routing layer's hook into its own named counters;
/// the plain pointer keeps the inner loop free of atomics). Returns true
/// when the frontier drained, false when `stop` ended the run early.
template <typename WeightFn, typename AllowExpandFn,
          typename StopFn = NeverStop>
bool run(const Csr& csr, SpfWorkspace& workspace,
         std::span<const NodeId> sources, WeightFn&& weight,
         AllowExpandFn&& allow_expand, StopFn&& stop = StopFn{},
         std::uint64_t* pop_counter = nullptr) {
  MUERP_COUNTER_INC("spf/runs");
  workspace.begin(csr.node_count());
  for (std::uint32_t rank = 0; rank < sources.size(); ++rank) {
    workspace.seed(sources[rank], rank);
  }
  while (!workspace.heap_empty()) {
    const NodeId v = workspace.heap_pop_min();
    if (pop_counter != nullptr) ++*pop_counter;
    if (stop(v)) return false;
    // Seeds — distance 0, no parent arc — always expand.
    const double base = workspace.dist_unchecked(v);
    if (!(base == 0.0 && workspace.parent(v) == kInvalidEdge) &&
        !allow_expand(v)) {
      continue;
    }
    const std::uint32_t rank = workspace.rank(v);
    const std::size_t end = csr.offsets[v + 1];
    for (std::size_t slot = csr.offsets[v]; slot < end; ++slot) {
      const double w = weight(slot);
      assert(w >= 0.0 && "SPF kernel requires non-negative weights");
      const Arc& arc = csr.arcs[slot];
      workspace.relax(arc.target, arc.edge, base + w, rank);
    }
  }
  return true;
}

/// Single-source run(): the one-element span, rank 0.
template <typename WeightFn, typename AllowExpandFn,
          typename StopFn = NeverStop>
bool run(const Csr& csr, SpfWorkspace& workspace, NodeId source,
         WeightFn&& weight, AllowExpandFn&& allow_expand,
         StopFn&& stop = StopFn{}, std::uint64_t* pop_counter = nullptr) {
  return run(csr, workspace, std::span<const NodeId>(&source, 1),
             std::forward<WeightFn>(weight),
             std::forward<AllowExpandFn>(allow_expand),
             std::forward<StopFn>(stop), pop_counter);
}

/// Per-thread kernel context: a small ring of CSR views keyed to the
/// topology versions they were built from, plus the thread's warm workspace.
/// The ring (rather than a single entry) matters for the experiment loops,
/// which cycle through ~20 pre-built networks per scenario: with one slot
/// every repetition would rebuild its view, with a ring each network's view
/// is built once per thread and then served from cache for the whole sweep.
struct Context {
  /// Distinct topologies (or affine metrics) cached per thread before the
  /// oldest entry is evicted. Covers a scenario's repetition set with room
  /// to spare; at ~10 KB per view on §V-A-sized networks the worst case is
  /// a few hundred KB per thread.
  static constexpr std::size_t kCacheCapacity = 32;

  Context() {
    // Returned Csr references point into these vectors; reserving the full
    // ring up front means they never reallocate, so a view stays valid until
    // its slot is recycled (kCacheCapacity distinct views later), not merely
    // until the next cache miss.
    base_entries_.reserve(kCacheCapacity);
    affine_entries_.reserve(kCacheCapacity);
  }

  SpfWorkspace workspace;

  /// The CSR view of `graph`, rebuilt only when the topology changed.
  const Csr& csr_for(const Graph& graph) {
    const std::uint64_t version = graph.topology_version();
    for (BaseEntry& e : base_entries_) {
      if (e.version == version) {
        MUERP_COUNTER_INC("spf/csr_cache_hits");
        return e.csr;
      }
    }
    MUERP_COUNTER_INC("spf/csr_builds");
    BaseEntry& e = next_base_slot();
    e.csr.build_from(graph);
    e.version = version;
    return e.csr;
  }

  /// A CSR view of `graph` whose values carry `scale * length + offset` —
  /// the affine shape routing metrics take (alpha * L - ln q). Pre-baking
  /// the transform turns the kernel's weight functor into a bare load,
  /// and x + (-y) == x - y exactly in IEEE arithmetic, so distances stay
  /// bit-identical to folding the metric per relaxation.
  const Csr& affine_csr_for(const Graph& graph, double scale, double offset) {
    const std::uint64_t version = graph.topology_version();
    for (AffineEntry& e : affine_entries_) {
      if (e.version == version && e.scale == scale && e.offset == offset) {
        MUERP_COUNTER_INC("spf/affine_csr_cache_hits");
        return e.csr;
      }
    }
    MUERP_COUNTER_INC("spf/affine_csr_builds");
    const Csr& base = csr_for(graph);
    AffineEntry& e = next_affine_slot();
    e.csr.offsets = base.offsets;
    e.csr.arcs = base.arcs;
    for (Arc& arc : e.csr.arcs) {
      arc.value = scale * arc.value + offset;
    }
    e.version = version;
    e.scale = scale;
    e.offset = offset;
    return e.csr;
  }

 private:
  struct BaseEntry {
    std::uint64_t version = 0;  // 0 = never built
    Csr csr;
  };
  struct AffineEntry {
    std::uint64_t version = 0;
    double scale = 0.0;
    double offset = 0.0;
    Csr csr;
  };

  // Rings are grown on demand up to capacity, then recycled round-robin;
  // entries keep their buffers, so recycling reuses the allocations.
  BaseEntry& next_base_slot() {
    if (base_entries_.size() < kCacheCapacity) {
      return base_entries_.emplace_back();
    }
    BaseEntry& e = base_entries_[base_cursor_];
    base_cursor_ = (base_cursor_ + 1) % kCacheCapacity;
    return e;
  }
  AffineEntry& next_affine_slot() {
    if (affine_entries_.size() < kCacheCapacity) {
      return affine_entries_.emplace_back();
    }
    AffineEntry& e = affine_entries_[affine_cursor_];
    affine_cursor_ = (affine_cursor_ + 1) % kCacheCapacity;
    return e;
  }

  std::vector<BaseEntry> base_entries_;
  std::vector<AffineEntry> affine_entries_;
  std::size_t base_cursor_ = 0;
  std::size_t affine_cursor_ = 0;
};

/// The calling thread's kernel context.
inline Context& thread_context() {
  thread_local Context context;
  return context;
}

/// Non-indexed 4-ary min-heap for the label-setting constrained searches:
/// labels are immutable once pushed (no decrease-key), so all that is
/// needed is push / pop_min over a comparator — std::priority_queue
/// semantics on a shallower, cache-friendlier tree. `Less(a, b)` orders a
/// before b; ties pop in an unspecified but deterministic order, so
/// comparators should break ties explicitly when callers care.
template <typename T, typename Less>
class DaryHeap {
 public:
  explicit DaryHeap(Less less) : less_(std::move(less)) {}

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }
  void clear() noexcept { items_.clear(); }

  void push(T item) {
    items_.push_back(std::move(item));
    std::size_t pos = items_.size() - 1;
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!less_(items_[pos], items_[parent])) break;
      std::swap(items_[pos], items_[parent]);
      pos = parent;
    }
  }

  T pop_min() {
    assert(!items_.empty());
    T top = std::move(items_.front());
    items_.front() = std::move(items_.back());
    items_.pop_back();
    std::size_t pos = 0;
    const std::size_t size = items_.size();
    while (true) {
      const std::size_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      const std::size_t last_child = std::min(first_child + 4, size);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (less_(items_[c], items_[best])) best = c;
      }
      if (!less_(items_[best], items_[pos])) break;
      std::swap(items_[pos], items_[best]);
      pos = best;
    }
    return top;
  }

 private:
  std::vector<T> items_;
  Less less_;
};

}  // namespace muerp::graph::spf
