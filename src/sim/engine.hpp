// Discrete-event simulation kernel.
//
// The workload pipeline (preprocessing, queueing, batching, GPU execution)
// and the 1 Hz power meter / 4 s control loop all run as events on this
// engine. Events at equal timestamps execute in scheduling order
// (deterministic FIFO tie-break), which keeps every experiment reproducible.
//
// Hot-path layout (this is the innermost loop of every experiment):
//  - event state lives in a recycled slot pool indexed by the heap nodes,
//    so the fire path touches no associative container;
//  - callbacks are stored in SmallCallback's inline buffer, so scheduling
//    the common capture-a-few-pointers lambda performs no heap allocation;
//  - the heap is indexed: every slot records where its node sits, so
//    cancel() removes the node in place (O(log n) on a heap of *live*
//    events) instead of leaving a tombstone — watchdog patterns that arm
//    and cancel far-out deadlines cannot bloat the heap or the slot pool;
//  - lazy chains (Engine::LazyChain) keep the high-rate self-rearming
//    chains nothing observes between events (the CPU task's rounds, a
//    busy stream's preprocess workers) out of the heap altogether.
//
// Lazy chains. A chain exposes its earliest pending event as (time, seq);
// the seq is drawn from the same counter schedule_after draws from, at the
// arm call, so the chain event takes exactly the place in the total
// (time, seq) fire order it would take as a heap event. Before each heap
// event fires, and before run_until returns, every chain runs its events
// ordered before that point; step() fires the earliest of the heap top
// and every chain's next event. A chain event may touch only its owner's
// state and order-free sums (HostCpuLoad's busy count): it schedules and
// cancels no heap event and emits no trace, flight, log or metric record.
// Chain events of different chains therefore commute, each chain keeps its
// own events in (time, seq) order, and everything that reads what a chain
// writes — or writes what a chain reads — runs as a heap event or outside
// run_until, so it sees every chain caught up to its own point in the fire
// order. The result is the fire order of an all-heap engine, event for
// event; events_executed() and pending() count heap events only.
//
// EventIds encode (slot index, generation); a recycled slot bumps its
// generation, so stale ids from fired or cancelled events can never touch
// a newer event occupying the same slot.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/small_callback.hpp"

namespace capgpu::sim {

/// Simulated wall-clock, in seconds since simulation start.
using SimTime = double;

/// Handle used to cancel a scheduled event. Id 0 is never issued.
using EventId = std::uint64_t;

/// Single-threaded discrete-event engine.
class Engine {
 public:
  using Callback = SmallCallback;

  /// An event chain kept out of the heap (see the header comment for the
  /// contract). The owner derives from it, arms the chain's earliest
  /// pending event with set_next() and runs it in fire(), which must
  /// re-arm or disarm before it returns. The engine must outlive the chain.
  class LazyChain {
   public:
    LazyChain(const LazyChain&) = delete;
    LazyChain& operator=(const LazyChain&) = delete;

   protected:
    explicit LazyChain(Engine& engine);
    ~LazyChain();

    /// Runs the chain event at its (time, seq); now() reads that time.
    virtual void fire() = 0;

    /// Draws the seq of an event armed now — the one schedule_after would
    /// draw here — so the event keeps its heap-event place in the order.
    [[nodiscard]] std::uint64_t draw_seq() { return engine_->next_seq_++; }
    /// Sets the chain's earliest pending event.
    void set_next(SimTime time, std::uint64_t seq) {
      time_ = time;
      seq_ = seq;
    }
    /// No pending event: the chain never fires until set_next() again.
    void disarm() { set_next(kIdleTime, kIdleSeq); }
    /// Moves one of the chain's pending events into the heap, keeping its
    /// (time, seq); the event is then an ordinary cancellable heap event.
    EventId move_to_heap(SimTime time, std::uint64_t seq, Callback cb);

   private:
    friend class Engine;
    static constexpr SimTime kIdleTime =
        std::numeric_limits<SimTime>::infinity();
    static constexpr std::uint64_t kIdleSeq =
        std::numeric_limits<std::uint64_t>::max();

    [[nodiscard]] bool armed() const { return seq_ != kIdleSeq; }
    /// True when the chain's next event is ordered before (time, seq); an
    /// idle chain is ordered after everything.
    [[nodiscard]] bool before(SimTime time, std::uint64_t seq) const {
      return time_ < time || (time_ == time && seq_ < seq);
    }

    Engine* engine_;
    SimTime time_{kIdleTime};
    std::uint64_t seq_{kIdleSeq};
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (>= now). Returns a cancellable id.
  EventId schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` seconds (delay >= 0).
  EventId schedule_after(SimTime delay, Callback cb);

  /// Schedules `cb` every `period` seconds, first firing at now() + period.
  /// The periodic event reschedules itself until cancelled — including
  /// cancellation from inside its own callback.
  EventId schedule_periodic(SimTime period, Callback cb);

  /// One-shot self-reschedule fast path. Valid only while `id`'s own
  /// callback is executing: re-arms the same slot and callback to fire
  /// again at now() + delay, so a self-perpetuating chain (a preprocess
  /// worker, a batch consumer) skips the slot recycle, the callback
  /// reconstruction, and the heap pop+push of a fresh schedule_after —
  /// the fired node is overwritten in place like a periodic reschedule.
  /// The id stays valid for the whole chain (same slot, same generation),
  /// so cancel(id) between firings still stops it. Returns false when
  /// `id` is not the currently-firing event (e.g. the chain is being
  /// restarted from another event's callback) — callers then fall back
  /// to schedule_after.
  bool try_reschedule_firing(EventId id, SimTime delay);

  /// Cancels a pending event; a no-op for already-fired or unknown ids.
  void cancel(EventId id);

  /// Runs events with time <= `until`, lazy-chain events included;
  /// afterwards now() == `until` even if the queue drained earlier.
  void run_until(SimTime until);

  /// Runs the earliest pending event, heap or lazy chain; returns false
  /// when idle.
  bool step();

  /// Number of heap events executed so far (lazy-chain events excluded).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of heap events currently pending (excluding cancelled ones).
  [[nodiscard]] std::size_t pending() const { return live_count_; }

 private:
  struct Slot {
    Callback cb;
    SimTime period{0.0};
    std::uint32_t generation{1};
    bool periodic{false};
    bool live{false};
    /// True while this slot's callback is executing in place (periodic
    /// fire). A cancel() during that window marks the slot dead but defers
    /// destroying the callback to fire_top — a closure must not destroy
    /// itself mid-invocation.
    bool firing{false};
    /// Index of this slot's node in heap_, maintained by every sift so
    /// cancel() can remove the node without a search.
    std::uint32_t heap_pos{0};
  };
  struct Node {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
    std::uint32_t generation;
  };

  /// Strict total order (seq is unique), so the fire sequence is the same
  /// for any heap shape — arity is purely a performance choice.
  static bool earlier(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Writes `node` at heap index `i` and records the position in its slot.
  void place(std::size_t i, const Node& node) {
    heap_[i] = node;
    slot_ref(node.slot).heap_pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, const Node& value);
  /// Places `value` at position `i` after moving smaller descendants up.
  void sift_down(std::size_t i, const Node& value);
  void heap_push(const Node& node);
  /// Removes and returns the minimum; heap must be non-empty.
  Node heap_pop();
  /// Removes the node at heap index `pos` (cancel path).
  void remove_at(std::size_t pos);
  /// Overwrites the minimum with `node` and restores the heap with one
  /// sift-down — the periodic-reschedule fast path (no pop + sift-up).
  void replace_top(const Node& node) { sift_down(0, node); }

  /// Slots live in fixed-size chunks: addresses stay valid while a
  /// callback runs (even when it schedules events that grow the pool), and
  /// indexing is a shift+mask, not a division like std::deque's.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  [[nodiscard]] Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot();
  void recycle_slot(std::uint32_t slot);
  /// Stores `cb` in a fresh slot and pushes its node at (at, seq).
  EventId insert_one_shot(SimTime at, std::uint64_t seq, Callback cb);
  /// Pops the top node and runs it if still live; returns true when a
  /// callback executed.
  bool fire_top();
  /// Runs every lazy-chain event ordered before (time, seq).
  void catch_up(SimTime time, std::uint64_t seq);
  /// Runs `chain`'s next event at its own time.
  void fire_chain(LazyChain& chain);

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  /// Sentinel for firing_slot_ when no callback is executing.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  SimTime now_{0.0};
  std::uint64_t next_seq_{0};
  /// Slot whose callback fire_top is currently invoking; gates
  /// try_reschedule_firing to the self-reschedule case only.
  std::uint32_t firing_slot_{kNoSlot};
  /// Set when the firing one-shot re-armed itself; fire_top then turns the
  /// pending pop + push into a replace-top with resched_node_.
  bool resched_armed_{false};
  Node resched_node_{};
  std::uint64_t executed_{0};
  std::size_t live_count_{0};
  /// Registered lazy chains, in registration order (their events commute,
  /// so the order only fixes which chain catches up first).
  std::vector<LazyChain*> chains_;
  /// Set while a lazy-chain event runs; heap scheduling then throws.
  bool in_chain_{false};
  // Indexed binary min-heap (slots track their node's position). Binary
  // beats higher arities here: the min-of-k child selection is a chain of
  // data-dependent branches, and with k=2 it is one well-predicted
  // comparison per level (measured ~1.6x faster fires than 4-ary).
  std::vector<Node> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_{0};  ///< slots constructed across all chunks
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace capgpu::sim
