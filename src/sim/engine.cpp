#include "sim/engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace capgpu::sim {

namespace {
// A fresh engine is cheap (a few KB) but never grows in the hot loop for
// typical rigs: ~32 concurrent timers cover pipeline + meter + governors.
constexpr std::size_t kInitialCapacity = 64;
// Heap arity = 1 << kAryShift. Binary measured fastest: wider nodes halve
// the depth but pay ~k/2 unpredictable compares per level (4-ary was ~1.6x
// slower on the periodic-timer workload of bench_engine_selfperf).
constexpr std::size_t kAryShift = 1;
constexpr std::size_t kAry = std::size_t{1} << kAryShift;
}  // namespace

Engine::Engine() {
  heap_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

Engine::LazyChain::LazyChain(Engine& engine) : engine_(&engine) {
  engine_->chains_.push_back(this);
}

Engine::LazyChain::~LazyChain() {
  auto& chains = engine_->chains_;
  chains.erase(std::find(chains.begin(), chains.end(), this));
}

EventId Engine::LazyChain::move_to_heap(SimTime time, std::uint64_t seq,
                                        Callback cb) {
  Engine& e = *engine_;
  CAPGPU_REQUIRE(!e.in_chain_, "a lazy-chain event cannot schedule events");
  CAPGPU_REQUIRE(time >= e.now_ && seq < e.next_seq_,
                 "a moved chain event keeps a (time, seq) it already drew");
  CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
  return e.insert_one_shot(time, seq, std::move(cb));
}

std::uint32_t Engine::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Engine::recycle_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.cb.reset();
  s.live = false;
  s.periodic = false;
  // Invalidate every outstanding id for this incarnation; generation 0 is
  // skipped on wrap so no EventId is ever 0.
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

void Engine::sift_up(std::size_t i, const Node& value) {
  while (i > 0) {
    const std::size_t parent = (i - 1) >> kAryShift;
    if (!earlier(value, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, value);
}

void Engine::sift_down(std::size_t i, const Node& value) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << kAryShift) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + kAry < n ? first + kAry : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], value)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, value);
}

void Engine::heap_push(const Node& node) {
  heap_.push_back(node);  // grow; sift_up overwrites from the hole
  sift_up(heap_.size() - 1, node);
}

Engine::Node Engine::heap_pop() {
  const Node top = heap_[0];
  const Node last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  return top;
}

void Engine::remove_at(std::size_t pos) {
  const Node last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail itself
  // The tail may belong above or below the vacated position.
  if (pos > 0 && earlier(last, heap_[(pos - 1) >> kAryShift])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

EventId Engine::insert_one_shot(SimTime at, std::uint64_t seq, Callback cb) {
  const std::uint32_t slot = alloc_slot();
  Slot& s = slot_ref(slot);
  s.cb = std::move(cb);
  s.periodic = false;
  s.period = 0.0;
  s.live = true;
  ++live_count_;
  heap_push(Node{at, seq, slot, s.generation});
  return make_id(slot, s.generation);
}

EventId Engine::schedule_at(SimTime at, Callback cb) {
  CAPGPU_REQUIRE(!in_chain_, "a lazy-chain event cannot schedule events");
  CAPGPU_REQUIRE(at >= now_, "cannot schedule an event in the past");
  CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
  return insert_one_shot(at, next_seq_++, std::move(cb));
}

EventId Engine::schedule_after(SimTime delay, Callback cb) {
  CAPGPU_REQUIRE(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

EventId Engine::schedule_periodic(SimTime period, Callback cb) {
  CAPGPU_REQUIRE(!in_chain_, "a lazy-chain event cannot schedule events");
  CAPGPU_REQUIRE(period > 0.0, "periodic events need a positive period");
  CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
  const std::uint32_t slot = alloc_slot();
  Slot& s = slot_ref(slot);
  s.cb = std::move(cb);
  s.periodic = true;
  s.period = period;
  s.live = true;
  ++live_count_;
  heap_push(Node{now_ + period, next_seq_++, slot, s.generation});
  return make_id(slot, s.generation);
}

bool Engine::try_reschedule_firing(EventId id, SimTime delay) {
  CAPGPU_REQUIRE(delay >= 0.0, "negative delay");
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id);
  if (slot != firing_slot_) return false;
  Slot& s = slot_ref(slot);
  if (s.generation != generation) return false;
  CAPGPU_REQUIRE(!s.periodic, "periodic events reschedule themselves");
  CAPGPU_REQUIRE(!resched_armed_ && !s.live,
                 "event already rescheduled during this firing");
  // The seq is drawn here — at the call, exactly where schedule_after
  // would draw it — so the FIFO tie-break order is identical whichever
  // path a caller takes.
  resched_node_ = Node{now_ + delay, next_seq_++, slot, generation};
  resched_armed_ = true;
  s.live = true;
  ++live_count_;
  return true;
}

void Engine::cancel(EventId id) {
  CAPGPU_REQUIRE(!in_chain_, "a lazy-chain event cannot cancel events");
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id);
  if (slot >= slot_count_) return;
  Slot& s = slot_ref(slot);
  if (s.generation != generation || !s.live) return;
  s.live = false;
  --live_count_;
  // A callback cancelling itself mid-invocation: its node is the one
  // fire_top is holding at the top, and a closure must not destroy itself,
  // so fire_top removes the node and recycles the slot after it returns.
  if (s.firing) return;
  remove_at(s.heap_pos);
  recycle_slot(slot);
}

bool Engine::fire_top() {
  const Node node = heap_.front();

  Slot& s = slot_ref(node.slot);
  // cancel() removes nodes eagerly, so a stale or dead node reaching the
  // top would be an engine bug; discard it rather than corrupt the run.
  if (s.generation != node.generation) {
    heap_pop();
    return false;
  }
  if (!s.live) {
    heap_pop();
    recycle_slot(node.slot);
    return false;
  }

  now_ = node.time;
  ++executed_;
  if (!s.periodic) {
    // Invoke in place: the slot stays occupied until after the callback
    // returns (so new events cannot reuse it mid-invocation, and the
    // closure is not destroyed while it runs), but it is already dead —
    // a cancel() of our id from inside the callback is a plain no-op.
    // The fired node also stays at the heap top while the callback runs
    // (everything the callback schedules is strictly later than
    // (node.time, node.seq), so the heap property holds); when the
    // callback re-arms itself via try_reschedule_firing the pop + push
    // collapses into a replace-top, the same fast path periodic events
    // use.
    s.live = false;
    --live_count_;
    s.firing = true;
    firing_slot_ = node.slot;
    resched_armed_ = false;
    try {
      s.cb();
    } catch (...) {
      s.firing = false;
      firing_slot_ = kNoSlot;
      // schedule_after'd work survives a throwing callback, so a
      // rescheduled chain does too.
      if (resched_armed_ && s.live) {
        replace_top(resched_node_);
      } else {
        heap_pop();
        recycle_slot(node.slot);
      }
      throw;
    }
    s.firing = false;
    firing_slot_ = kNoSlot;
    if (resched_armed_ && s.live) {
      replace_top(resched_node_);
    } else {
      heap_pop();
      recycle_slot(node.slot);
    }
    return true;
  }

  // Periodic: run in place — the slot reference is stable (chunked pool)
  // even if the callback grows it, and a self-cancel only marks the slot
  // dead (cancel defers the destroy while `firing` is set). The fired
  // node also stays at the heap top while the callback runs: anything the
  // callback schedules is strictly later than (node.time, node.seq), so
  // the heap property holds, and the reschedule becomes a replace-top —
  // one sift-down instead of a pop plus a push. Reschedule only if the
  // callback did not cancel its own event — rescheduling up front could
  // resurrect a series that cancelled itself.
  const SimTime next_time = node.time + s.period;
  s.firing = true;
  firing_slot_ = node.slot;
  try {
    s.cb();
  } catch (...) {
    // Keep the seed engine's contract: a throwing periodic callback stays
    // scheduled (its reschedule used to be pushed before the invocation).
    s.firing = false;
    firing_slot_ = kNoSlot;
    if (s.live) {
      replace_top(Node{next_time, next_seq_++, node.slot, node.generation});
    } else {
      heap_pop();
      recycle_slot(node.slot);
    }
    throw;
  }
  s.firing = false;
  firing_slot_ = kNoSlot;
  if (s.live) {
    replace_top(Node{next_time, next_seq_++, node.slot, node.generation});
  } else {
    // Cancelled from inside its own callback: let the slot go instead of
    // rescheduling (the pre-overhaul engine could resurrect this series).
    heap_pop();
    recycle_slot(node.slot);
  }
  return true;
}

void Engine::fire_chain(LazyChain& chain) {
  now_ = chain.time_;
  in_chain_ = true;
  try {
    chain.fire();
  } catch (...) {
    in_chain_ = false;
    throw;
  }
  in_chain_ = false;
}

void Engine::catch_up(SimTime time, std::uint64_t seq) {
  // Chain events of different chains commute, so each chain catches up on
  // its own; within a chain, fire() keeps the (time, seq) order.
  for (LazyChain* chain : chains_) {
    while (chain->before(time, seq)) fire_chain(*chain);
  }
}

bool Engine::step() {
  for (;;) {
    LazyChain* first = nullptr;
    for (LazyChain* chain : chains_) {
      if (chain->armed() &&
          (first == nullptr || chain->before(first->time_, first->seq_))) {
        first = chain;
      }
    }
    if (first != nullptr &&
        (heap_.empty() ||
         first->before(heap_.front().time, heap_.front().seq))) {
      fire_chain(*first);
      return true;
    }
    if (heap_.empty()) return false;
    if (fire_top()) return true;
  }
}

void Engine::run_until(SimTime until) {
  CAPGPU_REQUIRE(until >= now_, "run_until target is in the past");
  while (!heap_.empty() && heap_.front().time <= until) {
    catch_up(heap_.front().time, heap_.front().seq);
    fire_top();
  }
  catch_up(until, LazyChain::kIdleSeq);
  now_ = until;
}

}  // namespace capgpu::sim
