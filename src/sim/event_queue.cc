#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"

namespace msn {

EventId EventQueue::Schedule(Time when, Callback cb) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const uint32_t gen = slots_[slot].gen;
  slots_[slot].cb = std::move(cb);
  const uint64_t seq = next_seq_++;
  if (lane_open_ && when == lane_time_) {
    // Fires during the wave currently being drained: FIFO lane, no sift.
    // Ordering vs heap items at the same time is preserved because those all
    // predate the drain and carry smaller sequence numbers (PopNext prefers
    // the heap on equal timestamps).
    lane_.push_back(Item{when, seq, slot, gen});
    ++lane_stats_.lane_scheduled;
  } else {
    HeapPush(Item{when, seq, slot, gen});
    ++lane_stats_.heap_scheduled;
  }
  ++live_count_;
  return EventId((static_cast<uint64_t>(gen) << 32) | (slot + 1));
}

bool EventQueue::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(id.handle_ & 0xffffffff) - 1;
  const uint32_t gen = static_cast<uint32_t>(id.handle_ >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;  // Already fired, already cancelled, or never existed.
  }
  ++slots_[slot].gen;
  slots_[slot].cb.Reset();
  free_slots_.push_back(slot);
  --live_count_;
  return true;
}

void EventQueue::HeapPush(const Item& item) {
  // Sift the hole up from the new leaf; each parent moves down at most once
  // and `item` is written once, at its final position.
  size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!After(heap_[parent], item)) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = item;
}

void EventQueue::PopHeapItem() {
  // Sift the hole left by the root down along the earliest children, then
  // drop the last leaf into it.
  const Item last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t hole = 0;
  for (;;) {
    const size_t first = kArity * hole + 1;
    if (first >= n) {
      break;
    }
    const size_t end = std::min(first + kArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (After(heap_[best], heap_[c])) {
        best = c;
      }
    }
    if (!After(last, heap_[best])) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

void EventQueue::DropCancelledHead() {
  while (!heap_.empty() && TopIsTombstone()) {
    PopHeapItem();
  }
}

void EventQueue::DropCancelledLaneFront() {
  while (lane_head_ < lane_.size() &&
         slots_[lane_[lane_head_].slot].gen != lane_[lane_head_].gen) {
    ++lane_head_;
  }
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

Time EventQueue::NextTime() const {
  // Tombstone at the top can hide a later live event; peel lazily. Logically
  // const: live events and their order are unchanged.
  auto* self = const_cast<EventQueue*>(this);
  self->DropCancelledHead();
  self->DropCancelledLaneFront();
  const bool lane_live = lane_head_ < lane_.size();
  if (heap_.empty()) {
    return lane_live ? lane_[lane_head_].when : Time::Max();
  }
  if (lane_live && lane_[lane_head_].when < heap_.front().when) {
    return lane_[lane_head_].when;
  }
  return heap_.front().when;
}

EventQueue::Entry EventQueue::TakeItem(const Item& item) {
  const uint32_t slot = item.slot;
  Entry entry{item.when, std::move(slots_[slot].cb)};
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
  --live_count_;
  lane_time_ = entry.when;
  lane_open_ = true;
  return entry;
}

EventQueue::Entry EventQueue::PopNext() {
  DropCancelledHead();
  DropCancelledLaneFront();
  const bool lane_live = lane_head_ < lane_.size();
  MSN_ASSERT(!heap_.empty() || lane_live) << "PopNext on an empty event queue";
  // On equal timestamps the heap wins: every live heap item at the lane time
  // was scheduled before the drain opened the lane, so its seq is smaller
  // than any lane item's.
  const bool from_heap =
      !heap_.empty() && (!lane_live || heap_.front().when <= lane_[lane_head_].when);
  if (from_heap) {
    Entry entry = TakeItem(heap_.front());
    PopHeapItem();
    return entry;
  }
  Entry entry = TakeItem(lane_[lane_head_]);
  ++lane_head_;
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
  return entry;
}

}  // namespace msn
