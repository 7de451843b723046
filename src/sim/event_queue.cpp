#include "sim/event_queue.hpp"

namespace fncc {

EventQueue::~EventQueue() {
  for (const TypedEvent& ev : slots_) {
    if (ev.run != nullptr && ev.drop != nullptr) ev.drop(ev.p0, ev.p1, ev.arg);
  }
}

void EventQueue::Push(Time t, std::uint64_t order, const TypedEvent& ev) {
  assert(ev.run != nullptr && "an event needs a run hook");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(ev);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = ev;
  }
  if (wheel_.Accepts(t)) {
    wheel_.Insert(SchedEntry{t, order, slot});
  } else {
    HeapPush(SchedEntry{t, order, slot});
  }
}

TypedEvent EventQueue::PopNext(Time* t, std::uint64_t* order) {
  assert(!Empty() && "PopNext on empty queue");
  const SchedEntry* w = wheel_.Peek();
  const bool from_wheel =
      w != nullptr && (heap_.empty() || Later(heap_.front(), *w));
  const SchedEntry e = from_wheel ? wheel_.Pop() : HeapPop();
  *t = e.t;
  if (order != nullptr) *order = e.seq;
  TypedEvent& slot = slots_[e.slot];
  const TypedEvent ev = slot;
  slot.run = nullptr;
  free_slots_.push_back(e.slot);
  return ev;
}

SchedEntry EventQueue::HeapPop() {
  const SchedEntry top = heap_.front();
  const SchedEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDownFromRoot(last);
  // The heap ran ahead of an empty wheel: drag the wheel cursor to now so
  // newly scheduled near events land in the wheel, not the heap.
  if (wheel_.size() == 0) wheel_.AdvanceTo(top.t);
  return top;
}

void EventQueue::HeapPush(const SchedEntry& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDownFromRoot(const SchedEntry& e) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  // Descend along the min-child path all the way to a leaf.
  while (true) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    const std::size_t c = (r < n && Later(heap_[l], heap_[r])) ? r : l;
    heap_[i] = heap_[c];
    i = c;
  }
  // Bubble e back up from the leaf hole to its resting place.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

}  // namespace fncc
