#include "sim/event_queue.hpp"

#include <algorithm>

namespace fncc {
namespace {

// The std heap algorithms keep the greatest element at the front; ordering
// by "later than" puts the earliest (t, seq) there.
bool Later(const SchedEntry& a, const SchedEntry& b) { return Before(b, a); }

void Drop(const SchedEntry& e) {
  if (e.ev.drop != nullptr) e.ev.drop(e.ev.p0, e.ev.p1, e.ev.arg);
}

}  // namespace

EventQueue::~EventQueue() {
  for (const SchedEntry& e : heap_) Drop(e);
  wheel_.ForEachPending(Drop);
}

void EventQueue::Push(Time t, std::uint64_t order, const TypedEvent& ev) {
  assert(ev.run != nullptr && "an event needs a run hook");
  if (wheel_.Accepts(t)) {
    wheel_.Insert(SchedEntry{t, order, ev});
  } else {
    heap_.push_back(SchedEntry{t, order, ev});
    std::push_heap(heap_.begin(), heap_.end(), Later);
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
  return e.ev;
}

SchedEntry EventQueue::HeapPop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  const SchedEntry top = heap_.back();
  heap_.pop_back();
  // The heap ran ahead of an empty wheel: drag the wheel cursor to now so
  // newly scheduled near events land in the wheel, not the heap.
  if (wheel_.size() == 0) wheel_.AdvanceTo(top.t);
  return top;
}

}  // namespace fncc
