// The discrete-event simulation kernel: a clock, an event queue, and the
// per-run packet arena — multiplied across independent event "lanes" when
// the fabric is partitioned into parallel domains (Partition()).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace fncc {

class PacketPool;  // net/packet_pool.hpp; owned here as an opaque arena

/// Discrete-event simulator. All model components hold a non-owning pointer
/// to the Simulator that drives them; the Simulator is created first and
/// outlives the model (typically stack-owned by a scenario runner).
///
/// By default the simulator is a single event lane — one queue, one clock,
/// one arena, single-threaded, exactly the classic kernel. Partition(n)
/// splits it into n lanes for conservative-PDES execution: each lane owns
/// its slice of the fabric (assigned at build time via ActiveLaneScope),
/// lanes advance in bounded time windows of the cross-lane lookahead
/// (min link propagation delay, set by Network::SealDomains), and
/// cross-lane packet handoffs buffer in per-port mailboxes drained at
/// window barriers. Order words (see event_queue.hpp) make pop order — and
/// every simulation output — bit-identical at any lane count.
///
/// Run/RunUntil drive an unpartitioned simulator only; a partitioned one
/// is driven window by window by exec/DomainScheduler through the window
/// primitives below. One pop loop (RunEvents) serves all three.
class Simulator {
 public:
  /// One event domain's execution state. Unpartitioned simulators have
  /// exactly one lane and every fast path below compiles to the classic
  /// single-queue code plus one predicted branch.
  struct Lane {
    EventQueue queue;
    Time now = 0;
    std::uint64_t events_processed = 0;
    /// Order word of the event currently executing: together with `now` it
    /// positions any side effect of that event — e.g. an FCT record — in
    /// the global (t, order) sequence (see CurrentOrderKey).
    std::uint64_t cur_order = 0;
    PacketPool* pool = nullptr;  // owned by the Simulator's pools_
    int id = 0;
  };

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The packet arena of the calling thread's active lane. Every packet a
  /// model component allocates comes from here so steady-state traffic is
  /// heap-allocation-free and all packet storage dies with the run. Pools
  /// are declared before (destroyed after) the lanes: callbacks still
  /// holding PacketPtrs at teardown return them to a live pool.
  [[nodiscard]] PacketPool& packet_pool() { return *lane().pool; }

  /// Current simulation time (of the calling thread's active lane).
  [[nodiscard]] Time Now() const { return lane().now; }

  /// Schedules `cb` to run `delay` from now. Negative delays clamp to now.
  void Schedule(Time delay, EventQueue::Callback cb) {
    Lane& l = lane();
    l.queue.Schedule(l.now + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Schedules a typed (closure-free) event `delay` from now — the packet
  /// pipeline's zero-lambda dispatch path.
  void Schedule(Time delay, const TypedEvent& ev) {
    Lane& l = lane();
    l.queue.Schedule(l.now + (delay > 0 ? delay : 0), ev);
  }

  /// Schedules `cb` at absolute time `t` (clamped to now).
  void ScheduleAt(Time t, EventQueue::Callback cb) {
    Lane& l = lane();
    l.queue.Schedule(t > l.now ? t : l.now, std::move(cb));
  }

  /// Typed-event variant of ScheduleAt.
  void ScheduleAt(Time t, const TypedEvent& ev) {
    Lane& l = lane();
    l.queue.Schedule(t > l.now ? t : l.now, ev);
  }

  /// Schedules a typed event `delay` from now with an explicit
  /// partition-invariant order word instead of a minted native one — the
  /// link-delivery path (see kNativeOrderBit in event_queue.hpp).
  void ScheduleOrdered(Time delay, std::uint64_t order,
                       const TypedEvent& ev) {
    Lane& l = lane();
    l.queue.ScheduleOrdered(l.now + (delay > 0 ? delay : 0), order, ev);
  }

  /// Absolute-time variant of ScheduleOrdered (mailbox drains, flow
  /// starts, lazy timers' carriers).
  void ScheduleAtOrdered(Time t, std::uint64_t order, const TypedEvent& ev) {
    Lane& l = lane();
    l.queue.ScheduleOrdered(t > l.now ? t : l.now, order, ev);
  }

  /// Mints the active lane's next native order word — the one a Schedule
  /// call made now would carry (EventQueue::MintOrder). Nothing is
  /// scheduled: the caller files an event with it later through
  /// ScheduleAtOrdered (sim/lazy_timer.hpp).
  std::uint64_t MintOrder() { return lane().queue.MintOrder(); }

  /// Runs until the event queue drains. Throws std::logic_error on a
  /// partitioned simulator (run it with exec/DomainScheduler).
  void Run();

  /// Runs events with timestamp <= t, then sets the clock to exactly t.
  /// Throws std::logic_error on a partitioned simulator, like Run().
  void RunUntil(Time t);

  [[nodiscard]] std::uint64_t events_processed() const {
    std::uint64_t n = 0;
    for (const Lane* l : lanes_) n += l->events_processed;
    return n;
  }
  /// Pending work across all lanes: queued events plus cross-lane handoffs
  /// still buffered in port outboxes (each becomes an event at the next
  /// window's drain — callers polling for quiescence between RunUntil
  /// calls must see them).
  [[nodiscard]] std::size_t events_pending() const {
    std::size_t n = 0;
    for (const Lane* l : lanes_) n += l->queue.size();
    for (const auto& lane_boxes : mailboxes_) {
      for (const Mailbox& m : lane_boxes) n += m.pending(m.ctx);
    }
    return n;
  }

  /// Packet-arena totals summed over all lanes. NOTE: unlike every physical
  /// counter, these are lane-partition-dependent (cross-lane handoffs
  /// re-acquire in the destination arena), so they are comparable across
  /// thread counts at a fixed partitioning but not across lane counts.
  [[nodiscard]] std::uint64_t pool_total_created() const;
  [[nodiscard]] std::uint64_t pool_acquires() const;
  [[nodiscard]] std::uint64_t pool_int_blocks_created() const;

  /// Sizes every lane's INT blocks (PacketPool::set_int_block_hops) to
  /// `hops` entries. Network's routing calls it, after Partition, with the
  /// longest switch path it installed; it must precede the first INT push
  /// (a pool that has carved a block throws on a new size).
  void set_int_block_hops(int hops);

  /// Upper bound on delivery_batch (sizes the drain paths' stack arrays).
  static constexpr int kMaxDeliveryBatch = 64;

  /// Egress delivery lookahead: how many in-flight packets a port keeps in
  /// its delivery chain for batched destination prefetch (see
  /// net/egress_port.hpp). 1 = unbatched per-packet delivery. Purely a
  /// cache-warming knob: every packet is still delivered by its own event
  /// at its own (t,seq), so results are bit-identical across settings.
  [[nodiscard]] int delivery_batch() const { return delivery_batch_; }
  void set_delivery_batch(int batch) {
    delivery_batch_ =
        batch < 1 ? 1 : (batch > kMaxDeliveryBatch ? kMaxDeliveryBatch : batch);
  }

  // ---- Lane partitioning (intra-point conservative PDES) -----------------

  /// Splits the simulator into `lanes` independent event domains. Must be
  /// called before anything is scheduled — i.e. before the fabric is built,
  /// so construction-time events (switch timers) land in their owner's
  /// lane. Lane 0 adopts the base state; lanes 1..n-1 get fresh queues and
  /// arenas. Afterwards the constructing thread's active lane is lane 0, so
  /// setup code outside any ActiveLaneScope still targets lane 0.
  void Partition(int lanes);

  [[nodiscard]] int num_lanes() const {
    return static_cast<int>(lanes_.size());
  }
  [[nodiscard]] bool partitioned() const { return multi_; }
  [[nodiscard]] int ActiveLaneId() const { return lane().id; }

  /// (time, order word) of the event currently executing in the active
  /// lane — the canonical global position used to merge per-lane record
  /// streams (e.g. FCT completions) independently of the partitioning.
  struct OrderKey {
    Time t = 0;
    std::uint64_t order = 0;
  };
  [[nodiscard]] OrderKey CurrentOrderKey() const {
    const Lane& l = lane();
    return OrderKey{l.now, l.cur_order};
  }

  /// RAII: makes lane `id` of `sim` the calling thread's active lane. All
  /// Schedule/Now/packet_pool calls on that simulator route to it. Used
  /// during setup (constructing a node inside its domain) and by the window
  /// runner around each lane's event batch.
  class ActiveLaneScope {
   public:
    ActiveLaneScope(Simulator* sim, int id) : prev_lane_(t_active_lane_) {
      t_active_lane_ = sim->lanes_[static_cast<std::size_t>(id)];
    }
    ~ActiveLaneScope() { t_active_lane_ = prev_lane_; }
    ActiveLaneScope(const ActiveLaneScope&) = delete;
    ActiveLaneScope& operator=(const ActiveLaneScope&) = delete;

   private:
    Lane* prev_lane_;
  };

  /// Mints the order-word base for the next directed link: the edge index
  /// in bits [62:32] (bit 63 clear = delivery). Edges are minted in
  /// EgressPort::Connect order, which is topology build order — fixed and
  /// independent of the partitioning, so a given wire always produces the
  /// same words.
  [[nodiscard]] std::uint64_t MintEdgeOrderBase() {
    assert(next_edge_ < (1u << 30) && "directed-edge index overflow");
    return static_cast<std::uint64_t>(next_edge_++) << 32;
  }

  /// Conservative-PDES window width: min propagation delay over cross-lane
  /// links, set by Network::SealDomains after wiring. kTimeInfinity (the
  /// default) means no cross-lane links — each window runs to the bound.
  void set_domain_lookahead(Time l) { lookahead_ = l; }
  [[nodiscard]] Time domain_lookahead() const { return lookahead_; }

  /// Largest link propagation delay (Network::SealDomains, at every lane
  /// count): a partition-invariant bound on the lookahead, so another
  /// lane's write stamped at or before Now() - settle_delay() was made in
  /// a finished window and reads (atomically) the same at any partitioning.
  void set_settle_delay(Time d) { settle_delay_ = d; }
  [[nodiscard]] Time settle_delay() const { return settle_delay_; }

  /// Registers a cross-lane mailbox: `drain(ctx)` runs under lane
  /// `dst_lane`'s scope at every window barrier and moves the *sealed*
  /// outbox buffer's handoffs into that lane's queue
  /// (EgressPort::DrainHandoffs). `min_time(ctx)` reports the earliest
  /// buffered delivery time (kTimeInfinity if none) so NextEventTime can
  /// bound the next window by handoffs that are not yet in any queue;
  /// `pending(ctx)` reports the buffered handoff count for
  /// events_pending(). Register after wiring completes — `ctx` must be a
  /// stable pointer.
  using MailboxDrainFn = void (*)(void* ctx);
  using MailboxMinTimeFn = Time (*)(void* ctx);
  using MailboxPendingFn = std::size_t (*)(void* ctx);
  void RegisterMailbox(int dst_lane, void* ctx, MailboxDrainFn drain,
                       MailboxMinTimeFn min_time, MailboxPendingFn pending);

  // Window protocol primitives, driven by exec/DomainScheduler. The run and
  // drain
  // phases are fused behind one barrier per window by double-buffering the
  // port outboxes: sends of window w append to the active buffer, the
  // phase flips at the window's end barrier, and window w+1 drains the
  // now-sealed buffer before running its events — no lane ever reads a
  // buffer another lane is still appending to. Sequence per window:
  // [prologue, single-threaded] flip phase, pick close; [work, per lane]
  // DrainLaneMailboxes then RunLaneWindow(close); barrier.
  /// Earliest pending work time across all lanes: queued events plus
  /// buffered cross-lane handoffs (which window w+1 injects before running,
  /// so they bound its start exactly as queued events do). kTimeInfinity
  /// if fully drained.
  [[nodiscard]] Time NextEventTime();
  /// Exclusive upper bound of the window starting at `start`, bounded
  /// inclusively by `limit`: min(start + lookahead, limit + 1).
  [[nodiscard]] Time WindowClose(Time start, Time limit) const;
  /// Runs lane `id`'s events with t < close under its scope. Safe to call
  /// concurrently for distinct lanes.
  void RunLaneWindow(int id, Time close);
  /// Runs lane `id`'s registered mailbox drains under its scope, injecting
  /// the sealed (previous-phase) outbox buffers. Safe for distinct lanes
  /// concurrently — and, thanks to the double buffering, safe to run while
  /// other lanes execute their windows (they append to the active phase).
  void DrainLaneMailboxes(int id);
  /// Advances every lane clock to `t` (RunUntil semantics).
  void SettleLanes(Time t);

  /// Outbox double-buffer phase: cross-lane sends append to buffer
  /// [outbox_phase()], drains read buffer [outbox_phase() ^ 1]. Flipped
  /// once per window inside the single-threaded window prologue (the
  /// barrier completion) — the barrier's ordering is what publishes the
  /// flip to every lane.
  [[nodiscard]] int outbox_phase() const { return outbox_phase_; }
  void FlipOutboxPhase() { outbox_phase_ ^= 1; }

  /// Count of PDES windows executed: the window start sequence is a
  /// deterministic function of the event stream, the same at any thread
  /// count. Deterministic at a fixed partitioning; feeds the windows/sec
  /// bench counter and `output.pdes_stats`.
  [[nodiscard]] std::uint64_t windows_executed() const {
    return windows_executed_;
  }
  /// Called once per window by the driving engine's prologue.
  void NoteWindowExecuted() { ++windows_executed_; }

  /// Per-lane slice of events_processed() — the telemetry layer snapshots
  /// it each window to attribute work to lanes.
  [[nodiscard]] std::uint64_t lane_events_processed(int id) const {
    return lanes_[static_cast<std::size_t>(id)]->events_processed;
  }

 private:
  /// The one event pop loop: runs `l`'s events with t < close.
  void RunEvents(Lane& l, Time close);
  void RequireUnpartitioned() const;

  [[nodiscard]] Lane& lane() {
    assert(!multi_ || t_active_lane_ != nullptr);
    return multi_ ? *t_active_lane_ : lane0_;
  }
  [[nodiscard]] const Lane& lane() const {
    assert(!multi_ || t_active_lane_ != nullptr);
    return multi_ ? *t_active_lane_ : lane0_;
  }

  // Destruction runs bottom-up: lanes (queues, and the packets their
  // callbacks hold) go before the pools. Keep pools_ first.
  std::vector<std::unique_ptr<PacketPool>> pools_;
  Lane lane0_;  // by value: the unpartitioned hot path needs no indirection
  std::vector<std::unique_ptr<Lane>> extra_lanes_;
  std::vector<Lane*> lanes_;  // all lanes: {&lane0_, extra_lanes_...}
  bool multi_ = false;
  int delivery_batch_ = 16;
  Time lookahead_ = kTimeInfinity;
  Time settle_delay_ = 0;
  std::uint32_t next_edge_ = 0;

  struct Mailbox {
    void* ctx;
    MailboxDrainFn drain;
    MailboxMinTimeFn min_time;
    MailboxPendingFn pending;
  };
  std::vector<std::vector<Mailbox>> mailboxes_;  // indexed by dst lane
  int outbox_phase_ = 0;
  std::uint64_t windows_executed_ = 0;

  /// The calling thread's active lane (see ActiveLaneScope). Only consulted
  /// when multi_ — unpartitioned simulators never touch it.
  inline static thread_local Lane* t_active_lane_ = nullptr;
};

}  // namespace fncc
