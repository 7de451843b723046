// Dense, generation-checked flow table: the per-packet receive path's
// replacement for per-host unordered_map flow lookup.
//
// Invariants and ownership contract (mirrors packet_pool.hpp):
//   - Slot/generation rule: a FlowId packs (generation << 20) | (slot + 1),
//     mirroring the EventId scheme of sim/event_queue.hpp. Id 0 is never
//     minted and acts as "no flow". ACK/data lookup is one indexed load
//     plus a generation compare — no hashing, no pointer chasing.
//   - SoA hot/cold split: each slot has a 64-byte HotFlowRow (see
//     transport/hot_flow.hpp) in a parallel dense array holding everything
//     the per-ACK path touches — generation, rate/window words, seq/ack
//     cursors, flow size. The slot block keeps the cold state: the
//     in-place SenderQp (pacing/RTO/completion machinery, the CC
//     algorithm object) and the receiver-side RecvCtx. Register/Release
//     keep the two views coherent (row.generation always equals the slot's
//     generation; a slot without a live sender has row.qp == nullptr).
//   - Flows register at start: Register() mints the FlowId and constructs
//     the SenderQp in place. Callers must treat the minted spec().id as
//     authoritative; any caller-filled FlowSpec::id is overwritten. Ids are
//     minted in registration order starting at 1, so scenarios that never
//     release slots see the same dense 1..N ids the harness historically
//     assigned — recorded FCT CSVs are unchanged. FlowSpec::launch_serial
//     is preserved when the caller pre-stamped it (the streaming launcher,
//     whose recycled ids are not launch-ordered) and defaults to the
//     minted id otherwise — it feeds the partition-invariant flow-start
//     order word (sim/event_queue.hpp, kFlowStartOrderBit).
//   - One table per fabric: every Host of a simulation shares the same
//     FlowTable (the harness host factory injects one shared instance), so
//     a data packet's FlowId resolves to the same slot at the sender (QP)
//     and the receiver (RecvCtx). A Host constructed without a table makes
//     its own — an escape hatch for single-host tests only; two hosts with
//     separate tables cannot exchange registered flows.
//   - Config interning: Register() resolves the config (ResolveCcConfig),
//     pools one copy per distinct resolved value and hands the pooled copy
//     to the flow's algorithm — a sweep's thousands of identical ~250-byte
//     configs collapse to one L1-resident line set. Pooled configs live as
//     long as the table, so they outlive every QP that reads them.
//   - Slot stability: slots and hot rows live in fixed-size blocks that
//     are never reallocated, so SenderQp*/RecvCtx*/HotFlowRow* remain
//     valid for the table's lifetime (pending TypedEvents hold raw
//     SenderQp pointers; bound CC hot words point into rows).
//   - Release() bumps the slot's generation before recycling, so a stale
//     FlowId (late ACK/CNP of a released flow) fails the generation check
//     instead of aliasing the slot's new tenant — no ABA. The generation
//     field is 12 bits: a slot must be released and re-registered 4096
//     times before an id from that far back could alias (same accepted
//     horizon argument as EventId's 32-bit generation, scaled to the far
//     lower flow churn).
//   - Release() cancels the flow's pending events (via SenderQp::Abort)
//     before destroying the QP, so no scheduled event outlives it. The
//     Simulator must outlive the table — satisfied everywhere because
//     hosts (whose shared_ptr refs keep the table alive) are owned by the
//     Network, which is destroyed before the stack-owned Simulator.
//   - The table is single-threaded, like the Simulator that drives it.
//     Parallel sweeps build one table per job (inside the host factory).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "transport/hot_flow.hpp"
#include "transport/sender_qp.hpp"

namespace fncc {

class Host;

/// FlowId layout: low 20 bits = slot + 1, high 12 bits = generation.
inline constexpr std::uint32_t kFlowSlotBits = 20;
inline constexpr std::uint32_t kFlowSlotMask = (1u << kFlowSlotBits) - 1;
inline constexpr std::uint32_t kFlowGenMask =
    0xFFFFFFFFu >> kFlowSlotBits;  // 12-bit generation

[[nodiscard]] inline constexpr FlowId MakeFlowId(std::uint32_t slot,
                                                 std::uint32_t generation) {
  return (generation << kFlowSlotBits) | (slot + 1);
}
[[nodiscard]] inline constexpr std::uint32_t FlowIdGeneration(FlowId id) {
  return id >> kFlowSlotBits;
}

/// Receiver-side per-flow state (the receive half of a flow's slot).
struct RecvCtx {
  std::uint64_t rcv_nxt = 0;
  std::uint64_t total_bytes = 0;  // learned from the last_of_flow packet
  int pkts_since_ack = 0;
  // "Long ago" but safe to subtract from Now() (never -kTimeInfinity:
  // Now() - last_cnp must not overflow).
  Time last_cnp = -kSecond;
  // First data packet seen: `claimed_by` counted this flow into its
  // active-inbound N (the try_emplace "inserted" signal, made explicit).
  // Release() uses it to undo the claim when a flow is torn down before
  // its last byte arrived, so N never leaks upward.
  Host* claimed_by = nullptr;
  bool claimed = false;
  bool done = false;
  // HPCC: the INT stack of the latest data packet on this flow (its first
  // last_int_hops entries), echoed into the next ACK.
  std::array<IntEntry, kMaxIntHops> last_int{};
  std::uint8_t last_int_hops = 0;
  // Fig. 7 pathID of the request path, echoed into ACKs so the sender
  // can verify path symmetry.
  std::uint16_t last_path_id = 0;
};

/// One flow's cold slot: generation + receiver context + sender QP
/// (in-place). Field order is the data path's access order — generation
/// check, then the receiver head — so a data packet's lookup and RecvCtx
/// update share leading cache lines; the bulky QP (whose hot words moved
/// to the HotFlowRow) sits behind them and is only paged in by the send
/// machinery.
struct FlowSlot {
  std::uint32_t generation = 0;  // always kept masked to kFlowGenMask
  bool qp_live = false;
  RecvCtx recv;
  /// When the sender saw the final ACK. Written by the sender's lane, read
  /// by the receiver's under Simulator::settle_delay() (Host::HandleData).
  std::atomic<Time> sender_done_at{kTimeInfinity};
  alignas(SenderQp) unsigned char qp_mem[sizeof(SenderQp)];

  [[nodiscard]] SenderQp* qp() {
    return qp_live ? std::launder(reinterpret_cast<SenderQp*>(qp_mem))
                   : nullptr;
  }
  [[nodiscard]] const SenderQp* qp() const {
    return qp_live ? std::launder(reinterpret_cast<const SenderQp*>(qp_mem))
                   : nullptr;
  }
};

class FlowTable {
 public:
  /// Power of two; slot -> block/offset is a shift + mask.
  static constexpr std::uint32_t kSlotsPerBlock = 64;

  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  ~FlowTable();

  /// Mints spec.id, constructs the flow's SenderQp in a free slot and
  /// returns it (owned by the table; stable address). The QP schedules its
  /// own Start() at spec.start_time.
  SenderQp* Register(Host* host, FlowSpec spec, const CcConfig& cc_config);

  /// The slot a FlowId resolves to, or nullptr when the id is stale (its
  /// slot was released and possibly re-registered) or was never minted.
  /// The data-packet hot lookup: one indexed load + generation compare.
  [[nodiscard]] FlowSlot* Lookup(FlowId id) {
    const std::uint32_t idx = id & kFlowSlotMask;
    if (idx == 0 || idx > next_unused_) return nullptr;
    FlowSlot& s = SlotRef(idx - 1);
    return s.generation == FlowIdGeneration(id) ? &s : nullptr;
  }

  /// The ACK/CNP hot lookup: resolves straight to the flow's 64-byte hot
  /// row (same staleness rule as Lookup — the row mirrors the slot's
  /// generation). A non-null row with row->qp == nullptr means the slot
  /// has no live sender (released, destroyed, or not yet registered at
  /// this generation): callers must drop, exactly as a null would be.
  [[nodiscard]] HotFlowRow* HotLookup(FlowId id) {
    const std::uint32_t idx = id & kFlowSlotMask;
    if (idx == 0 || idx > next_unused_) return nullptr;
    HotFlowRow& r = RowRef(idx - 1);
    return r.generation == FlowIdGeneration(id) ? &r : nullptr;
  }

  /// After a failed Lookup: true when the id names a once-minted slot
  /// (generation mismatch — the flow was released), false when it was
  /// never minted by this table. Receivers drop late data of released
  /// flows instead of resurrecting them through the overflow map.
  [[nodiscard]] bool IsStale(FlowId id) const {
    const std::uint32_t idx = id & kFlowSlotMask;
    return idx != 0 && idx <= next_unused_;
  }

  /// Prefetch hints for batched delivery (net/egress_port's lookahead):
  /// warm the line(s) the upcoming lookup will touch. Pure hints — no
  /// generation check, no side effects, safe on any id.
  void PrefetchAck(FlowId id) const {
    const std::uint32_t idx = id & kFlowSlotMask;
    if (idx == 0 || idx > next_unused_) return;
    const std::uint32_t slot = idx - 1;
    __builtin_prefetch(
        &hot_blocks_[slot / kSlotsPerBlock]->rows[slot % kSlotsPerBlock],
        /*rw=*/1, /*locality=*/3);
  }
  void PrefetchData(FlowId id) const {
    const std::uint32_t idx = id & kFlowSlotMask;
    if (idx == 0 || idx > next_unused_) return;
    const std::uint32_t slot = idx - 1;
    // The generation word and the RecvCtx head share the slot's first line.
    __builtin_prefetch(
        &blocks_[slot / kSlotsPerBlock]->slots[slot % kSlotsPerBlock],
        /*rw=*/1, /*locality=*/3);
  }

  /// Batch-sort key: the dense slot index behind a FlowId (stale or not).
  [[nodiscard]] static std::uint32_t SlotIndex(FlowId id) {
    return id & kFlowSlotMask;
  }

  /// One pooled CcConfig per distinct value; the returned reference is
  /// stable for the table's lifetime. Linear scan — Register is cold and
  /// real scenarios hold a handful of distinct configs.
  const CcConfig& InternConfig(const CcConfig& config) {
    for (const auto& pooled : config_pool_) {
      if (*pooled == config) return *pooled;
    }
    config_pool_.push_back(std::make_unique<CcConfig>(config));
    return *config_pool_.back();
  }

  /// Tears the flow down (cancelling its pending events), bumps the slot
  /// generation — outstanding FlowIds to it go stale — and recycles the
  /// slot. Both hosts are kept consistent: the sender forgets the QP
  /// (Host::qps() never dangles into a recycled slot) and an unfinished
  /// receiver claim is undone (active_inbound_flows never leaks).
  /// Idempotent: a stale id is ignored. The harness releases every flow
  /// it drains as completed, so live slots track concurrent flows.
  void Release(FlowId id);

  [[nodiscard]] std::size_t live_flows() const {
    return next_unused_ - free_.size();
  }
  [[nodiscard]] std::size_t interned_configs() const {
    return config_pool_.size();
  }

 private:
  struct Block {
    FlowSlot slots[kSlotsPerBlock];
  };
  struct HotBlock {
    HotFlowRow rows[kSlotsPerBlock];
  };

  [[nodiscard]] FlowSlot& SlotRef(std::uint32_t slot) {
    return blocks_[slot / kSlotsPerBlock]->slots[slot % kSlotsPerBlock];
  }
  [[nodiscard]] HotFlowRow& RowRef(std::uint32_t slot) {
    return hot_blocks_[slot / kSlotsPerBlock]->rows[slot % kSlotsPerBlock];
  }

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::unique_ptr<HotBlock>> hot_blocks_;  // parallel to blocks_
  std::vector<std::unique_ptr<CcConfig>> config_pool_;
  std::vector<std::uint32_t> free_;  // LIFO: deterministic reuse order
  std::uint32_t next_unused_ = 0;
};

}  // namespace fncc
