#include "transport/flow_table.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "transport/host.hpp"

namespace fncc {

namespace {

/// Marks the QP aborted and destroys it in place; its pending events then
/// find the slot without a QP (or, after Release, at a newer generation).
void DestroyQp(FlowSlot& slot) {
  SenderQp* qp = slot.qp();
  if (qp == nullptr) return;
  qp->Abort();
  qp->~SenderQp();
  slot.qp_live = false;
}

}  // namespace

FlowTable::~FlowTable() {
  for (std::uint32_t slot = 0; slot < next_unused_; ++slot) {
    DestroyQp(SlotRef(slot));
  }
}

SenderQp* FlowTable::Register(Host* host, FlowSpec spec,
                              const CcConfig& cc_config) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    // Hard capacity check, not assert-only: overflowing the 20-bit slot
    // field would silently alias earlier FlowIds in Release builds —
    // corrupt CC state is far worse than a loud stop. Register is cold.
    if (next_unused_ >= kFlowSlotMask) {
      std::fprintf(stderr,
                   "fncc: FlowTable full (%u slots minted, none released); "
                   "FlowId's 20-bit slot field cannot address more — "
                   "Release() finished flows or shard the scenario\n",
                   next_unused_);
      std::abort();
    }
    slot = next_unused_++;
    if (slot / kSlotsPerBlock == blocks_.size()) {
      blocks_.push_back(std::make_unique<Block>());
      hot_blocks_.push_back(std::make_unique<HotBlock>());
    }
  }
  FlowSlot& s = SlotRef(slot);
  HotFlowRow& row = RowRef(slot);
  assert(!s.qp_live && "free slot still holds a QP");
  s.recv = RecvCtx{};  // fresh receiver state for the new tenant
  s.sender_done_at.store(kTimeInfinity, std::memory_order_relaxed);
  row = HotFlowRow{};
  row.generation = s.generation;  // the coherence invariant
  spec.id = MakeFlowId(slot, s.generation);
  // Launch serial defaults to the minted id: without slot recycling, ids
  // are dense registration-order serials, so the flow-start order word and
  // the completion tie-break reduce to the historical id-based order. A
  // caller that recycles slots (the streaming launcher) pre-stamps the
  // true dense serial instead.
  if (spec.launch_serial == 0) spec.launch_serial = spec.id;
  // Intern the *resolved* config: derived constants (HPCC's, Timely's RTT
  // thresholds) are final before any flow reads them, so value-identical
  // flows collapse onto one pooled copy.
  const CcConfig& config = InternConfig(ResolveCcConfig(cc_config));
  SenderQp* qp = ::new (s.qp_mem) SenderQp(host, this, spec, config, &row);
  s.qp_live = true;
  return qp;
}

void FlowTable::Release(FlowId id) {
  FlowSlot* s = Lookup(id);
  if (s == nullptr) return;  // stale or never minted: idempotent
  // Keep both ends of the flow consistent before the slot is wiped. (Not
  // done in ~FlowTable: at teardown the hosts are already gone and no
  // stat is read afterwards.)
  if (SenderQp* qp = s->qp()) qp->host()->ForgetQp(qp);
  if (s->recv.claimed && !s->recv.done && s->recv.claimed_by != nullptr) {
    s->recv.claimed_by->DropInboundClaim();
  }
  DestroyQp(*s);
  s->recv = RecvCtx{};
  // Bump the generation: every outstanding id to this slot is now stale,
  // before the slot can be handed to a new flow.
  s->generation = (s->generation + 1) & kFlowGenMask;
  // Re-sync the hot row: wiped (qp = nullptr drops any matching-generation
  // ACK arriving before a re-registration) and stamped with the bumped
  // generation so stale ids fail HotLookup exactly like Lookup.
  HotFlowRow& row = RowRef((id & kFlowSlotMask) - 1);
  row = HotFlowRow{};
  row.generation = s->generation;
  free_.push_back((id & kFlowSlotMask) - 1);
}

}  // namespace fncc
