// The sender-side hot row: everything the per-ACK path reads or writes for
// one flow, packed into a single 64-byte cache line and stored in dense
// per-slot arrays parallel to the flow table's slot blocks (SoA split).
//
// One ACK touches: the generation word (staleness check), the rate/window
// words (the CC algorithm's CcHotWords are bound into this row — see
// CcBase::BindHotWords), the seq/ack cursors and flow size (progress +
// completion + window arithmetic), and the back-pointer to the cold
// SenderQp for the CC update and the slow tail (RTO rearm, pacing events,
// completion). With 64-byte rows, 8k concurrent flows are
// 512 KiB of ACK-path state instead of the multi-KiB slot blocks — the
// difference between thrashing L2 and fitting it.
//
// Coherence contract (enforced by flow_table_test):
//   - FlowTable::Register wipes the row, stamps row.generation from the
//     slot, and hands it to the new SenderQp, which fills flags/src/size,
//     zeroes the cursors, and binds its CC hot words here.
//   - FlowTable::Release wipes the row again and stamps the *bumped*
//     generation, so a stale FlowId fails HotLookup's generation compare
//     and a matching-generation id minted later but not yet registered
//     resolves to a row with qp == nullptr — either way no stale ACK ever
//     reads or writes a recycled row's words.
//   - row.generation always equals the owning FlowSlot::generation.
#pragma once

#include <cstdint>

#include "cc/cc_algorithm.hpp"
#include "net/packet.hpp"

namespace fncc {

class SenderQp;

struct alignas(64) HotFlowRow {
  /// flags: the two booleans the ACK fast path branches on.
  static constexpr std::uint8_t kUsesWindow = 1;  // CC enforces a window
  static constexpr std::uint8_t kComplete = 2;    // mirrors SenderQp::complete()

  std::uint32_t generation = 0;  // == owning FlowSlot::generation, always
  std::uint8_t flags = 0;
  NodeId src = kInvalidNode;     // sender host (ownership check on ACKs)

  /// The CC algorithm's rate/window live here (bound via BindHotWords), so
  /// the CC update and the window consultation hit this line, not the CC
  /// object.
  CcHotWords words;

  std::uint64_t snd_nxt = 0;     // next new byte to send
  std::uint64_t snd_una = 0;     // cumulative ACK point
  std::uint64_t size_bytes = 0;  // flow length (completion check)

  /// Cold tail: the in-slot QP (pacing, RTO, completion). Null when the
  /// slot has no live sender — the receive path's "drop" signal.
  SenderQp* qp = nullptr;
};

static_assert(sizeof(HotFlowRow) == 64, "one ACK, one cache line");

}  // namespace fncc
