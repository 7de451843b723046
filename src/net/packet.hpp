// Packet model. One struct covers data, ACK, CNP (DCQCN) and PFC control
// frames; the INT stack follows the FNCC ACK format of Fig. 7 in the paper.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>

#include "sim/time.hpp"

namespace fncc {

using NodeId = std::uint16_t;

/// Structured handle minted by the transport flow table:
/// (generation << 20) | (slot + 1), id 0 = "no flow" — see
/// transport/flow_table.hpp for the slot/generation rule. The net layer
/// treats it as opaque.
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFF;

/// Maximum switch hops a packet can record INT for. A 3-level fat-tree path
/// crosses 5 switches; 12 leaves room for experimental topologies.
inline constexpr int kMaxIntHops = 12;

/// Default wire sizes (bytes). The paper uses MTU 1518 and ~dozens-of-bytes
/// ACKs; INT adds kIntBytesPerHop per recorded hop (Fig. 7: 64-bit entries).
inline constexpr std::uint32_t kDefaultMtuBytes = 1518;
inline constexpr std::uint32_t kAckBytes = 60;
inline constexpr std::uint32_t kCnpBytes = 60;
inline constexpr std::uint32_t kPfcFrameBytes = 64;
inline constexpr std::uint32_t kIntBytesPerHop = 8;

enum class PacketType : std::uint8_t {
  kData,       // RoCE application payload
  kAck,        // cumulative ACK, may carry INT (FNCC/HPCC) and N (FNCC)
  kCnp,        // DCQCN congestion notification packet
  kPfcPause,   // 802.1Qbb XOFF, link-local
  kPfcResume,  // 802.1Qbb XON, link-local
};

/// One hop's telemetry, as defined by HPCC and reused by FNCC (Fig. 7:
/// {B, TS, txBytes, qLen}).
struct IntEntry {
  double bandwidth_gbps = 0.0;  // egress link capacity B
  Time ts = 0;                  // timestamp at stamping
  std::uint64_t tx_bytes = 0;   // cumulative bytes transmitted on the port
  std::uint64_t qlen_bytes = 0;  // egress queue length at stamping

  friend bool operator==(const IntEntry&, const IntEntry&) = default;
};

class PacketPool;
struct Packet;

/// A packet's fixed-size fields: everything except the INT entries, which
/// live out of line in a block from the owning PacketPool (see Packet).
/// Copying a header never copies or shares INT storage, so the header is
/// also what a cross-lane handoff buffers (net/egress_port.hpp).
///
/// Field order is access order: the first cache line holds what the egress
/// FIFO, the pool, ECMP routing, PFC accounting and INT stamping touch on
/// every hop; the per-flow payload fields follow.
struct PacketHeader {
  /// Transport plumbing. `next` links the packet into an EgressPort's
  /// intrusive FIFO while ownership is flattened to a raw pointer. `pool`
  /// is the pool that owns the packet: set at acquire, it is where the
  /// PacketPtr deleter returns the packet and where its INT blocks come
  /// from.
  Packet* next = nullptr;
  PacketPool* pool = nullptr;

  PacketType type = PacketType::kData;
  /// Entries in the INT stack; written only by Packet's INT methods.
  std::uint8_t int_hops = 0;
  /// HPCC stamps DATA along the request path and the receiver copies the
  /// stack into the ACK (L[0] = first hop from the sender). FNCC stamps
  /// the ACK on the return path (Alg. 1), so entries appear
  /// last-request-hop first; int_reversed marks that ordering.
  bool int_reversed = false;
  bool ecn_ce = false;  // ECN congestion-experienced mark (DCQCN)
  std::uint32_t size_bytes = 0;  // wire size; grows when INT is inserted
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t sport = 0;  // ECMP five-tuple ports
  std::uint16_t dport = 0;

  /// Switch-local metadata: the port this packet entered the current switch
  /// on. For an ACK this equals the request path's output port at that
  /// switch (Observation 3), which is what Alg. 1 indexes All_INT_Table by.
  std::uint16_t ingress_port = 0;

  /// Fig. 7 pathID: XOR of the (12-bit) ids of every switch this packet
  /// crossed, maintained by the data plane for data packets and ACKs alike.
  std::uint16_t path_id = 0;

  bool last_of_flow = false;

  /// FNCC: number of concurrent inbound flows N, written by the receiver
  /// into every ACK (16-bit field in Fig. 7).
  std::uint16_t concurrent_flows = 0;

  /// ACK only: the request path's pathID as observed by the receiver on
  /// the data packets. A sender running FNCC compares this against the
  /// ACK's own accumulated path_id — a mismatch means routing is not
  /// symmetric and the return-path INT does not describe the request path
  /// (Observation 2's precondition is violated).
  std::uint16_t req_path_id = 0;

  std::uint32_t payload_bytes = 0;  // data only

  // Data: first byte offset of the segment. ACK: cumulative bytes received.
  std::uint64_t seq = 0;

  Time t_sent = 0;  // sender timestamp of the data packet, echoed in ACKs

  /// RoCC: minimum fair rate stamped by congested switches on the return
  /// path; <= 0 means "no feedback".
  double rocc_rate_gbps = 0.0;

  [[nodiscard]] bool IsControl() const {
    return type == PacketType::kPfcPause || type == PacketType::kPfcResume;
  }
};

/// One packet: data, ACK, CNP or PFC frame. The INT stack is a block of
/// kMaxIntHops entries taken from the owning pool on the first push and
/// returned to it when the packet is released, so only packets that carry
/// INT pay for it (DCQCN never does; FNCC stamps only ACKs). Packets are
/// not copyable: CopyFrom copies the header plus the live entries, never
/// the block pointer.
struct Packet : PacketHeader {
  Packet() = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  /// The INT stack, in stamping order.
  [[nodiscard]] std::span<const IntEntry> int_stack() const {
    return {int_block_, int_hops};
  }
  [[nodiscard]] bool int_full() const { return int_hops == kMaxIntHops; }

  /// Appends one hop's telemetry. The packet must belong to a pool (the
  /// block's source) and the stack must not be full.
  void PushInt(const IntEntry& entry) {
    assert(!int_full() && "INT stack overflow");
    if (int_block_ == nullptr) AttachIntBlock();
    int_block_[int_hops++] = entry;
  }

  /// Replaces the INT stack with `entries`, copying only those entries.
  void AssignInt(std::span<const IntEntry> entries);

  /// Copies `hdr` and its `hdr.int_hops` INT entries (read from
  /// `entries`) into this packet, keeping this packet's pool and INT block
  /// and unlinking it from any FIFO.
  void CopyFrom(const PacketHeader& hdr, const IntEntry* entries);

  /// Restores every field to its default — the cheap reset the PacketPool
  /// hot path relies on. The INT block must already be back in the pool.
  void Reset() {
    assert(int_block_ == nullptr);
    static_cast<PacketHeader&>(*this) = PacketHeader{};
  }

 private:
  friend class PacketPool;
  void AttachIntBlock();  // takes a block from `pool`

  IntEntry* int_block_ = nullptr;  // kMaxIntHops entries, owned by `pool`
};

// Packets are the largest live population of a run (a k=8 fat-tree DCQCN
// point holds ~560k at its peak), so the per-packet size is peak memory.
static_assert(sizeof(Packet) <= 128, "Packet must stay compact");

/// Deleter for pooled packets: hands the packet back to the free list of
/// the pool it records (`p->pool`) instead of freeing it.
struct PacketReclaimer {
  void operator()(Packet* p) const noexcept;
};

/// Owning handle to a packet, issued by PacketPool::Acquire. RAII:
/// destroying the handle returns the packet to its pool for reuse. The pool
/// must outlive every handle it issued (see PacketPool's class comment for
/// the ownership contract).
using PacketPtr = std::unique_ptr<Packet, PacketReclaimer>;
static_assert(sizeof(PacketPtr) == sizeof(Packet*));

/// Flattens a PacketPtr to a raw pointer (for intrusive FIFOs and typed
/// events); WrapRawPacket rebuilds the handle.
inline Packet* ReleaseToRaw(PacketPtr p) { return p.release(); }

/// Rebuilds the owning handle a ReleaseToRaw call flattened.
inline PacketPtr WrapRawPacket(Packet* raw) { return PacketPtr(raw); }

}  // namespace fncc
