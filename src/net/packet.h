// Packet: the unit of data moved by the network simulator.
//
// One struct models the IP fields we need (ECN codepoint) plus a simplified
// TCP header (sequence/ack numbers, flags, ECE/CWR echo bits). A packet in
// the network lives in its event loop's net::PacketPool from the sending
// host's NIC to the receiving host's handler: ports, queues and switches
// pass the pooled handle (Packet*), and exactly one of them owns it at a
// time, so there is still no aliasing to reason about. The HPCC-only INT
// stack lives in the same pool's side table, named by int_slot, which keeps
// the packet itself within 192 bytes.
#ifndef INCAST_NET_PACKET_H_
#define INCAST_NET_PACKET_H_

#include <array>
#include <cstdint>
#include <string>

#include "sim/time.h"

namespace incast::net {

// Identifies a node (host or switch) in the simulated network.
using NodeId = std::uint32_t;

// Identifies one TCP connection, globally unique across the simulation.
using FlowId = std::uint64_t;

inline constexpr NodeId kInvalidNodeId = static_cast<NodeId>(-1);

// IP ECN field (RFC 3168). Senders mark data packets ECT(0); switches
// escalate ECT packets to CE when congested; non-ECT packets are dropped
// instead of marked.
enum class Ecn : std::uint8_t {
  kNotEct = 0,
  kEct0 = 1,
  kEct1 = 2,
  kCe = 3,
};

[[nodiscard]] constexpr bool is_ect(Ecn e) noexcept { return e != Ecn::kNotEct; }

// A SACK block: one contiguous range of out-of-order bytes the receiver
// holds (RFC 2018). Real TCP fits at most 3-4 blocks in the option space;
// we model the same limit.
struct SackBlock {
  std::int64_t start{0};  // first byte of the range
  std::int64_t end{0};    // one past the last byte

  friend constexpr bool operator==(const SackBlock&, const SackBlock&) = default;
};

inline constexpr int kMaxSackBlocks = 3;

// One hop's in-band network telemetry record (INT), in the style HPCC
// [Li et al., SIGCOMM 2019] and successors rely on. Switch egress ports
// stamp these onto INT-enabled data packets at dequeue; the receiver
// echoes the stack back to the sender on ACKs.
struct IntHopRecord {
  std::int64_t qlen_bytes{0};     // egress queue depth when the packet left
  std::int64_t tx_bytes{0};       // cumulative bytes transmitted by the port
  std::int64_t link_bps{0};       // port line rate
  std::int64_t timestamp_ns{0};   // stamping time

  friend constexpr bool operator==(const IntHopRecord&, const IntHopRecord&) = default;
};

// Sized for the deepest supported path: a 3-tier fat-tree crosses five
// switch egress ports (leaf, agg, spine, agg, leaf) plus margin.
inline constexpr int kMaxIntHops = 6;

// Simplified TCP header. Sequence numbers are 64-bit byte offsets — the
// simulator never transfers enough to wrap 64 bits, which removes wraparound
// from the protocol core.
struct TcpHeader {
  FlowId flow_id{0};
  std::int64_t seq{0};  // first payload byte carried by this segment
  std::int64_t ack{0};  // next byte expected by the receiver
  bool syn{false};
  bool fin{false};
  bool has_ack{false};  // ACK flag
  bool ece{false};      // ECN-Echo: receiver -> sender congestion signal
  bool cwr{false};      // Congestion Window Reduced: sender -> receiver
  // NDP-style negative acknowledgment: the receiver saw a trimmed header
  // for the segment starting at `seq` and asks for an immediate
  // retransmission (no RTO involved).
  bool nack{false};
  // SACK option: up to kMaxSackBlocks ranges, most recently changed first.
  std::uint8_t num_sack{0};
  std::array<SackBlock, kMaxSackBlocks> sack{};
};

// MAC-layer control frames (IEEE 802.1Qbb priority flow control). A pause
// frame asks the immediate upstream neighbor to stop transmitting data on
// the reverse direction of the link it arrived on; a resume frame (pause
// with zero quanta, in real PFC) lifts the pause early. Control frames are
// consumed by the neighbor, never forwarded, and bypass egress queues on a
// strict-priority control path — a paused port still emits them.
enum class CtrlType : std::uint8_t { kNone = 0, kPfcPause, kPfcResume };

struct CtrlHeader {
  CtrlType type{CtrlType::kNone};
  // Pause duration (the PFC quanta field, converted to time). The paused
  // port auto-resumes when it expires, so a lost resume frame degrades
  // into a shorter pause instead of a deadlock.
  std::int64_t pause_ns{0};
};

// Wire size charged to a PFC pause/resume frame (minimum Ethernet frame).
inline constexpr std::int64_t kPfcFrameBytes = 64;

// Receiver-driven credit transport messages (Homa/pHost/ExpressPass-style;
// the "receiver-based" class the paper's Section 5 discusses). kRts
// announces demand, kGrant is a credit for one segment, kData carries
// granted bytes.
enum class RdtType : std::uint8_t { kNone = 0, kRts, kGrant, kData };

struct RdtHeader {
  RdtType type{RdtType::kNone};
  std::int64_t offset{0};  // grant/data: first byte; rts: total demand
  std::int64_t length{0};  // grant/data: byte count
};

// INT stack carried by a packet (on data: stamped by switches; on ACKs:
// echoed by the receiver). Lives in the PacketPool's side table; a packet
// names its stack by Packet::int_slot.
struct IntStack {
  std::uint8_t num_hops{0};
  std::array<IntHopRecord, kMaxIntHops> hops{};

  // Appends one hop record. Returns false when the stack is already full —
  // the record is NOT recorded and the caller must count the overflow
  // (surfaced as the net.int.hop_overflow metric) instead of losing the
  // deepest hops silently.
  [[nodiscard]] bool push(const IntHopRecord& rec) noexcept {
    if (num_hops >= kMaxIntHops) return false;
    hops[num_hops++] = rec;
    return true;
  }
};

// Packet::int_slot of a packet that carries no INT stack.
inline constexpr std::uint32_t kNoIntSlot = 0;

struct Packet {
  NodeId src{kInvalidNodeId};
  NodeId dst{kInvalidNodeId};
  std::int64_t size_bytes{0};     // on-the-wire size, headers included
  std::int64_t payload_bytes{0};  // TCP payload carried
  TcpHeader tcp{};
  RdtHeader rdt{};
  CtrlHeader ctrl{};
  // Ingress virtual input queue this packet is charged to at the current
  // PFC-enabled switch (-1 = unaccounted). Re-tagged at every lossless hop;
  // meaningless elsewhere.
  std::int16_t viq{-1};
  Ecn ecn{Ecn::kNotEct};
  // Payload removed by a trimming queue (net::QueueDiscipline::kTrimming):
  // only the header survived and the receiver should NACK for the missing
  // bytes.
  bool trimmed{false};
  bool is_retransmit{false};  // set by the sender on retransmitted data
  // Payload mangled in flight (fault injection): the frame arrives but its
  // checksum fails, so the receiving NIC discards it without any protocol
  // reaction — the sender learns about it only through SACK holes or RTO.
  bool corrupted{false};
  // Flow-trace sampling (obs/flow_trace.h): set by the sender on data
  // packets of sampled flows. Ports stamp enqueue time and the pause ledger
  // at admission and read them back at dequeue to attribute per-hop
  // residency. Inert when no FlowTracer is attached — pure data, never
  // consulted by forwarding or protocol logic.
  bool flow_traced{false};
  // This packet's INT stack in its PacketPool's side table (kNoIntSlot =
  // none). Set only on data of senders whose CCA requests INT
  // (tcp::requests_int) and on the ACKs that echo it.
  std::uint32_t int_slot{kNoIntSlot};
  std::int64_t trace_enqueue_ns{-1};  // -1 = not stamped at this hop
  std::int64_t trace_paused_ns{0};    // port's paused_ns() at enqueue
  sim::Time sent_at{};        // when the sender emitted it (diagnostics)
  std::uint64_t uid{0};       // unique per packet (diagnostics)

  [[nodiscard]] bool is_data() const noexcept { return payload_bytes > 0; }
  [[nodiscard]] bool is_ctrl() const noexcept { return ctrl.type != CtrlType::kNone; }

  [[nodiscard]] std::string to_string() const;
};

// Every hop moves a handle, but the pool, the cross-domain mailbox and the
// packet builders still copy whole packets; keep them within three cache
// lines.
static_assert(sizeof(Packet) <= 192, "net::Packet outgrew its 192-byte budget");

// Size of the combined TCP/IP header we charge each packet.
inline constexpr std::int64_t kHeaderBytes = 40;

// Builds a data segment. Wire size = payload + headers.
[[nodiscard]] Packet make_data_packet(NodeId src, NodeId dst, FlowId flow, std::int64_t seq,
                                      std::int64_t payload_bytes);

// Builds a pure ACK (no payload).
[[nodiscard]] Packet make_ack_packet(NodeId src, NodeId dst, FlowId flow, std::int64_t ack,
                                     bool ece);

// Builds an NDP-style NACK asking for the segment at `seq` again. `ece`
// echoes a CE mark observed on the trimmed header.
[[nodiscard]] Packet make_nack_packet(NodeId src, NodeId dst, FlowId flow, std::int64_t seq,
                                      bool ece);

// Builds a PFC pause (pause_ns > 0) or resume (kPfcResume) control frame
// for the hop src -> dst.
[[nodiscard]] Packet make_pause_frame(NodeId src, NodeId dst, std::int64_t pause_ns);
[[nodiscard]] Packet make_resume_frame(NodeId src, NodeId dst);

}  // namespace incast::net

#endif  // INCAST_NET_PACKET_H_
