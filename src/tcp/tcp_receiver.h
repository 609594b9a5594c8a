// TcpReceiver: the data-consuming endpoint of a simulated TCP connection.
//
// Performs in-order reassembly (cumulative ACKs plus duplicate ACKs on
// gaps), and generates the ECN-Echo feedback DCTCP depends on. With delayed
// ACKs disabled (the paper's configuration) every data segment is ACKed
// immediately with ECE mirroring that segment's CE mark; with delayed ACKs
// enabled the receiver runs the RFC 8257 §3.2 CE state machine, cutting the
// delay short whenever the CE state changes so the sender's marked-byte
// accounting stays exact.
#ifndef INCAST_TCP_TCP_RECEIVER_H_
#define INCAST_TCP_TCP_RECEIVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "net/host.h"
#include "tcp/tcp_config.h"

namespace incast::tcp {

class TcpReceiver final : public net::PacketHandler {
 public:
  struct Stats {
    std::int64_t data_packets_received{0};
    std::int64_t data_bytes_received{0};
    std::int64_t ce_packets_received{0};
    std::int64_t acks_sent{0};
    std::int64_t dup_acks_sent{0};
    std::int64_t out_of_order_packets{0};
    // Trimmed headers received (a trimming queue cut the payload in the
    // fabric); each one elicits an immediate NACK naming the lost segment.
    std::int64_t trimmed_headers_received{0};
    std::int64_t nacks_sent{0};
  };

  // Registers for `flow` on `local`; ACKs are addressed to `remote`.
  TcpReceiver(sim::Simulator& sim, net::Host& local, net::NodeId remote, net::FlowId flow,
              const TcpConfig& config);
  ~TcpReceiver() override;

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  void handle_packet(const net::Packet& p) override;

  // Next expected in-order byte (== total in-order bytes delivered).
  [[nodiscard]] std::int64_t rcv_nxt() const noexcept { return rcv_nxt_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Invoked with the number of newly in-order bytes after each advance.
  void set_on_data(std::function<void(std::int64_t)> cb) { on_data_ = std::move(cb); }

 private:
  void accept_in_order(const net::Packet& p);
  void store_out_of_order(const net::Packet& p);
  void merge_contiguous();
  void note_recent_ooo(std::int64_t start);
  void attach_sack_blocks(net::Packet& ack) const;
  void on_segment_acceptable(bool ce);
  [[nodiscard]] bool delayed_ack_ece(bool segment_ce) const noexcept;
  void send_ack(bool ece, bool duplicate);
  void schedule_delayed_ack();
  void on_delayed_ack();
  void flush_delayed_ack();

  sim::Simulator& sim_;
  net::Host& local_;
  net::NodeId remote_;
  net::FlowId flow_;
  TcpConfig config_;

  std::int64_t rcv_nxt_{0};
  // Out-of-order byte ranges [start, end), disjoint and non-adjacent.
  std::map<std::int64_t, std::int64_t> ooo_;
  // Starts of recently updated out-of-order ranges, most recent first —
  // RFC 2018's rule for ordering SACK blocks.
  std::deque<std::int64_t> recent_ooo_;

  // Delayed-ACK state.
  int pending_segments_{0};
  sim::Timer ack_timer_{sim_, this, sim::Timer::method<&TcpReceiver::on_delayed_ack>,
                        sim::EventCategory::kTcp};
  // DCTCP.CE: the CE state machine's current belief (RFC 8257 §3.2).
  bool ce_state_{false};

  // Slot in the packet pool's INT side table holding the latest INT stack
  // seen on a data packet (kNoIntSlot until one arrives); echoed on
  // outgoing ACKs so the sender's INT-based CCA observes the path state
  // (HPCC-style). Only INT-carrying flows pay the 200 bytes.
  std::uint32_t last_int_slot_{net::kNoIntSlot};

  std::function<void(std::int64_t)> on_data_;
  Stats stats_;
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_TCP_RECEIVER_H_
