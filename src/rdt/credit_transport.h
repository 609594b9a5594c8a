// Receiver-driven credit transport ("rdt") — the transport-replacement
// class of incast solutions the paper's Section 5 surveys (ExpressPass,
// pHost, NDP, Homa), distilled to its load-bearing idea:
//
//   the RECEIVER allocates its own downlink. Senders announce demand with
//   a tiny RTS; the receiver issues one credit (grant) per segment, paced
//   at exactly the downlink line rate and round-robin across flows; a
//   sender transmits a segment only when credited.
//
// Because credited data arrives at most at line rate, the ToR downlink
// queue stays at O(1) packets regardless of incast degree — 10,000 flows
// are no harder than 10. The costs are the ones the paper names: this is
// not TCP (deployment), it spends an RTT on RTS/grant signaling, and the
// grant stream consumes reverse-path bandwidth.
//
// Reliability is receiver-driven too: grants carry a deadline, and a grant
// whose data never arrives is simply re-issued. Senders are stateless
// beyond their demand counter — there is no retransmission machinery, no
// RTO, no congestion window.
#ifndef INCAST_RDT_CREDIT_TRANSPORT_H_
#define INCAST_RDT_CREDIT_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/host.h"
#include "sim/random.h"
#include "sim/units.h"

namespace incast::rdt {

// --- Sender ------------------------------------------------------------------

class CreditSender final : public net::PacketHandler {
 public:
  struct Config {
    std::int64_t mss_bytes{1460};
    // Re-announce demand when no grant has arrived for this long. At high
    // incast degree the round-robin inter-grant gap is legitimately long,
    // so retries back off exponentially (with jitter, to avoid the whole
    // incast re-RTSing in lockstep) and reset on any grant.
    sim::Time rts_retry_base{sim::Time::milliseconds(2)};
    sim::Time rts_retry_max{sim::Time::milliseconds(100)};
  };

  CreditSender(sim::Simulator& sim, net::Host& local, net::NodeId receiver,
               net::FlowId flow, const Config& config);
  ~CreditSender() override;

  CreditSender(const CreditSender&) = delete;
  CreditSender& operator=(const CreditSender&) = delete;

  // Extends the flow's demand and announces it to the receiver.
  void add_app_data(std::int64_t bytes);

  // Grants arrive here; each one releases exactly one data segment.
  void handle_packet(const net::Packet& p) override;

  [[nodiscard]] std::int64_t demand_bytes() const noexcept { return demand_; }
  [[nodiscard]] std::int64_t granted_bytes() const noexcept { return granted_; }
  [[nodiscard]] std::int64_t data_packets_sent() const noexcept { return data_sent_; }
  [[nodiscard]] std::int64_t rts_sent() const noexcept { return rts_sent_; }

 private:
  void send_rts();
  void arm_rts_retry();
  void on_rts_timeout();

  sim::Simulator& sim_;
  net::Host& local_;
  net::NodeId receiver_;
  net::FlowId flow_;
  Config config_;

  std::int64_t demand_{0};
  std::int64_t granted_{0};
  std::int64_t data_sent_{0};
  std::int64_t rts_sent_{0};
  int rts_backoff_{0};
  sim::Rng rng_;
  sim::Timer rts_timer_{sim_, this, sim::Timer::method<&CreditSender::on_rts_timeout>,
                        sim::EventCategory::kTcp};
};

// --- Receiver ----------------------------------------------------------------

// One CreditReceiver serves an entire host: it owns the downlink's credit
// budget and schedules all incast flows against it.
class CreditReceiver {
 public:
  struct Config {
    std::int64_t mss_bytes{1460};
    // Downlink rate the grant stream is paced to.
    sim::Bandwidth line_rate{sim::Bandwidth::gigabits_per_second(10)};
    // Pace grants at line_rate * overcommit (1.0 = exactly line rate;
    // slightly above hides grant/data jitter at the cost of tiny queues).
    double overcommit{1.0};
    // A grant unanswered for this long is considered lost and re-issued.
    sim::Time regrant_timeout{sim::Time::milliseconds(1)};
  };

  CreditReceiver(sim::Simulator& sim, net::Host& local, const Config& config);

  CreditReceiver(const CreditReceiver&) = delete;
  CreditReceiver& operator=(const CreditReceiver&) = delete;

  // Wires a flow terminating at this receiver: RTS/data for `flow` arrive
  // here; grants are addressed to `sender`.
  void accept_flow(net::FlowId flow, net::NodeId sender);

  // Invoked whenever a flow's received bytes reach its announced demand.
  void set_on_flow_complete(std::function<void(net::FlowId)> cb) {
    on_flow_complete_ = std::move(cb);
  }

  [[nodiscard]] std::int64_t received_bytes(net::FlowId flow) const;
  [[nodiscard]] std::int64_t total_received_bytes() const noexcept { return total_received_; }
  [[nodiscard]] std::int64_t grants_sent() const noexcept { return grants_sent_; }
  [[nodiscard]] std::int64_t regrants_sent() const noexcept { return regrants_sent_; }

 private:
  struct Range {
    std::int64_t start{0};
    std::int64_t end{0};
  };

  struct FlowState {
    net::NodeId sender{net::kInvalidNodeId};
    std::int64_t demand{0};           // announced total
    std::int64_t next_new_offset{0};  // first never-granted byte
    std::deque<Range> regrant;        // expired grants to re-issue
    std::map<std::int64_t, std::int64_t> received;  // merged [start,end)
    std::int64_t received_bytes{0};
    std::int64_t completed_through{0};  // demand level already reported
  };

  struct OutstandingGrant {
    net::FlowId flow{0};
    Range range{};
    sim::Time deadline{};
  };

  // The per-flow packet handler shim (Host demuxes per flow id).
  class FlowPort final : public net::PacketHandler {
   public:
    FlowPort(CreditReceiver& owner, net::FlowId flow) : owner_{owner}, flow_{flow} {}
    void handle_packet(const net::Packet& p) override { owner_.on_packet(flow_, p); }

   private:
    CreditReceiver& owner_;
    net::FlowId flow_;
  };

  void on_packet(net::FlowId flow, const net::Packet& p);
  void on_rts(FlowState& state, const net::Packet& p);
  void on_data(net::FlowId flow, FlowState& state, const net::Packet& p);
  [[nodiscard]] bool flow_needs_grant(const FlowState& state) const noexcept;
  void ensure_grant_timer();
  void grant_tick();
  void issue_grant(net::FlowId flow, FlowState& state);
  void expire_outstanding();
  [[nodiscard]] bool range_received(const FlowState& state, const Range& r) const;
  void merge_received(FlowState& state, std::int64_t start, std::int64_t end);

  sim::Simulator& sim_;
  net::Host& local_;
  Config config_;
  sim::Time grant_interval_{};

  std::unordered_map<net::FlowId, FlowState> flows_;
  std::vector<std::unique_ptr<FlowPort>> ports_;
  // Round-robin order over flow ids (stable across runs).
  std::vector<net::FlowId> rr_order_;
  std::size_t rr_cursor_{0};
  std::deque<OutstandingGrant> outstanding_;

  bool timer_armed_{false};
  sim::Time next_grant_at_{sim::Time::zero()};
  std::int64_t grants_sent_{0};
  std::int64_t regrants_sent_{0};
  std::int64_t total_received_{0};
  std::function<void(net::FlowId)> on_flow_complete_;
};

}  // namespace incast::rdt

#endif  // INCAST_RDT_CREDIT_TRANSPORT_H_
