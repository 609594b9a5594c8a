// TcpSender: the data-producing endpoint of a simulated TCP connection.
//
// Owns reliability: sequencing, the retransmission timer (RFC 6298 with
// exponential backoff), fast retransmit on three duplicate ACKs, and NewReno
// partial-ACK retransmission during recovery (RFC 6582). Congestion control
// is delegated to a pluggable CongestionControl (Reno / DCTCP / CUBIC).
//
// The application interface is a byte budget: add_app_data() extends the
// stream, and the sender transmits MSS-sized segments whenever the window
// allows. This models the paper's workloads, where each burst hands every
// flow an equal number of bytes on a persistent connection.
#ifndef INCAST_TCP_TCP_SENDER_H_
#define INCAST_TCP_TCP_SENDER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "net/host.h"
#include "obs/flow_trace.h"
#include "tcp/tcp_config.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::tcp {

class TcpSender final : public net::PacketHandler {
 public:
  struct Stats {
    std::int64_t data_packets_sent{0};
    std::int64_t data_bytes_sent{0};
    std::int64_t retransmitted_packets{0};
    std::int64_t retransmitted_bytes{0};
    std::int64_t fast_retransmits{0};  // recovery episodes entered
    std::int64_t timeouts{0};          // RTO firings
    std::int64_t acks_received{0};
    std::int64_t ece_acks_received{0};
    std::int64_t sack_blocks_processed{0};
    std::int64_t limited_transmits{0};  // segments released by RFC 3042
    std::int64_t tlp_probes{0};         // tail loss probes sent
    std::int64_t nacks_received{0};     // trim NACKs from the receiver
    std::int64_t nack_retransmits{0};   // segments resent on a NACK
  };

  TcpSender(sim::Simulator& sim, net::Host& local, net::NodeId remote, net::FlowId flow,
            const TcpConfig& config);
  ~TcpSender() override;

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  // Extends the application stream by `bytes` and transmits what the
  // window allows.
  void add_app_data(std::int64_t bytes);

  // ACKs for this flow arrive here.
  void handle_packet(const net::Packet& p) override;

  // --- Observability -------------------------------------------------------

  [[nodiscard]] std::int64_t snd_una() const noexcept { return snd_una_; }
  [[nodiscard]] std::int64_t snd_nxt() const noexcept { return snd_nxt_; }
  // Highest byte ever transmitted. May exceed snd_nxt after an RTO's
  // go-back-N until retransmission catches back up.
  [[nodiscard]] std::int64_t max_sent() const noexcept { return max_sent_; }
  [[nodiscard]] std::int64_t app_limit() const noexcept { return app_limit_; }
  [[nodiscard]] std::int64_t in_flight_bytes() const noexcept { return snd_nxt_ - snd_una_; }
  // Bytes the SACK scoreboard knows arrived (between snd_una and snd_nxt).
  [[nodiscard]] std::int64_t sacked_bytes() const noexcept { return sacked_bytes_; }
  // RFC 6675 "pipe": outstanding bytes not known to have left the network.
  [[nodiscard]] std::int64_t pipe_bytes() const noexcept {
    return in_flight_bytes() - sacked_bytes_;
  }
  [[nodiscard]] bool all_acked() const noexcept { return snd_una_ >= app_limit_; }
  [[nodiscard]] bool in_recovery() const noexcept { return in_recovery_; }

  // cwnd after applying the optional guardrail cap.
  [[nodiscard]] std::int64_t effective_cwnd() const noexcept;

  [[nodiscard]] CongestionControl& congestion_control() noexcept { return *cc_; }
  [[nodiscard]] const CongestionControl& congestion_control() const noexcept { return *cc_; }
  [[nodiscard]] const RttEstimator& rtt_estimator() const noexcept { return rtt_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TcpConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::FlowId flow() const noexcept { return flow_; }

  // Fires whenever snd_una reaches app_limit (i.e. the current burst's data
  // is fully delivered and acknowledged).
  void set_on_all_acked(std::function<void()> cb) { on_all_acked_ = std::move(cb); }

  // Fires on every ACK that advances snd_una, with the new snd_una. Used by
  // workloads that track progress through overlapping bursts.
  void set_on_ack_advance(std::function<void(std::int64_t)> cb) {
    on_ack_advance_ = std::move(cb);
  }

 private:
  void on_nack(const net::Packet& p);
  void on_new_ack(std::int64_t ack, bool ece, const net::IntStack* int_stack);
  void on_duplicate_ack(bool ece, const net::IntStack* int_stack);
  void update_scoreboard(const net::TcpHeader& tcp);
  void drop_scoreboard_below(std::int64_t seq);
  // Next unsacked, not-yet-retransmitted segment below the recovery point;
  // returns {seq, len}, len == 0 when no hole remains.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> next_hole() const;
  void retransmit_holes();
  void try_send();
  // Sub-MSS sending: one packet every (mss / cwnd) RTTs, driven by a
  // pacing timer. This is how Swift-style CCAs operate below one packet
  // per RTT (paper Section 5.2).
  void paced_send(std::int64_t cwnd);
  void on_pace();
  void send_segment(std::int64_t seq, std::int64_t len);
  void retransmit_head();
  void enter_recovery();
  void on_rto();
  void arm_rto();
  void rearm_rto();
  void arm_tlp();
  void on_pto();
  // Emits a cwnd counter trace event when the value changed since the last
  // emission; no-op without an observed hub.
  void maybe_emit_cwnd();
  void close_recovery_span();
  // Flow-lifecycle tracing (obs/flow_trace.h): closes the open wait
  // interval / records why the sender is waiting again. Callers guard on
  // ft_ != nullptr; both run at the current sim time, which keeps the
  // interval partition gap-free.
  void ft_unblock(obs::FlowTracer::UnblockCause cause);
  void ft_block();
  [[nodiscard]] sim::Time current_rto() const noexcept;
  [[nodiscard]] AckEvent make_ack_event(std::int64_t newly_acked, bool ece) const noexcept;

  sim::Simulator& sim_;
  net::Host& local_;
  net::NodeId remote_;
  net::FlowId flow_;
  TcpConfig config_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;

  // Stream state (64-bit byte offsets).
  std::int64_t snd_una_{0};   // oldest unacknowledged byte
  std::int64_t snd_nxt_{0};   // next byte to transmit
  std::int64_t max_sent_{0};  // highest byte ever transmitted (retx detection)
  std::int64_t app_limit_{0}; // bytes the application has supplied

  // Loss recovery.
  int dup_acks_{0};
  bool in_recovery_{false};
  std::int64_t recover_seq_{0};  // NewReno recovery point

  // SACK scoreboard: disjoint sacked ranges [start, end) above snd_una.
  std::map<std::int64_t, std::int64_t> sacked_;
  std::int64_t sacked_bytes_{0};
  // Highest byte retransmitted in the current recovery episode (hole
  // cursor); reset on entry.
  std::int64_t recovery_retx_cursor_{0};

  // RTO machinery.
  sim::Timer rto_timer_{sim_, this, sim::Timer::method<&TcpSender::on_rto>,
                        sim::EventCategory::kTcp};
  int rto_backoff_{0};

  // Pacing state (only engaged when cwnd < 1 MSS).
  sim::Time pace_next_{sim::Time::zero()};
  sim::Timer pace_timer_{sim_, this, sim::Timer::method<&TcpSender::on_pace>,
                         sim::EventCategory::kTcp};

  // Tail-loss-probe state: one probe per quiet episode.
  sim::Timer tlp_timer_{sim_, this, sim::Timer::method<&TcpSender::on_pto>,
                        sim::EventCategory::kTcp};
  bool tlp_probe_outstanding_{false};

  // RTT sampling (Karn's rule: one sample at a time, never from a
  // retransmitted segment).
  std::int64_t sample_end_seq_{-1};
  sim::Time sample_sent_at_{};

  sim::Time last_activity_{};

  std::function<void()> on_all_acked_;
  std::function<void(std::int64_t)> on_ack_advance_;
  Stats stats_;

  // Observability (cached from sim.hub() at construction; nullptr on the
  // default unobserved path). The registered metric prefix is remembered so
  // the destructor can unregister the sources that capture `this`.
  obs::Hub* hub_{nullptr};
  std::uint32_t trace_tid_{0};
  std::string cwnd_counter_name_;
  std::string metric_prefix_;
  std::int64_t last_cwnd_emitted_{-1};
  bool recovery_span_open_{false};
  // Non-null only when a FlowTracer is attached AND this flow is sampled
  // (decided once at construction) — the unobserved path pays one branch.
  obs::FlowTracer* ft_{nullptr};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_TCP_SENDER_H_
