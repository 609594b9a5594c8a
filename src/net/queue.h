// DropTailQueue: a FIFO egress queue with threshold ECN marking.
//
// This is the queue the paper studies: a ToR egress FIFO with capacity 1333
// packets (2 MB) and an ECN marking threshold K. An arriving ECT packet is
// marked CE when the instantaneous occupancy is at or above K — the DCTCP
// marking rule. Arrivals beyond capacity (or beyond the shared-buffer
// dynamic threshold, when a pool is attached) are dropped at the tail.
//
// Two extensions cover the modern-fabric queue disciplines:
//
//   * a DCQCN-style probabilistic marking band (ecn_kmin/kmax): arriving
//     ECT packets are marked with probability ramping 0 -> 1 across
//     [kmin, kmax) occupancy, always at/above kmax. The coin is a hash of
//     the packet uid, so marking stays bit-deterministic with no RNG state;
//   * CompositeQueue (NDP-style packet trimming): when the data queue is
//     full, an arriving data packet is trimmed to its header and queued on
//     a strict-priority header queue instead of being dropped — the
//     receiver learns what was lost and NACKs for an immediate retransmit.
//
// make_queue() builds the discipline a Config names, so every Port in every
// topology can swap disciplines through configuration alone.
//
// Queues hold pooled handles (net/packet_pool.h), never packet values: a
// queue owns each packet it admitted until dequeue() hands it back, and
// never owns one it refused.
#ifndef INCAST_NET_QUEUE_H_
#define INCAST_NET_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/shared_buffer.h"

namespace incast::net {

// Which queue implementation a Config builds (see make_queue).
enum class QueueDiscipline : std::uint8_t {
  kDropTail = 0,  // classic tail-drop FIFO (the paper's queue)
  kTrimming,      // NDP-style CompositeQueue: trim payload, keep the header
};

[[nodiscard]] const char* to_string(QueueDiscipline d) noexcept;

class DropTailQueue {
 public:
  struct Config {
    // Per-queue capacity limit, in packets. The paper's simulations use
    // 1333 packets (2 MB of MTU-sized frames).
    std::int64_t capacity_packets{1333};
    // Optional additional byte-based cap (how real switches account their
    // buffers; matters when small control packets share the queue with
    // MTU frames). <= 0 disables the byte check.
    std::int64_t capacity_bytes{0};
    // ECN marking threshold K, in packets; <= 0 disables marking.
    std::int64_t ecn_threshold_packets{65};
    // DCQCN-style probabilistic marking band. When ecn_kmax_packets > 0 it
    // replaces the step rule: no marks below kmin, certain marks at/above
    // kmax, and a linear ramp in between, decided by a per-packet hash
    // (deterministic, no RNG state).
    std::int64_t ecn_kmin_packets{0};
    std::int64_t ecn_kmax_packets{0};
    // Discipline this config builds (make_queue): tail-drop or trimming.
    QueueDiscipline discipline{QueueDiscipline::kDropTail};
    // Trimming only: wire size a trimmed header keeps, and the header
    // queue's own capacity — overflow there is a real drop.
    std::int64_t trim_header_bytes{64};
    std::int64_t header_capacity_packets{1000};
  };

  struct Stats {
    std::int64_t enqueued_packets{0};
    std::int64_t dropped_packets{0};
    std::int64_t dropped_bytes{0};
    std::int64_t ecn_marked_packets{0};
    std::int64_t dequeued_packets{0};
    std::int64_t dequeued_bytes{0};
    // Trimming only: packets whose payload was cut, and the wire bytes
    // removed by the cut (original size minus surviving header).
    std::int64_t trimmed_packets{0};
    std::int64_t trimmed_bytes{0};
  };

  explicit DropTailQueue(const Config& config) noexcept : config_{config} {}
  virtual ~DropTailQueue() = default;

  DropTailQueue(const DropTailQueue&) = delete;
  DropTailQueue& operator=(const DropTailQueue&) = delete;

  // Attaches a shared buffer pool; admission then also requires pool memory.
  void attach_pool(SharedBufferPool* pool) noexcept { pool_ = pool; }

  // Admits `p` (marking it CE if the queue is past the ECN threshold) or
  // drops it. Returns true if the packet was enqueued — for a trimming
  // queue that includes the trimmed-to-header case (the stats tell the
  // difference). A refused packet stays the caller's to release.
  virtual bool enqueue(Packet* p);

  // Removes the head-of-line packet and hands it to the caller; nullptr if
  // empty.
  virtual Packet* dequeue();

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::int64_t packets() const noexcept { return count_; }
  [[nodiscard]] std::int64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  // High watermark (packets) since the last take_watermark() call. This is
  // how production ToRs report queue depth: a per-interval peak, not a time
  // series (Section 3.4).
  [[nodiscard]] std::int64_t peak_packets() const noexcept { return peak_packets_; }
  std::int64_t take_watermark() noexcept {
    const std::int64_t peak = peak_packets_;
    peak_packets_ = packets();
    return peak;
  }

 protected:
  // FIFO of handles as a power-of-two-free circular buffer over a plain
  // vector: a deque's block churn costs an allocation per enqueue, which
  // the allocation-free kernel cannot afford.
  struct Ring {
    std::vector<Packet*> slots;
    std::size_t head{0};
    std::size_t count{0};

    [[nodiscard]] bool empty() const noexcept { return count == 0; }
    // Appends, growing (rare; amortized away once the queue has seen its
    // peak depth) when full.
    void push(Packet* p);
    // Removes and returns the head. Precondition: !empty().
    [[nodiscard]] Packet* pop();
  };

  // The configured marking rule's verdict for an ECT packet arriving at
  // `occupancy_packets`: the kmin/kmax ramp when configured, the DCTCP
  // step rule otherwise. Non-ECT packets are never marked.
  [[nodiscard]] bool should_mark(const Packet& p, std::int64_t occupancy_packets) const noexcept;

  void note_peak() noexcept {
    if (count_ > peak_packets_) peak_packets_ = count_;
  }

  Config config_;
  SharedBufferPool* pool_{nullptr};
  Ring ring_;
  // Totals across every internal ring (CompositeQueue adds a header ring),
  // so packets()/bytes() and the residual-bytes audit see the whole queue.
  std::int64_t count_{0};
  std::int64_t bytes_{0};
  std::int64_t peak_packets_{0};
  Stats stats_;
};

// CompositeQueue: the NDP trimming discipline [Handley et al., SIGCOMM 17].
//
// Data packets queue on the base FIFO under the usual caps; when those caps
// (or the shared pool) refuse one, its payload is trimmed and the surviving
// header joins a strict-priority header queue that also carries all
// header-only traffic (ACKs, NACKs, already-trimmed arrivals). Headers are
// not charged to the shared pool — they are what survives congestion, so
// pool exhaustion must not drop them. A trimmed header is CE-marked when
// ECT: trimming is itself a congestion signal, and this lets DCTCP-family
// senders fold it into their usual response.
class CompositeQueue final : public DropTailQueue {
 public:
  explicit CompositeQueue(const Config& config) noexcept : DropTailQueue{config} {}

  bool enqueue(Packet* p) override;
  Packet* dequeue() override;

  [[nodiscard]] std::int64_t data_packets() const noexcept {
    return static_cast<std::int64_t>(ring_.count);
  }
  [[nodiscard]] std::int64_t header_packets() const noexcept {
    return static_cast<std::int64_t>(header_ring_.count);
  }

 private:
  // Admits onto the header ring; false = header-queue overflow (caller
  // accounts the drop).
  bool enqueue_header(Packet* p);

  Ring header_ring_;
  std::int64_t data_bytes_{0};  // pool-charged bytes in the data ring only
};

// Builds the queue `config` describes: a trimming CompositeQueue when
// config.discipline == kTrimming, a plain DropTailQueue otherwise.
[[nodiscard]] std::unique_ptr<DropTailQueue> make_queue(const DropTailQueue::Config& config);

}  // namespace incast::net

#endif  // INCAST_NET_QUEUE_H_
