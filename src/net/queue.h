// DropTailQueue: a port's egress FIFO — one class, two disciplines.
//
// This is the queue the paper studies: a ToR egress FIFO with capacity 1333
// packets (2 MB) and an ECN marking threshold K. An arriving ECT packet is
// marked CE when the instantaneous occupancy is at or above K — the DCTCP
// marking rule — or, with a DCQCN-style band (ecn_kmin/kmax), with a
// probability ramping 0 -> 1 across [kmin, kmax) and always at/above kmax.
// The coin is a hash of the packet uid, so marking stays bit-deterministic
// with no RNG state.
//
// Config::discipline picks what happens to an arrival the data FIFO's caps
// (or the shared-buffer dynamic threshold, when a pool is attached) refuse:
//
//   * kDropTail, the paper's queue: it is dropped at the tail;
//   * kTrimming, NDP-style [Handley et al., SIGCOMM 17]: a data packet is
//     trimmed to its header, which joins a strict-priority header ring —
//     the receiver learns what was lost and NACKs for an immediate
//     retransmit. Header-only traffic (ACKs, NACKs, headers trimmed
//     upstream) always rides the header ring. Headers are not charged to
//     the shared pool: they are what survives congestion, so pool
//     exhaustion must not drop them. A trimmed ECT header is CE-marked,
//     so DCTCP-family senders fold the trim into their usual response.
//
// Trimming is a branch plus the header ring, which stays empty under
// kDropTail, so the class has no virtual functions and a Port holds its
// queue by value, next to its own fields: no allocation and no indirection
// between a hop's port and its queue.
//
// Queues hold pooled handles (net/packet_pool.h), never packet values: a
// queue owns each packet it admitted until dequeue() hands it back, and
// never owns one it refused.
#ifndef INCAST_NET_QUEUE_H_
#define INCAST_NET_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/shared_buffer.h"

namespace incast::net {

// What a queue does with an arrival its data FIFO refuses.
enum class QueueDiscipline : std::uint8_t {
  kDropTail = 0,  // classic tail-drop FIFO (the paper's queue)
  kTrimming,      // NDP-style: trim the payload, keep the header
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
    // Tail-drop or trimming.
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

  DropTailQueue(const DropTailQueue&) = delete;
  DropTailQueue& operator=(const DropTailQueue&) = delete;

  // Attaches a shared buffer pool; admission then also requires pool memory.
  void attach_pool(SharedBufferPool* pool) noexcept { pool_ = pool; }

  // Admits `p` (marking it CE if the queue is past the ECN threshold) or
  // refuses it. Returns true if the packet was enqueued — for a trimming
  // queue that includes the trimmed-to-header case (the stats tell the
  // difference). A refused packet stays the caller's to release.
  bool enqueue(Packet* p) {
    if (trimming() && !p->is_data()) [[unlikely]] return enqueue_header(p, p->size_bytes);
    const std::int64_t size = p->size_bytes;
    // The caps apply to the data ring only (all of the queue under
    // kDropTail). They are checked before the pool so that a refusal never
    // leaves memory reserved.
    const auto data_count = static_cast<std::int64_t>(ring_.count);
    if (data_count < config_.capacity_packets &&
        (config_.capacity_bytes <= 0 || data_bytes_ + size <= config_.capacity_bytes) &&
        (pool_ == nullptr || pool_->try_reserve(size, data_bytes_))) {
      if (should_mark(*p, data_count)) {
        p->ecn = Ecn::kCe;
        ++stats_.ecn_marked_packets;
      }
      data_bytes_ += size;
      bytes_ += size;
      ++count_;
      ring_.push(p);
      ++stats_.enqueued_packets;
      note_peak();
      return true;
    }
    if (trimming()) return trim(p);
    ++stats_.dropped_packets;
    stats_.dropped_bytes += size;
    return false;
  }

  // Removes the head-of-line packet — a queued header first, then data —
  // and hands it to the caller; nullptr if empty.
  Packet* dequeue() {
    if (empty()) return nullptr;
    const bool from_header = !header_ring_.empty();
    Packet* p = from_header ? header_ring_.pop() : ring_.pop();
    const std::int64_t size = p->size_bytes;
    --count_;
    bytes_ -= size;
    if (!from_header) {
      data_bytes_ -= size;
      if (pool_ != nullptr) pool_->release(size);
    }
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += size;
    return p;
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::int64_t packets() const noexcept { return count_; }
  [[nodiscard]] std::int64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] bool trimming() const noexcept {
    return config_.discipline == QueueDiscipline::kTrimming;
  }

  // Packets on the data ring and on the header ring (always 0 under
  // kDropTail); together they are packets().
  [[nodiscard]] std::int64_t data_packets() const noexcept {
    return static_cast<std::int64_t>(ring_.count);
  }
  [[nodiscard]] std::int64_t header_packets() const noexcept {
    return static_cast<std::int64_t>(header_ring_.count);
  }

  // High watermark (packets) since the last take_watermark() call. This is
  // how production ToRs report queue depth: a per-interval peak, not a time
  // series (Section 3.4).
  [[nodiscard]] std::int64_t peak_packets() const noexcept { return peak_packets_; }
  std::int64_t take_watermark() noexcept {
    const std::int64_t peak = peak_packets_;
    peak_packets_ = packets();
    return peak;
  }

 private:
  // FIFO of handles as a power-of-two-free circular buffer over a plain
  // vector: a deque's block churn costs an allocation per enqueue, which
  // the allocation-free kernel cannot afford.
  struct Ring {
    std::vector<Packet*> slots;
    std::size_t head{0};
    std::size_t count{0};

    [[nodiscard]] bool empty() const noexcept { return count == 0; }
    // Appends, growing when full (rare; amortized away once the queue has
    // seen its peak depth).
    void push(Packet* p) {
      if (count == slots.size()) [[unlikely]] grow();
      std::size_t tail = head + count;
      if (tail >= slots.size()) tail -= slots.size();
      slots[tail] = p;
      ++count;
    }
    // Removes and returns the head. Precondition: !empty().
    [[nodiscard]] Packet* pop() noexcept {
      Packet* p = slots[head];
      if (++head == slots.size()) head = 0;
      --count;
      return p;
    }
    // Doubles the storage, unwrapping the occupied region to index 0.
    void grow();
  };

  // The configured marking rule's verdict for an ECT packet arriving at
  // `occupancy_packets`: the kmin/kmax ramp when configured, the DCTCP
  // step rule otherwise. Non-ECT packets are never marked.
  [[nodiscard]] bool should_mark(const Packet& p, std::int64_t occupancy_packets) const noexcept {
    if (!is_ect(p.ecn)) return false;
    if (config_.ecn_kmax_packets > 0) return band_mark(p, occupancy_packets);
    return config_.ecn_threshold_packets > 0 &&
           occupancy_packets >= config_.ecn_threshold_packets;
  }
  // The kmin/kmax ramp's coin.
  [[nodiscard]] bool band_mark(const Packet& p, std::int64_t occupancy_packets) const noexcept;

  // Trimming: cuts a refused data packet to its header and queues that.
  bool trim(Packet* p);
  // Trimming: admits `p` onto the header ring, or counts `original_bytes`
  // dropped when the header ring is full.
  bool enqueue_header(Packet* p, std::int64_t original_bytes);

  void note_peak() noexcept {
    if (count_ > peak_packets_) peak_packets_ = count_;
  }

  // Hot first: what enqueue() and dequeue() read on every packet.
  Ring ring_;  // data packets
  // Totals across both rings, so packets()/bytes() and the residual-bytes
  // audit see the whole queue.
  std::int64_t count_{0};
  std::int64_t bytes_{0};
  std::int64_t data_bytes_{0};  // pool-charged bytes: the data ring's
  std::int64_t peak_packets_{0};
  SharedBufferPool* pool_{nullptr};
  Config config_;
  Stats stats_;
  Ring header_ring_;  // trimming only
};

}  // namespace incast::net

#endif  // INCAST_NET_QUEUE_H_
