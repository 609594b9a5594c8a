#include "net/queue.h"

#include <algorithm>
#include <utility>

namespace incast::net {

namespace {

// SplitMix64 finalizer — the deterministic coin behind probabilistic
// marking. Full avalanche, no implementation-defined behavior, so the
// marking pattern is identical on every platform.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(QueueDiscipline d) noexcept {
  switch (d) {
    case QueueDiscipline::kDropTail: return "droptail";
    case QueueDiscipline::kTrimming: return "trim";
  }
  return "unknown";
}

bool DropTailQueue::should_mark(const Packet& p, std::int64_t occupancy_packets) const noexcept {
  if (!is_ect(p.ecn)) return false;
  if (config_.ecn_kmax_packets > 0) {
    // DCQCN-style RED band on instantaneous occupancy.
    if (occupancy_packets < config_.ecn_kmin_packets) return false;
    if (occupancy_packets >= config_.ecn_kmax_packets) return true;
    const std::int64_t span =
        std::max<std::int64_t>(1, config_.ecn_kmax_packets - config_.ecn_kmin_packets);
    // Hash the packet uid with the arrival ordinal so repeated uids (or
    // uid 0) still see fresh coins; compare in 64-bit fixed point.
    const std::uint64_t coin =
        mix64(p.uid ^ (static_cast<std::uint64_t>(stats_.enqueued_packets) << 20));
    const std::uint64_t threshold =
        (static_cast<std::uint64_t>(occupancy_packets - config_.ecn_kmin_packets) *
         (~0ULL / static_cast<std::uint64_t>(span)));
    return coin < threshold;
  }
  // DCTCP marking rule: mark the arriving packet when the instantaneous
  // occupancy is already at/above K.
  return config_.ecn_threshold_packets > 0 && occupancy_packets >= config_.ecn_threshold_packets;
}

bool DropTailQueue::enqueue(Packet* p) {
  const std::int64_t size = p->size_bytes;
  // Check the per-queue caps before touching the pool so that a drop never
  // leaves memory reserved.
  if (count_ >= config_.capacity_packets ||
      (config_.capacity_bytes > 0 && bytes_ + size > config_.capacity_bytes) ||
      (pool_ != nullptr && !pool_->try_reserve(size, bytes_))) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += size;
    return false;
  }

  if (should_mark(*p, count_)) {
    p->ecn = Ecn::kCe;
    ++stats_.ecn_marked_packets;
  }

  bytes_ += size;
  ++count_;
  ring_.push(p);
  ++stats_.enqueued_packets;
  note_peak();
  return true;
}

Packet* DropTailQueue::dequeue() {
  if (empty()) return nullptr;
  Packet* p = ring_.pop();
  const std::int64_t size = p->size_bytes;
  --count_;
  bytes_ -= size;
  if (pool_ != nullptr) pool_->release(size);
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += size;
  return p;
}

bool CompositeQueue::enqueue(Packet* p) {
  const std::int64_t original_bytes = p->size_bytes;

  // Header-only traffic (ACKs, NACKs, headers trimmed upstream) rides the
  // strict-priority header queue directly, NDP-style.
  if (!p->is_data()) {
    if (!enqueue_header(p)) {
      ++stats_.dropped_packets;
      stats_.dropped_bytes += original_bytes;
      return false;
    }
    return true;
  }

  // Same admission rule as the base queue, but over the data ring only.
  const auto data_count = static_cast<std::int64_t>(ring_.count);
  if (data_count < config_.capacity_packets &&
      (config_.capacity_bytes <= 0 || data_bytes_ + original_bytes <= config_.capacity_bytes) &&
      (pool_ == nullptr || pool_->try_reserve(original_bytes, data_bytes_))) {
    if (should_mark(*p, data_count)) {
      p->ecn = Ecn::kCe;
      ++stats_.ecn_marked_packets;
    }
    data_bytes_ += original_bytes;
    bytes_ += original_bytes;
    ++count_;
    ring_.push(p);
    ++stats_.enqueued_packets;
    note_peak();
    return true;
  }

  // Data queue full: trim the payload and keep the header. Never larger
  // than the original frame (a sub-64B original keeps its own size).
  const std::int64_t header_bytes = std::min(config_.trim_header_bytes, original_bytes);
  p->size_bytes = header_bytes;
  p->payload_bytes = 0;
  p->trimmed = true;
  if (is_ect(p->ecn)) p->ecn = Ecn::kCe;
  if (!enqueue_header(p)) {
    // Header queue overflow too: the whole original packet is lost.
    ++stats_.dropped_packets;
    stats_.dropped_bytes += original_bytes;
    return false;
  }
  ++stats_.trimmed_packets;
  stats_.trimmed_bytes += original_bytes - header_bytes;
  return true;
}

bool CompositeQueue::enqueue_header(Packet* p) {
  if (static_cast<std::int64_t>(header_ring_.count) >= config_.header_capacity_packets) {
    return false;
  }
  bytes_ += p->size_bytes;
  ++count_;
  header_ring_.push(p);
  ++stats_.enqueued_packets;
  note_peak();
  return true;
}

Packet* CompositeQueue::dequeue() {
  const bool from_header = !header_ring_.empty();
  Ring& src = from_header ? header_ring_ : ring_;
  if (src.empty()) return nullptr;
  Packet* p = src.pop();
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

std::unique_ptr<DropTailQueue> make_queue(const DropTailQueue::Config& config) {
  if (config.discipline == QueueDiscipline::kTrimming) {
    return std::make_unique<CompositeQueue>(config);
  }
  return std::make_unique<DropTailQueue>(config);
}

void DropTailQueue::Ring::push(Packet* p) {
  if (count == slots.size()) {
    // Grow by doubling, unwrapping head..tail into the new storage so the
    // occupied region is contiguous from index 0 again.
    std::vector<Packet*> bigger;
    bigger.reserve(slots.empty() ? 16 : slots.size() * 2);
    for (std::size_t i = 0; i < count; ++i) {
      bigger.push_back(slots[(head + i) % slots.size()]);
    }
    bigger.resize(bigger.capacity());
    slots = std::move(bigger);
    head = 0;
  }
  std::size_t tail = head + count;
  if (tail >= slots.size()) tail -= slots.size();
  slots[tail] = p;
  ++count;
}

Packet* DropTailQueue::Ring::pop() {
  Packet* p = slots[head];
  if (++head == slots.size()) head = 0;
  --count;
  return p;
}

}  // namespace incast::net
