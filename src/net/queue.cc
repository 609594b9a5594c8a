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

bool DropTailQueue::band_mark(const Packet& p, std::int64_t occupancy_packets) const noexcept {
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

bool DropTailQueue::trim(Packet* p) {
  // Never larger than the original frame (a sub-64B original keeps its own
  // size).
  const std::int64_t original_bytes = p->size_bytes;
  const std::int64_t header_bytes = std::min(config_.trim_header_bytes, original_bytes);
  p->size_bytes = header_bytes;
  p->payload_bytes = 0;
  p->trimmed = true;
  if (is_ect(p->ecn)) p->ecn = Ecn::kCe;
  // Header queue overflow too: the whole original packet is lost.
  if (!enqueue_header(p, original_bytes)) return false;
  ++stats_.trimmed_packets;
  stats_.trimmed_bytes += original_bytes - header_bytes;
  return true;
}

bool DropTailQueue::enqueue_header(Packet* p, std::int64_t original_bytes) {
  if (static_cast<std::int64_t>(header_ring_.count) >= config_.header_capacity_packets) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += original_bytes;
    return false;
  }
  bytes_ += p->size_bytes;
  ++count_;
  header_ring_.push(p);
  ++stats_.enqueued_packets;
  note_peak();
  return true;
}

void DropTailQueue::Ring::grow() {
  std::vector<Packet*> bigger;
  bigger.reserve(slots.empty() ? 16 : slots.size() * 2);
  for (std::size_t i = 0; i < count; ++i) {
    bigger.push_back(slots[(head + i) % slots.size()]);
  }
  bigger.resize(bigger.capacity());
  slots = std::move(bigger);
  head = 0;
}

}  // namespace incast::net
