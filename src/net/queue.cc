#include "net/queue.h"

#include <algorithm>
#include <utility>

namespace incast::net {

const char* to_string(QueueDiscipline d) noexcept {
  switch (d) {
    case QueueDiscipline::kDropTail: return "droptail";
    case QueueDiscipline::kTrimming: return "trim";
  }
  return "unknown";
}

EnqueueVerdict DropTailQueue::trim(Packet* p) {
  // Never larger than the original frame (a sub-64B original keeps its own
  // size).
  const std::int64_t original_bytes = p->size_bytes;
  const std::int64_t header_bytes = std::min(kTrimmedHeaderBytes, original_bytes);
  p->size_bytes = header_bytes;
  p->payload_bytes = 0;
  p->trimmed = true;
  if (is_ect(p->ecn)) p->ecn = Ecn::kCe;
  // Header queue overflow too: the whole original packet is lost.
  const EnqueueVerdict verdict = enqueue_header(p, original_bytes);
  if (!verdict.admitted()) return verdict;
  ++stats_.trimmed_packets;
  stats_.trimmed_bytes += original_bytes - header_bytes;
  return {EnqueueVerdict::Outcome::kTrimmed, original_bytes - header_bytes};
}

EnqueueVerdict DropTailQueue::enqueue_header(Packet* p, std::int64_t original_bytes) {
  if (header_packets() >= config_.header_capacity_packets) return drop(original_bytes);
  bytes_ += p->size_bytes;
  ++count_;
  header_ring_.push(p);
  ++stats_.enqueued_packets;
  note_peak();
  return {};
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
