// PacketPool: the one store of packets in flight on an event loop.
//
// Every packet a host sends lives in its loop's pool until the receiving
// host's handler returns (or a queue, a link fault or a switch drops it).
// Ports, queues, switches and hosts pass the handle, a stable Packet*, so a
// hop moves 8 bytes instead of the whole struct, and scheduled closures
// capture {this, Packet*} within the kernel's inline budget
// (sim/inline_function.h) — the "pool it, don't capture it" rule from
// docs/PERFORMANCE.md, extended from host NIC to host NIC.
//
// INT stacks (200 bytes, used only by HPCC senders) live in a side table of
// the same pool; a packet names its stack by Packet::int_slot, and
// releasing the packet releases the stack. A TCP receiver holds one stack
// of its own there (hold_int) for the latest path state it echoes on ACKs.
//
// Slots are recycled through free lists over chunked storage, so steady
// state performs zero allocations and high_water() is the peak number of
// packets alive at one instant, queued ones included. Determinism is
// untouched: the pool only recycles storage; which packet goes where is
// decided entirely by the event kernel.
//
// One pool per sim::Simulator: packet_pool(sim) creates it on first use and
// the simulator owns it. Only that loop's thread may touch it.
#ifndef INCAST_NET_PACKET_POOL_H_
#define INCAST_NET_PACKET_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/stable_arena.h"

namespace incast::net {

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns a slot holding a copy of `init`, which must carry no INT slot
  // (a fresh packet from the make_* builders).
  [[nodiscard]] Packet* acquire(const Packet& init) {
    assert(init.int_slot == kNoIntSlot && "clone() copies a packet with an INT stack");
    Packet* p = acquire();
    *p = init;
    return p;
  }

  // Returns a slot holding a copy of `p`, with its own copy of p's INT
  // stack (if any) — a packet duplicated in flight.
  [[nodiscard]] Packet* clone(const Packet& p) {
    Packet* copy = acquire();
    *copy = p;
    if (p.int_slot != kNoIntSlot) {
      copy->int_slot = kNoIntSlot;
      attach_int(*copy) = *int_stack(p);
    }
    return copy;
  }

  // Returns `p`, and its INT stack if it has one, to the free lists. `p`
  // must have come from this pool and must not be used afterwards.
  void release(Packet* p) {
    if (p->int_slot != kNoIntSlot) {
      give_int_slot(p->int_slot);
      p->int_slot = kNoIntSlot;
    }
    free_.push_back(p);
  }

  // Gives `p` (which has none) an empty INT stack and returns it.
  IntStack& attach_int(Packet& p) {
    p.int_slot = take_int_slot();
    return int_stack_at(p.int_slot);
  }

  // `p`'s INT stack, or nullptr when it carries none. Addresses are stable
  // until the packet is released.
  [[nodiscard]] IntStack* int_stack(const Packet& p) {
    return p.int_slot == kNoIntSlot ? nullptr : &int_stack_at(p.int_slot);
  }

  // An empty INT stack held by a component rather than a packet (a TCP
  // receiver keeps the latest path state it echoes in one), named by the
  // returned slot until drop_int(). Held stacks count toward the side
  // table's bytes, but not toward int_in_use().
  [[nodiscard]] std::uint32_t hold_int() {
    ++int_held_;
    return take_int_slot();
  }
  void drop_int(std::uint32_t slot) {
    assert(int_held_ > 0);
    --int_held_;
    give_int_slot(slot);
  }
  // The INT stack in side-table slot `slot` (a packet's or a held one).
  [[nodiscard]] IntStack& int_stack_at(std::uint32_t slot) {
    assert(slot != kNoIntSlot);
    return int_stacks_[slot - 1];
  }

  // Peak number of packets alive at one instant (every slot ever made).
  [[nodiscard]] std::size_t high_water() const noexcept { return packets_.size(); }
  [[nodiscard]] std::size_t in_use() const noexcept {
    return packets_.size() - free_.size();
  }
  // The same two figures for the INT side table.
  [[nodiscard]] std::size_t int_high_water() const noexcept { return int_stacks_.size(); }
  // Stacks carried by live packets, and stacks held by components.
  [[nodiscard]] std::size_t int_in_use() const noexcept {
    return int_stacks_.size() - free_int_.size() - int_held_;
  }
  [[nodiscard]] std::size_t int_held() const noexcept { return int_held_; }
  // Bytes held by live packets and by every INT stack in use, and by both
  // tables at their peaks (the INT term is nonzero only when some sender's
  // CCA requests INT).
  [[nodiscard]] std::uint64_t live_bytes() const noexcept {
    return in_use() * sizeof(Packet) +
           (int_stacks_.size() - free_int_.size()) * sizeof(IntStack);
  }
  [[nodiscard]] std::uint64_t high_water_bytes() const noexcept {
    return high_water() * sizeof(Packet) + int_high_water() * sizeof(IntStack);
  }

 private:
  // A slot, recycled when possible, holding whatever its previous occupant
  // left.
  [[nodiscard]] Packet* acquire() {
    if (!free_.empty()) {
      Packet* p = free_.back();
      free_.pop_back();
      return p;
    }
    return &packets_.emplace_back();
  }

  // An empty INT stack's slot, recycled when possible.
  [[nodiscard]] std::uint32_t take_int_slot() {
    std::uint32_t slot;
    if (free_int_.empty()) {
      int_stacks_.emplace_back();
      slot = static_cast<std::uint32_t>(int_stacks_.size());
    } else {
      slot = free_int_.back();
      free_int_.pop_back();
    }
    int_stack_at(slot) = IntStack{};
    return slot;
  }
  void give_int_slot(std::uint32_t slot) {
    assert(slot != kNoIntSlot);
    free_int_.push_back(slot);
  }

  sim::StableChunkArena<Packet, 64> packets_;
  std::vector<Packet*> free_;
  sim::StableChunkArena<IntStack, 16> int_stacks_;
  std::vector<std::uint32_t> free_int_;
  std::size_t int_held_{0};
};

// `sim`'s packet pool, created on first use.
[[nodiscard]] inline PacketPool& packet_pool(sim::Simulator& sim) {
  if (sim.packet_pool() == nullptr) {
    sim.adopt_packet_pool(new PacketPool, [](PacketPool* pool) { delete pool; });
  }
  return *sim.packet_pool();
}

}  // namespace incast::net

#endif  // INCAST_NET_PACKET_POOL_H_
