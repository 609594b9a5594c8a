// Host: an endhost with one NIC, flow demultiplexing, and telemetry taps.
//
// Hosts deliver arriving packets first to any registered IngressTaps (this
// is where the Millisampler attaches, mirroring its production deployment as
// an eBPF tc filter on the host NIC) and then to the PacketHandler
// registered for the packet's flow (a TCP endpoint). A host is where a
// packet's pool slot begins (send) and ends (after its handler returns).
//
// Flow dispatch is a flat open-addressed table (linear probing, at most
// half full, backward-shift deletion): one multiply and usually one probe
// per packet, and registering or unregistering a flow is O(1) amortized.
#ifndef INCAST_NET_HOST_H_
#define INCAST_NET_HOST_H_

#include <vector>

#include "net/node.h"

namespace incast::net {

// Consumes packets addressed to a flow terminating at this host. `p` (and
// its INT stack, through the host's packets()) is valid until the handler
// returns; the host then releases it.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle_packet(const Packet& p) = 0;
};

// Observes every packet arriving at the host NIC (read-only).
class IngressTap {
 public:
  virtual ~IngressTap() = default;
  virtual void on_ingress(const Packet& p, sim::Time now) = 0;
};

class Host : public Node {
 public:
  using Node::Node;

  // Creates the NIC: an egress port of rate `bandwidth`. A host has exactly
  // one NIC; calling twice is a bug.
  std::size_t add_nic(sim::Bandwidth bandwidth, sim::Time propagation_delay,
                      const DropTailQueue::Config& queue_config);

  // Sends a packet out of the NIC. `p` comes from packets() and belongs to
  // the network from here on.
  void send(Packet* p);

  // Registers `handler` for packets of `flow`, replacing any handler the
  // flow had. The handler must outlive the registration; unregister before
  // destroying it. Unregistering an unknown flow is a no-op.
  void register_flow(FlowId flow, PacketHandler* handler);
  void unregister_flow(FlowId flow);

  // Adds a read-only observer of all ingress packets (e.g. Millisampler).
  void add_ingress_tap(IngressTap* tap) { taps_.push_back(tap); }

  void receive(Packet* p, std::size_t in_port) override;

  [[nodiscard]] sim::Bandwidth nic_bandwidth() const { return port(nic_port_).bandwidth(); }

  // Packets that arrived for a flow with no registered handler.
  [[nodiscard]] std::int64_t unclaimed_packets() const noexcept { return unclaimed_packets_; }

  // Checksum-failed frames discarded by the NIC — the simulator equivalent
  // of the rx_crc_errors counter real NICs expose. Ingress taps still see
  // these frames (host telemetry can count them); flow handlers never do,
  // so the transport observes pure silent loss.
  [[nodiscard]] std::int64_t corrupt_dropped_packets() const noexcept {
    return corrupt_dropped_packets_;
  }

  // PFC pause/resume frames the NIC consumed (lossless fabrics only).
  [[nodiscard]] std::int64_t pfc_frames_received() const noexcept {
    return pfc_frames_received_;
  }
  // Cumulative time the NIC spent PFC-paused — the host-side HoL-blocking
  // measure the collateral experiment reports.
  [[nodiscard]] std::int64_t nic_paused_ns() const { return port(nic_port_).paused_ns(); }

 private:
  struct FlowSlot {
    FlowId flow{0};
    PacketHandler* handler{nullptr};  // nullptr: the slot is empty
  };

  // Index of `flow`'s slot, or of the empty slot that ends its probe run.
  // Precondition: !flows_.empty().
  [[nodiscard]] std::size_t find_slot(FlowId flow) const noexcept;
  [[nodiscard]] std::size_t home_slot(FlowId flow) const noexcept;
  void grow_flows();

  std::size_t nic_port_{0};
  bool has_nic_{false};
  std::vector<FlowSlot> flows_;  // power-of-two size, or empty
  std::size_t flow_count_{0};
  std::vector<IngressTap*> taps_;
  std::int64_t unclaimed_packets_{0};
  std::int64_t corrupt_dropped_packets_{0};
  std::int64_t pfc_frames_received_{0};
};

}  // namespace incast::net

#endif  // INCAST_NET_HOST_H_
