// LinkDirectory: uniform access to a topology's links by name.
//
// Every topology builder (Dumbbell, fabric::FatTree) registers each
// unidirectional link under a "<from>-><to>" name as it wires the network,
// so higher layers — fault injection above all — can address any link in
// any topology the same way, with no per-topology accessors. Names use the
// owning node's name on each side, e.g. "tor_s->tor_r" or "p0.l1->s0".
#ifndef INCAST_NET_LINK_DIRECTORY_H_
#define INCAST_NET_LINK_DIRECTORY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "net/node.h"

namespace incast::net {

class LosslessInputQueue;

class LinkDirectory {
 public:
  // The named link's egress port, or nullptr if no such name is registered.
  [[nodiscard]] Port* find_link(const std::string& name) const;

  // Like find_link, but an unknown name throws std::out_of_range listing
  // the registered names — a typo'd fault profile fails loudly.
  [[nodiscard]] Port& link(const std::string& name) const;

  // All registered link names, in registration (wiring) order.
  [[nodiscard]] const std::vector<std::string>& link_names() const noexcept {
    return names_;
  }

  // Uniform naming for PFC virtual input queues: the VIQ charged by
  // traffic arriving over link "a->b" is "a->b:viq<n>", where n is b's
  // ingress port index for that link. find_viq resolves such a name to the
  // receiving switch's LosslessInputQueue; nullptr when the name is
  // unknown, the index does not match the wiring, or the receiving node is
  // not a PFC-enabled switch.
  [[nodiscard]] const LosslessInputQueue* find_viq(const std::string& viq_name) const;

  // Every VIQ name currently live (duplex-registered links whose receiving
  // node is a PFC-enabled switch), in link registration order.
  [[nodiscard]] std::vector<std::string> viq_names() const;

  // Bytes still buffered anywhere in the topology: queued plus in flight on
  // the wire, summed over every registered link. This is the residual term
  // of the auditor's conservation ledger (sim::Auditor::check_conservation);
  // at teardown, injected == delivered + dropped + residual must hold.
  [[nodiscard]] std::int64_t residual_buffered_bytes() const;

  // INT hop-stamp overflows summed over every link's egress port (see
  // Port::int_hop_overflows). Every port a builder wires is registered, so
  // this covers the whole topology.
  [[nodiscard]] std::int64_t int_hop_overflows() const;

 protected:
  ~LinkDirectory() = default;

  // Registers one unidirectional link. Duplicate names are a builder bug.
  void register_link(std::string name, Port& port);

  // Convenience for full-duplex pairs: registers "a->b" on a's port and
  // "b->a" on b's, matching how connect_duplex wires them.
  void register_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp);

 private:
  // Receiving side of a duplex-registered link, for VIQ resolution.
  struct Ingress {
    Node* node{nullptr};
    std::size_t in_port{0};
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, Port*> by_name_;
  std::unordered_map<std::string, Ingress> ingress_by_link_;
};

}  // namespace incast::net

#endif  // INCAST_NET_LINK_DIRECTORY_H_
