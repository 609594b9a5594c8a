// LinkDirectory: uniform access to a topology's links by name.
//
// Every topology builder (Dumbbell, fabric::FatTree) records each duplex
// pair it wires, so higher layers — fault injection above all — can address
// any link in any topology the same way, with no per-topology accessors. A
// unidirectional link is named "<from>-><to>" after the node on each side,
// e.g. "tor_s->tor_r" or "p0.l1->s0".
//
// The directory keeps one {from, out_port, to, in_port} record per
// unidirectional link, in wiring order, and builds a name only when one is
// asked for: a build costs O(links) with no strings, and a lookup compares
// the asked-for name against each record's two node names in place. Lookups
// are rare (fault profiles, telemetry vantages, error text), so the linear
// match costs less than building and hashing every name up front.
#ifndef INCAST_NET_LINK_DIRECTORY_H_
#define INCAST_NET_LINK_DIRECTORY_H_

#include <string>
#include <string_view>
#include <vector>

#include "net/node.h"

namespace incast::net {

class LosslessInputQueue;

class LinkDirectory {
 public:
  // The named link's egress port, or nullptr if no link has that name.
  [[nodiscard]] Port* find_link(const std::string& name) const;

  // Like find_link, but an unknown name throws std::out_of_range listing
  // every link's name — a typo'd fault profile fails loudly.
  [[nodiscard]] Port& link(const std::string& name) const;

  // All link names, in wiring order, built on each call.
  [[nodiscard]] std::vector<std::string> link_names() const;

  // Uniform naming for PFC virtual input queues: the VIQ charged by
  // traffic arriving over link "a->b" is "a->b:viq<n>", where n is b's
  // ingress port index for that link. find_viq resolves such a name to the
  // receiving switch's LosslessInputQueue; nullptr when the name is
  // unknown, the index does not match the wiring, or the receiving node is
  // not a PFC-enabled switch.
  [[nodiscard]] const LosslessInputQueue* find_viq(const std::string& viq_name) const;

  // Every VIQ name currently live (links whose receiving node is a
  // PFC-enabled switch), in wiring order.
  [[nodiscard]] std::vector<std::string> viq_names() const;

  // Bytes still buffered anywhere in the topology: queued plus in flight on
  // the wire, summed over every link. This is the residual term
  // of the auditor's conservation ledger (sim::Auditor::check_conservation);
  // at teardown, injected == delivered + dropped + residual must hold.
  [[nodiscard]] std::int64_t residual_buffered_bytes() const;

  // INT hop-stamp overflows summed over every link's egress port (see
  // Port::int_hop_overflows). Every port a builder wires is recorded, so
  // this covers the whole topology.
  [[nodiscard]] std::int64_t int_hop_overflows() const;

 protected:
  ~LinkDirectory() = default;

  // Records the full-duplex pair connect_duplex wires: "a->b" leaves a's
  // port `ap` and enters b's port `bp`, "b->a" the reverse. Names must be
  // unique across the directory; that is the builder's job.
  void register_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp);

 private:
  // One unidirectional link: it leaves `from` by egress port `out_port` and
  // enters `to` by ingress port `in_port`.
  struct Link {
    Node* from{nullptr};
    std::size_t out_port{0};
    Node* to{nullptr};
    std::size_t in_port{0};
  };

  // The link named `name`, or nullptr.
  [[nodiscard]] const Link* find(std::string_view name) const noexcept;

  std::vector<Link> links_;
};

}  // namespace incast::net

#endif  // INCAST_NET_LINK_DIRECTORY_H_
