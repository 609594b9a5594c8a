// Tests for Packet construction helpers and field semantics.
#include "net/packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "net/packet_pool.h"
#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::net {
namespace {

TEST(Packet, DataPacketFields) {
  const Packet p = make_data_packet(/*src=*/1, /*dst=*/2, /*flow=*/7, /*seq=*/1460,
                                    /*payload_bytes=*/1460);
  EXPECT_EQ(p.src, 1u);
  EXPECT_EQ(p.dst, 2u);
  EXPECT_EQ(p.tcp.flow_id, 7u);
  EXPECT_EQ(p.tcp.seq, 1460);
  EXPECT_EQ(p.payload_bytes, 1460);
  EXPECT_EQ(p.size_bytes, 1460 + kHeaderBytes);
  EXPECT_TRUE(p.is_data());
  EXPECT_FALSE(p.tcp.has_ack);
  EXPECT_FALSE(p.is_retransmit);
}

TEST(Packet, DataPacketsAreEcnCapable) {
  const Packet p = make_data_packet(1, 2, 7, 0, 100);
  EXPECT_EQ(p.ecn, Ecn::kEct0);
  EXPECT_TRUE(is_ect(p.ecn));
}

TEST(Packet, MtuSizedSegment) {
  // 1460 B MSS + 40 B headers = 1500 B MTU, the paper's configuration.
  const Packet p = make_data_packet(0, 1, 1, 0, 1460);
  EXPECT_EQ(p.size_bytes, 1500);
}

TEST(Packet, AckPacketFields) {
  const Packet a = make_ack_packet(/*src=*/2, /*dst=*/1, /*flow=*/7, /*ack=*/2920,
                                   /*ece=*/true);
  EXPECT_EQ(a.src, 2u);
  EXPECT_EQ(a.dst, 1u);
  EXPECT_EQ(a.tcp.flow_id, 7u);
  EXPECT_EQ(a.tcp.ack, 2920);
  EXPECT_TRUE(a.tcp.has_ack);
  EXPECT_TRUE(a.tcp.ece);
  EXPECT_EQ(a.payload_bytes, 0);
  EXPECT_EQ(a.size_bytes, kHeaderBytes);
  EXPECT_FALSE(a.is_data());
}

TEST(Packet, PureAcksAreNotEcnCapable) {
  const Packet a = make_ack_packet(2, 1, 7, 0, false);
  EXPECT_EQ(a.ecn, Ecn::kNotEct);
  EXPECT_FALSE(is_ect(a.ecn));
}

TEST(Packet, EcnPredicates) {
  EXPECT_FALSE(is_ect(Ecn::kNotEct));
  EXPECT_TRUE(is_ect(Ecn::kEct0));
  EXPECT_TRUE(is_ect(Ecn::kEct1));
  EXPECT_TRUE(is_ect(Ecn::kCe));
}

TEST(Packet, IntStackPushStopsAtCapacity) {
  IntStack stack;
  for (int i = 0; i < kMaxIntHops + 3; ++i) {
    stack.push(IntHopRecord{.qlen_bytes = i, .tx_bytes = 0, .link_bps = 1, .timestamp_ns = 0});
  }
  EXPECT_EQ(stack.num_hops, kMaxIntHops);
  // The first kMaxIntHops records survive; overflow is silently dropped
  // (as a fixed-size INT header would).
  EXPECT_EQ(stack.hops[0].qlen_bytes, 0);
  EXPECT_EQ(stack.hops[kMaxIntHops - 1].qlen_bytes, kMaxIntHops - 1);
}

TEST(Packet, FreshPacketCarriesNoOptions) {
  const Packet p = make_data_packet(0, 1, 1, 0, 100);
  EXPECT_EQ(p.tcp.num_sack, 0);
  EXPECT_EQ(p.int_slot, kNoIntSlot);
  EXPECT_EQ(p.rdt.type, RdtType::kNone);
}

TEST(PacketPool, ReleaseReturnsThePacketsIntStack) {
  PacketPool pool;
  Packet* p = pool.acquire(make_data_packet(0, 1, 1, 0, 100));
  EXPECT_EQ(pool.int_stack(*p), nullptr);
  IntStack& stack = pool.attach_int(*p);
  ASSERT_TRUE(stack.push(IntHopRecord{.qlen_bytes = 7}));
  Packet* copy = pool.clone(*p);
  ASSERT_NE(copy->int_slot, p->int_slot);
  EXPECT_EQ(pool.int_stack(*copy)->hops[0].qlen_bytes, 7);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.int_in_use(), 2u);
  pool.release(p);
  pool.release(copy);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.int_in_use(), 0u);
  EXPECT_EQ(pool.high_water(), 2u);
  EXPECT_EQ(pool.int_high_water(), 2u);
  // A recycled INT slot starts empty.
  Packet* again = pool.acquire(make_data_packet(0, 1, 1, 0, 100));
  EXPECT_EQ(pool.attach_int(*again).num_hops, 0);
}

// Only senders whose CCA requests INT take side-pool slots: a DCTCP incast
// takes none, an HPCC one takes some. Either way every packet is back in
// the pool once the run drains.
TEST(PacketPool, IntSidePoolServesOnlyIntRequestingSenders) {
  for (const tcp::CcAlgorithm cc : {tcp::CcAlgorithm::kDctcp, tcp::CcAlgorithm::kHpcc}) {
    SCOPED_TRACE(tcp::to_string(cc));
    sim::Simulator sim;
    Dumbbell topo{sim, DumbbellConfig{.num_senders = 8}};
    tcp::TcpConfig cfg;
    cfg.cc = cc;
    std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
    for (int i = 0; i < 8; ++i) {
      conns.push_back(std::make_unique<tcp::TcpConnection>(
          sim, topo.sender(i), topo.receiver(0), static_cast<FlowId>(i + 1), cfg));
      conns.back()->sender().add_app_data(40 * 1460);
    }
    sim.run();

    const PacketPool& pool = packet_pool(sim);
    for (const auto& c : conns) EXPECT_TRUE(c->sender().all_acked());
    EXPECT_GT(pool.high_water(), 0u);
    EXPECT_EQ(pool.in_use(), 0u);
    EXPECT_EQ(pool.int_in_use(), 0u);
    if (cc == tcp::CcAlgorithm::kHpcc) {
      EXPECT_GT(pool.int_high_water(), 0u);
      // Each receiver holds the latest stack it echoes, until it goes.
      EXPECT_EQ(pool.int_held(), 8u);
    } else {
      EXPECT_EQ(pool.int_high_water(), 0u);
      EXPECT_EQ(pool.int_held(), 0u);
    }
    conns.clear();
    EXPECT_EQ(pool.int_held(), 0u);
  }
}

// Every way a packet leaves the network hands its slot back: delivery,
// tail drop, trimming, wire loss, corruption, duplication, PFC control
// frames, unrouted and unclaimed arrivals. Once a run drains, the pool has
// nothing checked out.
TEST(PacketPool, EveryExitPathReleasesItsSlot) {
  struct Scenario {
    const char* name;
    DumbbellConfig topo;
    fault::LinkFaultConfig faults;
    // How often the scenario's own exit path fired; must be nonzero.
    std::function<std::int64_t(Dumbbell&, const fault::LinkFault&)> exits;
  };
  DumbbellConfig lossy{.num_senders = 8};
  lossy.switch_queue.capacity_packets = 20;
  DumbbellConfig trimming{.num_senders = 8};
  trimming.switch_queue = DropTailQueue::Config{.capacity_packets = 16,
                                                .ecn_threshold_packets = 0,
                                                .discipline = QueueDiscipline::kTrimming};
  DumbbellConfig lossless{.num_senders = 8};
  lossless.pfc = LosslessInputQueue::Config{};
  lossless.switch_queue.capacity_packets = 100'000;
  const Scenario scenarios[] = {
      {"tail drop + wire faults", lossy,
       {.drop_rate = 0.01, .corrupt_rate = 0.01, .duplicate_rate = 0.01,
        .reorder_rate = 0.01},
       [](Dumbbell& d, const fault::LinkFault& f) {
         return std::min({d.bottleneck_queue().stats().dropped_packets,
                          f.counters().injected_drops(), f.counters().corrupted,
                          f.counters().duplicated});
       }},
      {"trimming", trimming, {},
       [](Dumbbell& d, const fault::LinkFault&) {
         return d.bottleneck_queue().stats().trimmed_packets;
       }},
      {"pfc", lossless, {},
       [](Dumbbell& d, const fault::LinkFault&) {
         return d.link("tor_s->tor_r").pause_count();
       }},
  };
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    sim::Simulator sim;
    Dumbbell topo{sim, sc.topo};
    fault::FaultInjector injector{sim, 5};
    const fault::LinkFault& faults = injector.install(topo.link("tor_s->tor_r"), sc.faults);
    tcp::TcpConfig cfg;
    cfg.cc = tcp::CcAlgorithm::kReno;
    cfg.rtt.min_rto = sim::Time::milliseconds(5);
    std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
    for (int i = 0; i < 8; ++i) {
      conns.push_back(std::make_unique<tcp::TcpConnection>(
          sim, topo.sender(i), topo.receiver(0), static_cast<FlowId>(i + 1), cfg));
      conns.back()->sender().add_app_data(200 * 1460);
    }
    // One packet nobody routes and one nobody claims, on the fault-free
    // reverse path.
    Host& receiver = topo.receiver(0);
    receiver.send(receiver.packets().acquire(make_data_packet(receiver.id(), 999, 77, 0, 100)));
    receiver.send(receiver.packets().acquire(
        make_data_packet(receiver.id(), topo.sender(0).id(), 77, 0, 100)));
    sim.run();

    for (const auto& c : conns) EXPECT_TRUE(c->sender().all_acked());
    EXPECT_GT(sc.exits(topo, faults), 0);
    EXPECT_EQ(topo.receiver_tor().unrouted_packets(), 1);
    EXPECT_EQ(topo.sender(0).unclaimed_packets(), 1);
    EXPECT_EQ(packet_pool(sim).in_use(), 0u);
  }
}

TEST(Packet, ToStringMentionsKeyFields) {
  Packet p = make_data_packet(1, 2, 7, 1460, 1460);
  p.ecn = Ecn::kCe;
  const std::string s = p.to_string();
  EXPECT_NE(s.find("flow=7"), std::string::npos);
  EXPECT_NE(s.find("seq=1460"), std::string::npos);
  EXPECT_NE(s.find("CE"), std::string::npos);
}

}  // namespace
}  // namespace incast::net
