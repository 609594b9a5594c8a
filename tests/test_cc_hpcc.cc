// Tests for the HPCC-style INT-based CCA and the INT telemetry plumbing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fat_tree.h"
#include "net/packet_pool.h"
#include "net/topology.h"
#include "sim/random.h"
#include "tcp/cc/hpcc.h"
#include "tcp/tcp_connection.h"

namespace incast::tcp {
namespace {

using sim::Time;
using namespace incast::sim::literals;

constexpr std::int64_t kMss = 1460;

// --- INT plumbing -------------------------------------------------------------

TEST(IntTelemetry, SwitchesStampIntEnabledDataPackets) {
  sim::Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};

  class Tap final : public net::IngressTap {
   public:
    explicit Tap(net::PacketPool& pool) : pool_{pool} {}
    void on_ingress(const net::Packet& p, Time) override {
      if (!p.is_data()) return;
      const net::IntStack* stack = pool_.int_stack(p);
      ASSERT_NE(stack, nullptr);
      stacks.push_back(*stack);
    }
    std::vector<net::IntStack> stacks;

   private:
    net::PacketPool& pool_;
  };
  Tap tap{net::packet_pool(sim)};
  topo.receiver(0).add_ingress_tap(&tap);

  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kHpcc;
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
  conn.sender().add_app_data(10 * kMss);
  sim.run();

  ASSERT_FALSE(tap.stacks.empty());
  for (const auto& stack : tap.stacks) {
    // Sender ToR egress (uplink) + receiver ToR egress (downlink) = 2 hops
    // (host NICs do not stamp).
    ASSERT_EQ(stack.num_hops, 2);
    EXPECT_EQ(stack.hops[0].link_bps, 100'000'000'000);  // inter-ToR uplink
    EXPECT_EQ(stack.hops[1].link_bps, 10'000'000'000);   // receiver downlink
    EXPECT_GE(stack.hops[1].qlen_bytes, 0);
    EXPECT_GT(stack.hops[1].tx_bytes, 0);
  }
}

TEST(IntTelemetry, DisabledFlowsAreNotStamped) {
  sim::Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};

  class Tap final : public net::IngressTap {
   public:
    void on_ingress(const net::Packet& p, Time) override {
      if (p.is_data() && p.int_slot != net::kNoIntSlot) ++stamped;
    }
    int stamped{0};
  };
  Tap tap;
  topo.receiver(0).add_ingress_tap(&tap);

  TcpConfig cfg;  // DCTCP by default, which does not request INT
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
  conn.sender().add_app_data(10 * kMss);
  sim.run();
  EXPECT_EQ(tap.stamped, 0);
}

// The CCA alone decides INT: an HPCC sender with no other setting gets
// every data packet stamped, and no other CCA requests it.
TEST(IntTelemetry, OnlyHpccSendersRequestInt) {
  for (const CcAlgorithm cc :
       {CcAlgorithm::kReno, CcAlgorithm::kRenoEcn, CcAlgorithm::kDctcp, CcAlgorithm::kCubic,
        CcAlgorithm::kSwift, CcAlgorithm::kHpcc, CcAlgorithm::kDcqcn}) {
    SCOPED_TRACE(to_string(cc));
    sim::Simulator sim;
    net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};

    class Tap final : public net::IngressTap {
     public:
      explicit Tap(net::PacketPool& pool) : pool_{pool} {}
      void on_ingress(const net::Packet& p, Time) override {
        if (!p.is_data()) return;
        ++data;
        const net::IntStack* stack = pool_.int_stack(p);
        if (stack != nullptr && stack->num_hops == 2) ++stamped;
      }
      int data{0};
      int stamped{0};

     private:
      net::PacketPool& pool_;
    };
    Tap tap{net::packet_pool(sim)};
    topo.receiver(0).add_ingress_tap(&tap);

    TcpConfig cfg;
    cfg.cc = cc;
    TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
    conn.sender().add_app_data(10 * kMss);
    sim.run();

    ASSERT_GT(tap.data, 0);
    EXPECT_EQ(tap.stamped, cc == CcAlgorithm::kHpcc ? tap.data : 0);
  }
}

TEST(IntTelemetry, ReceiverEchoesIntOnAcks) {
  sim::Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};

  class AckTap final : public net::IngressTap {
   public:
    explicit AckTap(net::PacketPool& pool) : pool_{pool} {}
    void on_ingress(const net::Packet& p, Time) override {
      const net::IntStack* stack = pool_.int_stack(p);
      if (p.tcp.has_ack && !p.is_data() && stack != nullptr && stack->num_hops > 0) {
        ++echoed;
      }
    }
    int echoed{0};

   private:
    net::PacketPool& pool_;
  };
  AckTap tap{net::packet_pool(sim)};
  topo.sender(0).add_ingress_tap(&tap);  // watch ACKs arriving at the sender

  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kHpcc;
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
  conn.sender().add_app_data(10 * kMss);
  sim.run();
  EXPECT_GT(tap.echoed, 5);
}

// Switches stamp the forward path only. A cross-pod flow on a 3-tier
// fat-tree crosses five switch egress ports (leaf, agg, spine, agg, leaf);
// its ACKs must echo exactly those five records, not the reverse path's
// hops appended after them until the stack overflows.
TEST(IntTelemetry, AcksEchoOnlyTheDataPathOnAThreeTierFabric) {
  sim::Simulator sim;
  fabric::FatTreeConfig fcfg;
  fcfg.num_pods = 2;
  fcfg.leaves_per_pod = 2;
  fcfg.hosts_per_leaf = 2;
  fcfg.aggs_per_pod = 2;
  fcfg.num_spines = 2;
  fabric::FatTree tree{sim, fcfg};
  net::Host& sender = tree.host(0, 0, 0);
  net::Host& receiver = tree.host(1, 1, 1);

  class AckTap final : public net::IngressTap {
   public:
    explicit AckTap(net::PacketPool& pool) : pool_{pool} {}
    void on_ingress(const net::Packet& p, Time) override {
      const net::IntStack* stack = pool_.int_stack(p);
      if (!p.tcp.has_ack || p.is_data() || stack == nullptr) return;
      ++echoed;
      hops.push_back(stack->num_hops);
    }
    int echoed{0};
    std::vector<int> hops;

   private:
    net::PacketPool& pool_;
  };
  AckTap tap{net::packet_pool(sim)};
  sender.add_ingress_tap(&tap);

  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kHpcc;
  TcpConnection conn{sim, sender, receiver, 1, cfg};
  conn.sender().add_app_data(50 * kMss);
  sim.run();

  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(tree.int_hop_overflows(), 0);
  ASSERT_GT(tap.echoed, 0);
  for (const int h : tap.hops) EXPECT_EQ(h, 5);
}

// --- HpccCc unit behaviour ----------------------------------------------------

HpccConfig config() {
  HpccConfig c;
  c.mss_bytes = kMss;
  c.initial_window_segments = 10;
  c.base_rtt = 30_us;
  return c;
}

net::IntHopRecord hop(std::int64_t qlen, std::int64_t tx, std::int64_t t_ns,
                      std::int64_t bps = 10'000'000'000) {
  return {.qlen_bytes = qlen, .tx_bytes = tx, .link_bps = bps, .timestamp_ns = t_ns};
}

// An AckEvent together with the one-hop INT stack it points at; it
// converts to the event when passed to on_ack().
struct IntAck {
  net::IntStack stack;
  AckEvent ev;
  operator const AckEvent&() {  // NOLINT(google-explicit-constructor)
    ev.int_stack = &stack;
    return ev;
  }
};

IntAck ack_with_int(const net::IntHopRecord& rec, Time now, bool app_limited = false) {
  IntAck ack;
  ack.ev.newly_acked_bytes = kMss;
  ack.ev.now = now;
  ack.ev.app_limited = app_limited;
  EXPECT_TRUE(ack.stack.push(rec));
  return ack;
}

TEST(HpccCc, IgnoresAcksWithoutInt) {
  HpccCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  AckEvent ev;
  ev.newly_acked_bytes = kMss;
  ev.now = 1_ms;
  cc.on_ack(ev);
  EXPECT_EQ(cc.cwnd_bytes(), before);
  EXPECT_EQ(cc.name(), "hpcc");
}

TEST(HpccCc, FirstSamplePrimesNoReaction) {
  HpccCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  // First INT record of a hop: no tx-rate estimate yet, so no update.
  cc.on_ack(ack_with_int(hop(0, 1'000'000, 1'000'000), 1_ms));
  EXPECT_EQ(cc.cwnd_bytes(), before);
}

TEST(HpccCc, HighUtilizationShrinksWindow) {
  HpccCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  // Two samples 30 us apart, link running at ~line rate with a deep queue:
  // U >> eta.
  cc.on_ack(ack_with_int(hop(200'000, 1'000'000, 1'000'000), 1_ms));
  cc.on_ack(ack_with_int(hop(200'000, 1'112'500, 1'030'000), Time::milliseconds(1.03)));
  EXPECT_LT(cc.cwnd_bytes(), before / 2);
  EXPECT_GT(cc.last_utilization(), 2.0);
}

TEST(HpccCc, LowUtilizationGrowsWindowMultiplicatively) {
  HpccCc cc{config()};
  // Idle-ish link: tiny queue, ~half line rate.
  cc.on_ack(ack_with_int(hop(0, 1'000'000, 1'000'000), 1_ms));
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack_with_int(hop(0, 1'018'750, 1'030'000), Time::milliseconds(1.03)));
  // U ~ 0.5 -> target ~ Wc * 0.95/0.5 ~ 1.9x, clamped by max_cwnd.
  EXPECT_GT(cc.cwnd_bytes(), before);
  EXPECT_NEAR(cc.last_utilization(), 0.5, 0.05);
}

TEST(HpccCc, WindowClampedAtMax) {
  HpccConfig cfg = config();
  cfg.max_cwnd_segments = 16.0;
  HpccCc cc{cfg};
  cc.on_ack(ack_with_int(hop(0, 1'000'000, 1'000'000), 1_ms));
  for (int i = 0; i < 20; ++i) {
    // Persistently near-idle: multiplicative growth would explode.
    cc.on_ack(ack_with_int(hop(0, 1'000'000 + i * 100, 1'030'000 + i * 30'000),
                           1_ms + Time::microseconds(30.0 * (i + 1))));
  }
  EXPECT_LE(cc.cwnd_bytes(), 16 * kMss);
}

TEST(HpccCc, AppLimitedAcksNeverGrowTheWindow) {
  HpccCc cc{config()};
  cc.on_ack(ack_with_int(hop(0, 1'000'000, 1'000'000), 1_ms));
  const std::int64_t before = cc.cwnd_bytes();
  // Near-idle link but the flow has nothing to send: growth suppressed.
  cc.on_ack(ack_with_int(hop(0, 1'000'200, 1'030'000), Time::milliseconds(1.03),
                         /*app_limited=*/true));
  EXPECT_LE(cc.cwnd_bytes(), before);
}

TEST(HpccCc, WindowCanFallBelowOneMss) {
  HpccCc cc{config()};
  Time now = 1_ms;
  std::int64_t tx = 1'000'000;
  cc.on_ack(ack_with_int(hop(500'000, tx, now.ns()), now));
  for (int i = 0; i < 30; ++i) {
    now += 30_us;
    tx += 37'500;  // line rate
    cc.on_ack(ack_with_int(hop(500'000, tx, now.ns()), now));
  }
  EXPECT_LT(cc.cwnd_bytes(), kMss);
  EXPECT_GE(cc.cwnd_bytes(), static_cast<std::int64_t>(0.01 * kMss) - 1);
}

// --- End to end ----------------------------------------------------------------

TEST(HpccEndToEnd, SingleFlowNearLineRateWithEmptyQueue) {
  sim::Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};
  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kHpcc;
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
  const std::int64_t total = 20'000'000;
  conn.sender().add_app_data(total);
  Time done;
  conn.sender().set_on_all_acked([&] { done = sim.now(); });
  sim.run_until(10_s);

  ASSERT_TRUE(conn.sender().all_acked());
  const double gbps = static_cast<double>(total) * 8.0 / done.sec() * 1e-9;
  // HPCC's headline: ~95% utilization with a near-empty queue.
  EXPECT_GT(gbps, 8.5);
  EXPECT_LE(topo.bottleneck_queue().take_watermark(), 30);
  EXPECT_EQ(topo.bottleneck_queue().stats().dropped_packets, 0);
}

TEST(HpccEndToEnd, ModestIncastConvergesWithoutLoss) {
  // 50 flows, sustained: HPCC shares the link losslessly with a bounded
  // queue (far below what DCTCP's 1-MSS floor would pin).
  sim::Simulator sim;
  const int flows = 50;
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = flows;
  net::Dumbbell topo{sim, topo_cfg};
  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kHpcc;
  cfg.rtt.min_rto = 200_ms;

  std::vector<std::unique_ptr<TcpConnection>> conns;
  sim::Rng rng{9};
  for (int i = 0; i < flows; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(sim, topo.sender(i), topo.receiver(0),
                                                    static_cast<net::FlowId>(i + 1), cfg));
    TcpSender* s = &conns.back()->sender();
    sim.schedule_in(rng.uniform_time(Time::zero(), 2_ms),
                    [s] { s->add_app_data(30'000'000); });
  }
  sim.run_until(100_ms);
  const auto converged_drops = topo.bottleneck_queue().stats().dropped_packets;
  (void)topo.bottleneck_queue().take_watermark();
  sim.run_until(200_ms);

  EXPECT_EQ(topo.bottleneck_queue().stats().dropped_packets, converged_drops);
  EXPECT_LT(topo.bottleneck_queue().take_watermark(), 400);
}

TEST(HpccEndToEnd, FactoryRequiresNothingSpecial) {
  CcConfig cc_config;
  const auto cc = make_congestion_control(CcAlgorithm::kHpcc, cc_config, kMss);
  EXPECT_EQ(cc->name(), "hpcc");
  EXPECT_STREQ(to_string(CcAlgorithm::kHpcc), "hpcc");
}

}  // namespace
}  // namespace incast::tcp
