// Integration tests: full TCP transfers over the dumbbell topology.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::tcp {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

TcpConfig dctcp_config() {
  TcpConfig c;
  c.cc = CcAlgorithm::kDctcp;
  c.rtt.min_rto = 200_ms;
  return c;
}

struct TransferFixture {
  Simulator sim;
  net::DumbbellConfig topo_cfg;
  net::Dumbbell topo;

  explicit TransferFixture(int senders = 2)
      : topo_cfg{make_topo(senders)}, topo{sim, topo_cfg} {}

  static net::DumbbellConfig make_topo(int senders) {
    net::DumbbellConfig cfg;
    cfg.num_senders = senders;
    return cfg;
  }
};

TEST(TcpTransfer, SingleFlowDeliversAllBytesInOrder) {
  TransferFixture f;
  TcpConnection conn{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, dctcp_config()};

  const std::int64_t total = 1'000'000;
  conn.sender().add_app_data(total);
  f.sim.run();

  EXPECT_EQ(conn.receiver().rcv_nxt(), total);
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.sender().stats().timeouts, 0);
  EXPECT_EQ(conn.sender().stats().retransmitted_packets, 0);
}

// Every CCA sizes its window in the connection's segments: a 9000-B MSS
// starts at ten 9000-B segments, not ten 1460-B ones.
TEST(TcpTransfer, InitialWindowIsTenOfTheConnectionsSegments) {
  for (const CcAlgorithm cc : {CcAlgorithm::kReno, CcAlgorithm::kRenoEcn, CcAlgorithm::kDctcp,
                               CcAlgorithm::kCubic, CcAlgorithm::kSwift, CcAlgorithm::kHpcc,
                               CcAlgorithm::kDcqcn}) {
    TransferFixture f;
    TcpConfig c = dctcp_config();
    c.cc = cc;
    c.mss_bytes = 9000;
    TcpConnection conn{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, c};
    EXPECT_EQ(conn.sender().congestion_control().cwnd_bytes(), 10 * 9000) << to_string(cc);
  }
}

TEST(TcpTransfer, SingleFlowAchievesNearLineRate) {
  TransferFixture f;
  TcpConnection conn{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, dctcp_config()};

  // 10 MB at 10 Gbps is ~8 ms at line rate.
  const std::int64_t total = 10'000'000;
  Time done{};
  conn.sender().set_on_all_acked([&] { done = f.sim.now(); });
  conn.sender().add_app_data(total);
  f.sim.run();

  ASSERT_GT(done, Time::zero());
  const double goodput_gbps = static_cast<double>(total) * 8.0 / done.sec() * 1e-9;
  // Line rate is 10 Gbps; expect at least 80% after slow start.
  EXPECT_GT(goodput_gbps, 8.0);
  EXPECT_LE(goodput_gbps, 10.0);
}

TEST(TcpTransfer, RttEstimateMatchesPathRtt) {
  TransferFixture f;
  TcpConnection conn{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, dctcp_config()};
  conn.sender().add_app_data(200'000);
  f.sim.run();

  const Time base = f.topo.base_rtt(1500);
  ASSERT_TRUE(conn.sender().rtt_estimator().has_sample());
  const Time srtt = conn.sender().rtt_estimator().srtt();
  // Measured RTT includes queueing; it must be at least the base RTT and
  // within a small multiple of it for a single uncontended flow.
  EXPECT_GE(srtt, base * 0.9);
  EXPECT_LT(srtt, base * 10.0);
}

TEST(TcpTransfer, TwoFlowsShareFairly) {
  TransferFixture f{2};
  TcpConnection a{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, dctcp_config()};
  TcpConnection b{f.sim, f.topo.sender(1), f.topo.receiver(0), 2, dctcp_config()};

  const std::int64_t total = 5'000'000;
  a.sender().add_app_data(total);
  b.sender().add_app_data(total);
  f.sim.run_until(1_s);

  EXPECT_TRUE(a.sender().all_acked());
  EXPECT_TRUE(b.sender().all_acked());
  // Both finished; DCTCP kept the bottleneck queue controlled.
  EXPECT_EQ(a.receiver().rcv_nxt(), total);
  EXPECT_EQ(b.receiver().rcv_nxt(), total);
}

TEST(TcpTransfer, DctcpKeepsQueueNearMarkingThreshold) {
  TransferFixture f{4};
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(f.sim, f.topo.sender(i),
                                                    f.topo.receiver(0),
                                                    static_cast<net::FlowId>(i + 1),
                                                    dctcp_config()));
    conns.back()->sender().add_app_data(20'000'000);
  }
  // Let the flows reach steady state, then sample the bottleneck queue.
  std::vector<std::int64_t> depths;
  for (int i = 0; i < 400; ++i) {
    f.sim.schedule_at(5_ms + Time::microseconds(10.0 * i),
                      [&] { depths.push_back(f.topo.bottleneck_queue().packets()); });
  }
  f.sim.run_until(20_ms);

  double mean = 0.0;
  for (const auto d : depths) mean += static_cast<double>(d);
  mean /= static_cast<double>(depths.size());
  // K = 65 packets: the queue should oscillate in its vicinity, far from
  // both empty and capacity (1333).
  EXPECT_GT(mean, 5.0);
  EXPECT_LT(mean, 300.0);
  // And no drops: DCTCP controlled the queue.
  EXPECT_EQ(f.topo.bottleneck_queue().stats().dropped_packets, 0);
}

TEST(TcpTransfer, EcnMarkingProducesEceAcks) {
  TransferFixture f{4};
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(f.sim, f.topo.sender(i),
                                                    f.topo.receiver(0),
                                                    static_cast<net::FlowId>(i + 1),
                                                    dctcp_config()));
    conns.back()->sender().add_app_data(5'000'000);
  }
  f.sim.run_until(100_ms);
  std::int64_t ece = 0;
  for (const auto& c : conns) ece += c->sender().stats().ece_acks_received;
  EXPECT_GT(ece, 0);
  EXPECT_GT(f.topo.bottleneck_queue().stats().ecn_marked_packets, 0);
}

TEST(TcpTransfer, MultipleBurstsOnPersistentConnection) {
  TransferFixture f;
  TcpConnection conn{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, dctcp_config()};

  int completions = 0;
  conn.sender().set_on_all_acked([&] { ++completions; });

  conn.sender().add_app_data(100'000);
  f.sim.run();
  f.sim.schedule_in(5_ms, [&] { conn.sender().add_app_data(100'000); });
  f.sim.run();

  EXPECT_EQ(completions, 2);
  EXPECT_EQ(conn.receiver().rcv_nxt(), 200'000);
}

TEST(TcpTransfer, ByteConservation) {
  // Delivered bytes never exceed sent bytes; everything supplied is
  // eventually delivered exactly once (in-order rcv_nxt accounting).
  TransferFixture f{3};
  std::vector<std::unique_ptr<TcpConnection>> conns;
  const std::int64_t per_flow = 777'777;  // not MSS-aligned on purpose
  for (int i = 0; i < 3; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(f.sim, f.topo.sender(i),
                                                    f.topo.receiver(0),
                                                    static_cast<net::FlowId>(i + 1),
                                                    dctcp_config()));
    conns.back()->sender().add_app_data(per_flow);
  }
  f.sim.run();
  for (const auto& c : conns) {
    EXPECT_EQ(c->receiver().rcv_nxt(), per_flow);
    EXPECT_TRUE(c->sender().all_acked());
    EXPECT_GE(c->sender().stats().data_bytes_sent, per_flow);
  }
}

TEST(TcpTransfer, GuardrailCapsEffectiveWindow) {
  TransferFixture f;
  TcpConfig cfg = dctcp_config();
  cfg.cwnd_cap_bytes = 2 * cfg.mss_bytes;
  TcpConnection conn{f.sim, f.topo.sender(0), f.topo.receiver(0), 1, cfg};
  conn.sender().add_app_data(1'000'000);

  bool checked = false;
  f.sim.schedule_at(2_ms, [&] {
    EXPECT_LE(conn.sender().in_flight_bytes(), 2 * cfg.mss_bytes);
    EXPECT_LE(conn.sender().effective_cwnd(), 2 * cfg.mss_bytes);
    checked = true;
  });
  f.sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(conn.receiver().rcv_nxt(), 1'000'000);
}

}  // namespace
}  // namespace incast::tcp
