// PFC lossless-Ethernet tests: LosslessInputQueue XOFF/XON hysteresis and
// headroom accounting, Port pause auto-expiry (the deadlock watchdog), the
// strict-priority control-frame path, and an end-to-end run where resume
// frames are lost on the wire yet the fabric never deadlocks.
#include <gtest/gtest.h>

#include <vector>

#include "net/host.h"
#include "net/node.h"
#include "net/pfc.h"
#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

using Action = LosslessInputQueue::Action;

LosslessInputQueue::Config small_pfc() {
  LosslessInputQueue::Config cfg;
  cfg.xoff_bytes = 10'000;
  cfg.xon_bytes = 6'000;
  cfg.headroom_bytes = 5'000;
  cfg.pause_ns = 100'000;
  return cfg;
}

TEST(PfcViq, ArrivalsBelowXoffAreSilent) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(4'000), Action::kNone);
  EXPECT_EQ(q.on_arrival(4'000), Action::kNone);
  EXPECT_EQ(q.bytes(), 8'000);
  EXPECT_FALSE(q.paused_upstream());
  EXPECT_EQ(q.stats().pause_frames, 0);
}

TEST(PfcViq, CrossingXoffPausesAndEveryFurtherArrivalRefreshes) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(9'000), Action::kNone);
  // This charge lands at 10'500 >= XOFF: pause.
  EXPECT_EQ(q.on_arrival(1'500), Action::kSendPause);
  EXPECT_TRUE(q.paused_upstream());
  // PFC quanta expire upstream, so every in-flight arrival at/above XOFF
  // re-arms the pause — a single stale frame must not be the only thing
  // holding the congestion tree up.
  EXPECT_EQ(q.on_arrival(1'500), Action::kSendPause);
  EXPECT_EQ(q.on_arrival(1'500), Action::kSendPause);
  EXPECT_EQ(q.stats().pause_frames, 3);
}

TEST(PfcViq, ResumeFiresOnceCrossingXon) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(12'000), Action::kSendPause);
  // Draining from 12'000: still above XON at 8'000, nothing yet.
  EXPECT_EQ(q.on_departure(4'000), Action::kNone);
  EXPECT_TRUE(q.paused_upstream());
  // Crossing below XON = 6'000: exactly one resume.
  EXPECT_EQ(q.on_departure(4'000), Action::kSendResume);
  EXPECT_FALSE(q.paused_upstream());
  EXPECT_EQ(q.on_departure(2'000), Action::kNone);
  EXPECT_EQ(q.stats().resume_frames, 1);
  // The hysteresis band re-arms: fill back up and it pauses again.
  EXPECT_EQ(q.on_arrival(9'000), Action::kSendPause);
  EXPECT_EQ(q.stats().pause_frames, 2);
}

TEST(PfcViq, HeadroomAbsorbsInFlightBytesAfterPause) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(10'000), Action::kSendPause);
  // Bytes already serialized upstream keep landing; headroom absorbs them
  // up to xoff + headroom = 15'000.
  EXPECT_EQ(q.on_arrival(5'000), Action::kSendPause);
  EXPECT_EQ(q.bytes(), 15'000);
  EXPECT_EQ(q.stats().overflow_dropped_packets, 0);
  EXPECT_EQ(q.stats().peak_bytes, 15'000);
}

TEST(PfcViq, HeadroomOverflowDropsWithoutCharging) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(15'000), Action::kSendPause);
  // Beyond xoff + headroom the lossless guarantee is broken: the packet is
  // dropped and NOT charged to the queue.
  EXPECT_EQ(q.on_arrival(1'500), Action::kDropOverflow);
  EXPECT_EQ(q.bytes(), 15'000);
  EXPECT_EQ(q.stats().overflow_dropped_packets, 1);
  EXPECT_EQ(q.stats().overflow_dropped_bytes, 1'500);
  // Draining afterwards still balances to zero: the drop never entered.
  EXPECT_EQ(q.on_departure(15'000), Action::kSendResume);
  EXPECT_EQ(q.bytes(), 0);
}

// ---------------------------------------------------------------------------
// Port-level pause behaviour.

class SinkNode final : public Node {
 public:
  using Node::Node;
  void receive(Packet* p, std::size_t) override {
    arrivals.push_back({sim_.now(), *p});
    packets_.release(p);
  }
  struct Arrival {
    Time at;
    Packet packet;
  };
  std::vector<Arrival> arrivals;
};

class SourceNode final : public Node {
 public:
  using Node::Node;
  void receive(Packet* p, std::size_t) override { packets_.release(p); }
};

struct PauseFixture {
  Simulator sim;
  SourceNode src{sim, 0, "src"};
  SinkNode dst{sim, 1, "dst"};

  // 10 Gbps, 1 us propagation: 1500 B serializes in 1.2 us.
  PauseFixture() {
    src.add_port(sim::Bandwidth::gigabits_per_second(10), 1_us,
                 DropTailQueue::Config{.capacity_packets = 100, .ecn_threshold_packets = 0});
    src.port(0).connect(dst, 0);
  }
};

TEST(PfcPort, PauseHoldsDataUntilAutoExpiry) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(50));
  f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  EXPECT_TRUE(f.src.port(0).pfc_paused());
  f.sim.run();
  // No resume frame ever arrived; the quantum expired on its own and the
  // packet went out at 50 us (+1.2 us serialization, +1 us propagation).
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(52.2));
  EXPECT_FALSE(f.src.port(0).pfc_paused());
  EXPECT_EQ(f.src.port(0).pause_count(), 1);
  EXPECT_EQ(f.src.port(0).paused_ns(), 50'000);
}

TEST(PfcPort, RepeatedPauseFramesExtendTheQuantum) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(20));
  // A refresh at t=10 us re-arms expiry to 10 + 20 = 30 us; the stale
  // expiry at 20 us must not resume the port early.
  f.sim.schedule_at(10_us, [&] { f.src.port(0).pause_for(Time::microseconds(20)); });
  f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(32.2));
  // One contiguous paused interval, even though two frames arrived.
  EXPECT_EQ(f.src.port(0).pause_count(), 1);
  EXPECT_EQ(f.src.port(0).paused_ns(), 30'000);
}

TEST(PfcPort, ResumeFrameLiftsPauseEarly) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(100));
  f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  f.sim.schedule_at(5_us, [&] { f.src.port(0).resume(); });
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(7.2));
  EXPECT_EQ(f.src.port(0).paused_ns(), 5'000);
}

TEST(PfcPort, ControlFramesBypassAPausedPort) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(100));
  f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  f.src.port(0).send_control(f.src.packets().acquire(make_resume_frame(0, 1)));
  f.sim.run_until(50_us);
  // The control frame went out despite the pause; the data did not.
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].packet.ctrl.type, CtrlType::kPfcResume);
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 2u);
  EXPECT_TRUE(f.dst.arrivals[1].packet.is_data());
}

// ---------------------------------------------------------------------------
// Deadlock watchdog: resume frames lost on the wire must degrade into
// shorter pauses, never a hang.

// Drops every PFC resume frame, passes everything else untouched.
class ResumeEater final : public LinkHook {
 public:
  Verdict on_transmit(const Packet& p, Time) override {
    if (p.ctrl.type == CtrlType::kPfcResume) {
      ++eaten;
      return {.drop = true};
    }
    return {};
  }
  std::int64_t eaten{0};
};

TEST(PfcPort, LostResumeFramesDoNotDeadlockTheFabric) {
  Simulator sim;
  net::DumbbellConfig cfg;
  cfg.num_senders = 8;
  cfg.pfc = LosslessInputQueue::Config{};
  // PFC backpressure, not tail drop, is the binding constraint.
  cfg.switch_queue.capacity_packets = 100'000;
  cfg.switch_queue.ecn_threshold_packets = 65;
  net::Dumbbell topo{sim, cfg};

  // Eat every resume frame the receiver ToR sends back up the core link.
  // The sender ToR's uplink then un-pauses only via quantum expiry.
  ResumeEater eater;
  topo.link("tor_r->tor_s").set_link_hook(&eater);

  tcp::TcpConfig tcp;
  tcp.cc = tcp::CcAlgorithm::kDcqcn;
  tcp.rtt.min_rto = 10_ms;
  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  for (int i = 0; i < 8; ++i) {
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        sim, topo.sender(i), topo.receiver(0), static_cast<FlowId>(i + 1), tcp));
    conns.back()->sender().add_app_data(500'000);
  }
  sim.run_until(5_s);

  // The incast congested the receiver ToR hard enough to pause upstream
  // and to strand at least one resume in the eater...
  EXPECT_GT(eater.eaten, 0);
  EXPECT_GT(topo.link("tor_s->tor_r").pause_count(), 0);
  // ...yet every transfer still completed: auto-expiry is the watchdog.
  for (const auto& c : conns) {
    EXPECT_TRUE(c->sender().all_acked());
    EXPECT_EQ(c->receiver().rcv_nxt(), 500'000);
  }
  // Nothing was dropped along the lossless path.
  for (net::Switch* sw : topo.switches()) {
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      EXPECT_EQ(sw->port(i).queue().stats().dropped_packets, 0);
    }
  }
}

}  // namespace
}  // namespace incast::net
