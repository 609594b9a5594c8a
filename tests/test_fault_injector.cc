// Tests for the fault-injection layer: determinism, Gilbert-Elliott burst
// loss, flap edge cases, and corruption accounting end to end.
#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"
#include "sim/random.h"
#include "tcp/tcp_connection.h"
#include "telemetry/millisampler.h"

namespace incast::fault {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

tcp::TcpConfig tcp_config(Time min_rto = 10_ms) {
  tcp::TcpConfig c;
  c.cc = tcp::CcAlgorithm::kReno;
  c.rtt.min_rto = min_rto;
  c.rtt.initial_rto = min_rto;
  return c;
}

// One TCP transfer over a dumbbell whose inter-ToR data direction carries
// the given faults. Returns the installed LinkFault for inspection.
struct FaultyRun {
  Simulator sim;
  net::Dumbbell topo;
  FaultInjector injector;
  LinkFault& fwd;
  tcp::TcpConnection conn;

  FaultyRun(const LinkFaultConfig& cfg, std::uint64_t seed)
      : topo{sim, net::DumbbellConfig{}},
        injector{sim, seed},
        fwd{injector.install(topo.link("tor_s->tor_r"), cfg)},
        conn{sim, topo.sender(0), topo.receiver(0), 1, tcp_config()} {}
};

TEST(FaultInjector, SameSeedSameTraceAndCounters) {
  const LinkFaultConfig cfg{.drop_rate = 2e-3, .corrupt_rate = 1e-3,
                            .duplicate_rate = 1e-3, .reorder_rate = 1e-3};
  auto run_once = [&cfg](std::uint64_t seed) {
    FaultyRun r{cfg, seed};
    r.conn.sender().add_app_data(3'000'000);
    r.sim.run_until(5_s);
    EXPECT_TRUE(r.conn.sender().all_acked());
    return std::tuple{r.fwd.trace(), r.fwd.counters().packets_seen,
                      r.sim.events_processed()};
  };

  const auto [trace_a, seen_a, events_a] = run_once(42);
  const auto [trace_b, seen_b, events_b] = run_once(42);
  EXPECT_FALSE(trace_a.empty());  // the faults actually fired
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(seen_a, seen_b);
  EXPECT_EQ(events_a, events_b);

  // A different seed damages different packets.
  const auto [trace_c, seen_c, events_c] = run_once(43);
  EXPECT_NE(trace_a, trace_c);
}

TEST(FaultInjector, RandomDropRateIsRoughlyHonored) {
  FaultyRun r{LinkFaultConfig{.drop_rate = 0.01}, 7};
  r.conn.sender().add_app_data(5'000'000);
  r.sim.run_until(10_s);

  EXPECT_TRUE(r.conn.sender().all_acked());
  const FaultCounters& c = r.fwd.counters();
  EXPECT_GT(c.packets_seen, 1'000);
  const double observed =
      static_cast<double>(c.random_drops) / static_cast<double>(c.packets_seen);
  EXPECT_GT(observed, 0.003);
  EXPECT_LT(observed, 0.03);
  // Only the configured fault type fired.
  EXPECT_EQ(c.burst_drops, 0);
  EXPECT_EQ(c.corrupted, 0);
  EXPECT_EQ(c.duplicated, 0);
  EXPECT_EQ(c.reordered, 0);
}

TEST(FaultInjector, GilbertElliottAlternatesDeterministically) {
  // p = r = 1 makes the chain flip state on every packet; drop_bad = 1 and
  // drop_good = 0 then drop exactly the packets seen in the bad state:
  // starting from good, packets 0, 2, 4, ... transition to bad and die.
  const LinkFaultConfig cfg{.ge_good_to_bad = 1.0, .ge_bad_to_good = 1.0,
                            .ge_drop_good = 0.0, .ge_drop_bad = 1.0};
  LinkFault link{cfg, sim::Rng{1}};

  const net::Packet p = net::make_data_packet(0, 1, 1, 0, 1000);
  std::vector<bool> dropped;
  for (int i = 0; i < 6; ++i) {
    dropped.push_back(link.on_transmit(p, Time::microseconds(i)).drop);
  }
  EXPECT_EQ(dropped, (std::vector<bool>{true, false, true, false, true, false}));
  EXPECT_EQ(link.counters().burst_drops, 3);
  // After an even number of transitions the chain is back in good state.
  EXPECT_FALSE(link.ge_in_bad_state());
}

TEST(FaultInjector, GilbertElliottProducesLossBursts) {
  // Sticky chain: rare entry into a very lossy bad state that persists for
  // ~10 packets. Loss must arrive in runs, not singletons.
  const LinkFaultConfig cfg{.ge_good_to_bad = 0.005, .ge_bad_to_good = 0.1,
                            .ge_drop_good = 0.0, .ge_drop_bad = 1.0};
  LinkFault link{cfg, sim::Rng{99}};

  const net::Packet p = net::make_data_packet(0, 1, 1, 0, 1000);
  int longest_run = 0;
  int run = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (link.on_transmit(p, Time::microseconds(i)).drop) {
      longest_run = std::max(longest_run, ++run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(link.counters().burst_drops, 100);
  EXPECT_GE(longest_run, 5);  // bursty, not i.i.d.
}

TEST(FaultInjector, DisabledFaultsConsumeNoRngDraws) {
  // Two configs that share a seed and an i.i.d. drop rate; one also has
  // corruption disabled-by-zero vs enabled. The drop decisions must be
  // identical: a disabled fault type draws nothing, and each type draws
  // only when its own gate is open.
  const net::Packet p = net::make_data_packet(0, 1, 1, 0, 1000);
  LinkFault plain{LinkFaultConfig{.drop_rate = 0.1}, sim::Rng{5}};
  LinkFault with_zero{LinkFaultConfig{.drop_rate = 0.1, .corrupt_rate = 0.0},
                      sim::Rng{5}};
  for (int i = 0; i < 1'000; ++i) {
    const Time t = Time::microseconds(i);
    EXPECT_EQ(plain.on_transmit(p, t).drop, with_zero.on_transmit(p, t).drop);
  }
  EXPECT_EQ(plain.counters().random_drops, with_zero.counters().random_drops);
}

TEST(FaultInjector, FlapBlackholesExactWindow) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{}};
  FaultInjector injector{sim, 3};
  LinkFault& fwd = injector.install(topo.link("tor_s->tor_r"), LinkFaultConfig{});
  injector.schedule_flap(fwd, 1_ms, 2_ms);

  // Probe the link state across the window boundaries.
  std::vector<std::pair<Time, bool>> observed;
  for (const Time t : {Time::microseconds(500), Time::microseconds(1'500),
                       Time::microseconds(2'999), Time::microseconds(3'500)}) {
    sim.schedule_at(t, [&observed, &fwd, t] { observed.emplace_back(t, fwd.link_up()); });
  }
  sim.run_until(10_ms);

  ASSERT_EQ(observed.size(), 4u);
  EXPECT_TRUE(observed[0].second);   // before the flap
  EXPECT_FALSE(observed[1].second);  // inside
  EXPECT_FALSE(observed[2].second);  // still inside
  EXPECT_TRUE(observed[3].second);   // restored
}

TEST(FaultInjector, OverlappingFlapsComposeAsUnion) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{}};
  FaultInjector injector{sim, 3};
  LinkFault& fwd = injector.install(topo.link("tor_s->tor_r"), LinkFaultConfig{});
  // [1, 4) and [2, 6): the link must stay down across the seam at 4 ms and
  // come back only at 6 ms.
  injector.schedule_flap(fwd, 1_ms, 3_ms);
  injector.schedule_flap(fwd, 2_ms, 4_ms);

  std::vector<bool> up;
  for (const Time t : {Time::microseconds(4'500), Time::microseconds(5'999),
                       Time::microseconds(6'500)}) {
    sim.schedule_at(t, [&up, &fwd] { up.push_back(fwd.link_up()); });
  }
  sim.run_until(10_ms);
  EXPECT_EQ(up, (std::vector<bool>{false, false, true}));
}

TEST(FaultInjector, ZeroDurationFlapIsIgnored) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{}};
  FaultInjector injector{sim, 3};
  LinkFault& fwd = injector.install(topo.link("tor_s->tor_r"), LinkFaultConfig{});
  injector.schedule_flap(fwd, 1_ms, Time::zero());
  injector.schedule_flap(fwd, 1_ms, Time::microseconds(-5));

  bool probed_up = false;
  sim.schedule_at(Time::microseconds(1'001), [&] { probed_up = fwd.link_up(); });
  sim.run_until(2_ms);
  EXPECT_TRUE(probed_up);
  EXPECT_EQ(fwd.counters().flap_drops, 0);
}

TEST(FaultInjector, FlapOutsideRunWindowHasNoEffect) {
  // A flap scheduled after the transfer finishes must not disturb it.
  FaultyRun r{LinkFaultConfig{}, 11};
  r.injector.schedule_flap(r.fwd, Time::seconds(60), 100_ms);
  r.conn.sender().add_app_data(1'000'000);
  r.sim.run_until(5_s);

  EXPECT_TRUE(r.conn.sender().all_acked());
  EXPECT_EQ(r.fwd.counters().flap_drops, 0);
  EXPECT_EQ(r.conn.sender().stats().timeouts, 0);
}

TEST(FaultInjector, FlapDropsConsumeNoRngDraws) {
  // Same seed, same packets: a run where a flap swallows a prefix of the
  // stream must make identical random-drop decisions on the packets after
  // the flap, because blackholed packets draw nothing.
  const net::Packet p = net::make_data_packet(0, 1, 1, 0, 1000);
  LinkFault flapped{LinkFaultConfig{.drop_rate = 0.1}, sim::Rng{5}};
  LinkFault plain{LinkFaultConfig{.drop_rate = 0.1}, sim::Rng{5}};

  flapped.begin_flap();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(flapped.on_transmit(p, Time::microseconds(i)).drop);
  }
  flapped.end_flap();
  EXPECT_EQ(flapped.counters().flap_drops, 100);

  for (int i = 0; i < 1'000; ++i) {
    const Time t = Time::microseconds(100 + i);
    EXPECT_EQ(flapped.on_transmit(p, t).drop, plain.on_transmit(p, t).drop);
  }
}

TEST(FaultInjector, CorruptedFramesDropAtNicAndShowInMillisampler) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{}};
  FaultInjector injector{sim, 21};
  LinkFault& fwd =
      injector.install(topo.link("tor_s->tor_r"), LinkFaultConfig{.corrupt_rate = 0.005});

  telemetry::Millisampler sampler{{}};
  topo.receiver(0).add_ingress_tap(&sampler);

  tcp::TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, tcp_config()};
  conn.sender().add_app_data(3'000'000);
  sim.run_until(5_s);
  sampler.finalize(sim.now());

  // Corruption fired, every mangled frame died at the receiver NIC, and the
  // transport still delivered everything via SACK/RTO recovery.
  EXPECT_TRUE(conn.sender().all_acked());
  const std::int64_t corrupted = fwd.counters().corrupted;
  EXPECT_GT(corrupted, 0);
  EXPECT_EQ(topo.receiver(0).corrupt_dropped_packets(), corrupted);
  EXPECT_GT(conn.sender().stats().retransmitted_packets, 0);

  // The rx_crc_errors analogue: corrupt bytes are visible in the host bins.
  std::int64_t corrupt_bytes = 0;
  for (const auto& bin : sampler.bins()) corrupt_bytes += bin.corrupt_bytes;
  EXPECT_GT(corrupt_bytes, 0);
}

TEST(FaultInjector, DuplicationAndReorderingDoNotBreakDelivery) {
  FaultyRun r{LinkFaultConfig{.duplicate_rate = 0.01, .reorder_rate = 0.01}, 17};
  r.conn.sender().add_app_data(3'000'000);
  r.sim.run_until(5_s);

  EXPECT_TRUE(r.conn.sender().all_acked());
  EXPECT_EQ(r.conn.receiver().rcv_nxt(), 3'000'000);
  EXPECT_GT(r.fwd.counters().duplicated, 0);
  EXPECT_GT(r.fwd.counters().reordered, 0);
  EXPECT_EQ(r.fwd.counters().injected_drops(), 0);
}

TEST(FaultInjector, PerLinkStreamsAreIndependent) {
  // Installing a second (unused) faulty link must not change the first
  // link's decisions: each install forks its own child stream.
  auto drops_on_fwd = [](bool install_reverse) {
    Simulator sim;
    net::Dumbbell topo{sim, net::DumbbellConfig{}};
    FaultInjector injector{sim, 77};
    LinkFault& fwd =
        injector.install(topo.link("tor_s->tor_r"), LinkFaultConfig{.drop_rate = 5e-3});
    if (install_reverse) {
      injector.install(topo.link("tor_r->tor_s"), LinkFaultConfig{.drop_rate = 5e-3});
    }
    tcp::TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, tcp_config()};
    conn.sender().add_app_data(2'000'000);
    sim.run_until(5_s);
    EXPECT_TRUE(conn.sender().all_acked());
    return fwd.trace();
  };

  const auto without = drops_on_fwd(false);
  const auto with = drops_on_fwd(true);
  EXPECT_FALSE(without.empty());
  // The forward link's fault sequence is identical even though the ACK path
  // now loses packets (which shifts *when* packets flow, so compare only
  // that the same prefix of per-packet decisions holds by uid).
  ASSERT_FALSE(with.empty());
  EXPECT_EQ(without.front().packet_uid, with.front().packet_uid);
}

}  // namespace
}  // namespace incast::fault
