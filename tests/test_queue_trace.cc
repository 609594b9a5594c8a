// The queue track of a labeled bottleneck: while the hub traces, every
// drop, ECN mark and trim the egress queue makes appears as exactly one
// "<label>.drop" / "<label>.ecn_mark" / "<label>.trim" instant, so the
// trace's instant counts equal the queue's own counters. Runs a tail-drop
// incast and a trimming one, each small enough to stay under the tracer's
// capacity (a full tracer would cut the counts short). A trim that cuts
// nothing is the one queue event with no instant.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/node.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "tcp/tcp_connection.h"

namespace incast::net {
namespace {

using namespace incast::sim::literals;

constexpr const char* kBottleneck = "tor_r->receiver0";

struct TracedIncast {
  std::map<std::string, std::int64_t> instants;  // queue-track instants by name
  DropTailQueue::Stats queue;                     // the bottleneck's counters
  std::uint64_t tracer_dropped{0};
};

// Runs a 12-flow DCTCP incast into a queue configured as `queue`, with
// the bottleneck labeled and the tracer on.
TracedIncast run_traced_incast(const DropTailQueue::Config& queue) {
  obs::Hub hub;
  hub.tracer().set_enabled(true);
  sim::Simulator sim;
  sim.set_hub(&hub);
  DumbbellConfig cfg;
  cfg.num_senders = 12;
  cfg.switch_queue = queue;
  Dumbbell topo{sim, cfg};
  topo.link(kBottleneck).set_trace_label(kBottleneck);

  tcp::TcpConfig tcp;
  tcp.cc = tcp::CcAlgorithm::kDctcp;
  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  for (int i = 0; i < cfg.num_senders; ++i) {
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        sim, topo.sender(i), topo.receiver(0), static_cast<FlowId>(i + 1), tcp));
    conns.back()->sender().add_app_data(200'000);
  }
  sim.run_until(100_ms);

  TracedIncast out;
  for (const obs::TraceEvent& ev : hub.tracer().events()) {
    if (ev.phase == obs::TraceEvent::Phase::kInstant && ev.tid == obs::kQueueTid) {
      ++out.instants[ev.name];
    }
  }
  out.queue = topo.bottleneck_queue().stats();
  out.tracer_dropped = hub.tracer().dropped();
  return out;
}

std::int64_t count(const TracedIncast& run, const std::string& suffix) {
  const auto it = run.instants.find(std::string{kBottleneck} + suffix);
  return it == run.instants.end() ? 0 : it->second;
}

TEST(QueueTrace, TailDropInstantsMatchTheQueueCounters) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  const TracedIncast run =
      run_traced_incast({.capacity_packets = 24, .ecn_threshold_packets = 8});
  ASSERT_EQ(run.tracer_dropped, 0u);
  // Both outcomes happened, so the equalities below are not vacuous.
  ASSERT_GT(run.queue.dropped_packets, 0);
  ASSERT_GT(run.queue.ecn_marked_packets, 0);
  EXPECT_EQ(count(run, ".drop"), run.queue.dropped_packets);
  EXPECT_EQ(count(run, ".ecn_mark"), run.queue.ecn_marked_packets);
  EXPECT_EQ(count(run, ".trim"), 0);
  EXPECT_EQ(run.queue.trimmed_packets, 0);
}

TEST(QueueTrace, TrimInstantsMatchTheQueueCounters) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  const TracedIncast run = run_traced_incast({.capacity_packets = 16,
                                              .ecn_threshold_packets = 8,
                                              .discipline = QueueDiscipline::kTrimming});
  ASSERT_EQ(run.tracer_dropped, 0u);
  ASSERT_GT(run.queue.trimmed_packets, 0);
  ASSERT_GT(run.queue.ecn_marked_packets, 0);
  // Every trimmed original is a full-sized segment, so every trim cut bytes
  // and emitted an instant.
  EXPECT_EQ(count(run, ".trim"), run.queue.trimmed_packets);
  EXPECT_EQ(count(run, ".ecn_mark"), run.queue.ecn_marked_packets);
  EXPECT_EQ(count(run, ".drop"), run.queue.dropped_packets);
}

// A trim of a header-sized original cuts nothing, so it emits no ".trim"
// instant, though the queue counts it as trimmed.
class Sink final : public Node {
 public:
  using Node::Node;
  void receive(Packet* p, std::size_t) override { packets_.release(p); }
};

TEST(QueueTrace, AHeaderSizedTrimEmitsNoInstant) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  obs::Hub hub;
  hub.tracer().set_enabled(true);
  sim::Simulator sim;
  sim.set_hub(&hub);
  Sink a{sim, 0, "a"};
  Sink b{sim, 1, "b"};
  const auto rate = sim::Bandwidth::gigabits_per_second(10);
  a.add_port(rate, 1_us, {.capacity_packets = 1,
                          .ecn_threshold_packets = 0,
                          .discipline = QueueDiscipline::kTrimming});
  b.add_port(rate, 1_us, {.capacity_packets = 1, .ecn_threshold_packets = 0});
  connect_duplex(a, 0, b, 0);
  Port& port = a.port(0);
  port.set_trace_label("a->b");

  // The first packet starts transmitting and the second fills the data
  // ring, so the next two are trimmed: a full segment, then a 60 B one.
  const auto send = [&](std::int64_t payload) {
    return port.send(a.packets().acquire(make_data_packet(0, 1, 1, 0, payload)));
  };
  EXPECT_EQ(send(1460).outcome, EnqueueVerdict::Outcome::kQueued);
  EXPECT_EQ(send(1460).outcome, EnqueueVerdict::Outcome::kQueued);
  const EnqueueVerdict cut = send(1460);
  EXPECT_EQ(cut.outcome, EnqueueVerdict::Outcome::kTrimmed);
  EXPECT_EQ(cut.shed_bytes, 1500 - DropTailQueue::kTrimmedHeaderBytes);
  const EnqueueVerdict uncut = send(20);
  EXPECT_EQ(uncut.outcome, EnqueueVerdict::Outcome::kTrimmed);
  EXPECT_EQ(uncut.shed_bytes, 0);
  sim.run();

  EXPECT_EQ(port.queue().stats().trimmed_packets, 2);
  std::int64_t trim_instants = 0;
  for (const obs::TraceEvent& ev : hub.tracer().events()) {
    if (ev.name == "a->b.trim") ++trim_instants;
  }
  EXPECT_EQ(trim_instants, 1);
}

}  // namespace
}  // namespace incast::net
