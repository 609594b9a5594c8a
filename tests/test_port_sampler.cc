// Tests for PortSampler: switch-port telemetry binned exactly like the
// host-side Millisampler, so traces from different vantage points are
// directly comparable.
#include "telemetry/port_sampler.h"

#include <gtest/gtest.h>

#include <sstream>

#include "net/topology.h"
#include "telemetry/millisampler.h"
#include "telemetry/trace_io.h"

namespace incast::telemetry {
namespace {

using namespace incast::sim::literals;

class Sink final : public net::PacketHandler {
 public:
  void handle_packet(const net::Packet& p) override { packets.push_back(p); }
  std::vector<net::Packet> packets;
};

TEST(PortSampler, CountsTransmittedBytesPerBin) {
  sim::Simulator sim;
  net::Dumbbell d{sim, net::DumbbellConfig{.num_senders = 1}};

  PortSampler sampler{"tor_r->receiver0", Millisampler::Config{}};
  sampler.attach(d.link("tor_r->receiver0"));

  Sink sink;
  d.receiver(0).register_flow(1, &sink);
  // Three packets in bin 0, one ~2 ms later in bin 2.
  for (int i = 0; i < 3; ++i) {
    d.sender(0).send(
        d.sender(0).packets().acquire(
            net::make_data_packet(d.sender(0).id(), d.receiver(0).id(), 1, i * 1460, 1460)));
  }
  sim.schedule_in(2_ms, [&] {
    d.sender(0).send(
        d.sender(0).packets().acquire(
            net::make_data_packet(d.sender(0).id(), d.receiver(0).id(), 1, 3 * 1460, 1460)));
  });
  sim.run();
  // finalize keeps whole bins only; pad past the last packet so its bin
  // (index 2) is complete.
  sampler.finalize(sim.now() + 1_ms);

  ASSERT_EQ(sink.packets.size(), 4u);
  const std::int64_t wire_bytes = sink.packets[0].size_bytes;
  ASSERT_EQ(sampler.bins().size(), 3u);
  EXPECT_EQ(sampler.bins()[0].bytes, 3 * wire_bytes);
  EXPECT_EQ(sampler.bins()[1].bytes, 0);
  EXPECT_EQ(sampler.bins()[2].bytes, wire_bytes);
  EXPECT_EQ(sampler.bins()[0].active_flows, 1);
}

TEST(PortSampler, AdoptsThePortLineRate) {
  sim::Simulator sim;
  net::DumbbellConfig cfg;
  cfg.num_senders = 1;
  cfg.core_link = sim::Bandwidth::gigabits_per_second(100);
  net::Dumbbell d{sim, cfg};

  PortSampler sampler{"tor_s->tor_r", Millisampler::Config{}};
  sampler.attach(d.link("tor_s->tor_r"));
  EXPECT_EQ(sampler.sampler().config().line_rate.bps(),
            sim::Bandwidth::gigabits_per_second(100).bps());
}

TEST(PortSampler, TraceMatchesHostMillisamplerAtTheSamePoint) {
  // A PortSampler on the receiver downlink and a Millisampler on the
  // receiver host observe the same packet stream; their CSVs must agree
  // byte for byte (the port tap fires when serialization completes, the
  // host tap one propagation delay later — sub-bin, so bins align).
  sim::Simulator sim;
  net::Dumbbell d{sim, net::DumbbellConfig{.num_senders = 2}};

  PortSampler port_sampler{"tor_r->receiver0", Millisampler::Config{}};
  port_sampler.attach(d.link("tor_r->receiver0"));
  Millisampler host_sampler{Millisampler::Config{}};
  d.receiver(0).add_ingress_tap(&host_sampler);

  Sink sink;
  d.receiver(0).register_flow(1, &sink);
  d.receiver(0).register_flow(2, &sink);
  for (int i = 0; i < 20; ++i) {
    d.sender(0).send(
        d.sender(0).packets().acquire(
            net::make_data_packet(d.sender(0).id(), d.receiver(0).id(), 1, i * 1460, 1460)));
    d.sender(1).send(
        d.sender(1).packets().acquire(
            net::make_data_packet(d.sender(1).id(), d.receiver(0).id(), 2, i * 1460, 1460)));
  }
  sim.run();
  const sim::Time end = sim.now() + 1_ms;
  port_sampler.finalize(end);
  host_sampler.finalize(end);

  std::ostringstream port_csv, host_csv;
  write_bins_csv(port_sampler.bins(), port_csv);
  write_bins_csv(host_sampler.bins(), host_csv);
  EXPECT_EQ(port_csv.str(), host_csv.str());
  EXPECT_GT(port_sampler.bins().at(0).bytes, 0);
  EXPECT_EQ(port_sampler.bins().at(0).active_flows, 2);
}

}  // namespace
}  // namespace incast::telemetry
