// Transport comparison: the same partition/aggregate queries over DCTCP
// and over the receiver-driven credit transport.
//
// Where `incast_sim run extension_credit` compares the transports on the
// paper's raw burst workload, this example asks the question an
// application owner would: what happens to MY query latency? A coordinator
// fans a query out to W workers (50 KB responses each) and waits for all
// of them; we sweep the fan-in past DCTCP's degenerate point and report
// per-query latency percentiles for both transports.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/cdf.h"
#include "core/report.h"
#include "net/topology.h"
#include "rdt/credit_transport.h"
#include "sim/random.h"
#include "tcp/tcp_connection.h"

namespace {

using namespace incast;
using namespace incast::sim::literals;

constexpr std::int64_t kResponseBytes = 50'000;
constexpr int kQueries = 20;

// ---- TCP flavour --------------------------------------------------------------

analysis::Cdf run_tcp(int workers) {
  sim::Simulator sim;
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = workers;
  net::Dumbbell topo{sim, topo_cfg};

  tcp::TcpConfig cfg;
  cfg.cc = tcp::CcAlgorithm::kDctcp;
  cfg.rtt.min_rto = 10_ms;  // datacenter-tuned

  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  std::int64_t outstanding = 0;
  sim::Time started;
  analysis::Cdf latencies;
  int remaining_queries = kQueries;
  sim::Rng rng{7};

  std::function<void()> issue = [&] {
    started = sim.now();
    outstanding = static_cast<std::int64_t>(workers) * kResponseBytes;
    for (auto& c : conns) {
      tcp::TcpSender* s = &c->sender();
      sim.schedule_in(rng.uniform_time(sim::Time::zero(), 100_us),
                      [s] { s->add_app_data(kResponseBytes); });
    }
  };

  for (int w = 0; w < workers; ++w) {
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        sim, topo.sender(w), topo.receiver(0), static_cast<net::FlowId>(w + 1), cfg));
    conns.back()->receiver().set_on_data([&](std::int64_t bytes) {
      outstanding -= bytes;
      if (outstanding > 0) return;
      latencies.add((sim.now() - started).ms());
      if (--remaining_queries > 0) {
        sim.schedule_in(5_ms, issue);
      } else {
        sim.stop();
      }
    });
  }

  issue();
  sim.run_until(120_s);
  return latencies;
}

// ---- Credit flavour ------------------------------------------------------------

analysis::Cdf run_credit(int workers) {
  sim::Simulator sim;
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = workers;
  topo_cfg.switch_queue.capacity_packets = 1'000'000;
  topo_cfg.switch_queue.capacity_bytes = 2'000'000;
  topo_cfg.switch_queue.ecn_threshold_packets = 0;
  net::Dumbbell topo{sim, topo_cfg};

  rdt::CreditReceiver receiver{sim, topo.receiver(0), {}};
  std::vector<std::unique_ptr<rdt::CreditSender>> senders;
  for (int w = 0; w < workers; ++w) {
    const auto flow = static_cast<net::FlowId>(w + 1);
    senders.push_back(std::make_unique<rdt::CreditSender>(
        sim, topo.sender(w), topo.receiver(0).id(), flow, rdt::CreditSender::Config{}));
    receiver.accept_flow(flow, topo.sender(w).id());
  }

  analysis::Cdf latencies;
  sim::Time started;
  int flows_done = 0;
  int remaining_queries = kQueries;
  sim::Rng rng{7};

  std::function<void()> issue = [&] {
    started = sim.now();
    flows_done = 0;
    for (auto& s : senders) {
      rdt::CreditSender* sender = s.get();
      sim.schedule_in(rng.uniform_time(sim::Time::zero(), 100_us),
                      [sender] { sender->add_app_data(kResponseBytes); });
    }
  };
  receiver.set_on_flow_complete([&](net::FlowId) {
    if (++flows_done < workers) return;
    latencies.add((sim.now() - started).ms());
    if (--remaining_queries > 0) {
      sim.schedule_in(5_ms, issue);
    } else {
      sim.stop();
    }
  });

  issue();
  sim.run_until(120_s);
  return latencies;
}

}  // namespace

int main() {
  std::printf("Partition/aggregate query latency: DCTCP vs receiver-driven credits\n");
  std::printf("(%d queries per point, 50 KB per worker, 10 ms min RTO for TCP)\n\n",
              kQueries);

  incast::core::Table t{{"workers", "transport", "p50 (ms)", "p99 (ms)", "max (ms)",
                         "ideal (ms)"}};
  for (const int workers : {64, 256, 1024}) {
    const double ideal_ms =
        static_cast<double>(workers) * kResponseBytes * 8.0 / 10e9 * 1e3;
    const auto tcp = run_tcp(workers);
    const auto credit = run_credit(workers);
    t.add_row({std::to_string(workers), "DCTCP", incast::core::fmt(tcp.percentile(50), 2),
               incast::core::fmt(tcp.percentile(99), 2), incast::core::fmt(tcp.max(), 2),
               incast::core::fmt(ideal_ms, 2)});
    t.add_row({std::to_string(workers), "credit",
               incast::core::fmt(credit.percentile(50), 2),
               incast::core::fmt(credit.percentile(99), 2),
               incast::core::fmt(credit.max(), 2), incast::core::fmt(ideal_ms, 2)});
  }
  t.print();

  std::printf("\nBoth transports track the ideal while the fan-in is manageable; past\n"
              "DCTCP's degenerate point the TCP tail detaches (loss recovery), while\n"
              "the credit transport stays glued to the ideal at any fan-in — the\n"
              "receiver simply never lets the volley exceed its own downlink.\n");
  return 0;
}
