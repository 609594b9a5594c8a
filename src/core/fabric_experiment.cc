#include "core/fabric_experiment.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/error.h"
#include "telemetry/port_sampler.h"

namespace incast::core {

double VantageTrace::peak_utilization() const {
  const std::int64_t per_bin = line_rate.bytes_in(sim::Time::milliseconds(1));
  if (per_bin <= 0) return 0.0;
  double peak = 0.0;
  for (const auto& b : bins) {
    peak = std::max(peak, static_cast<double>(b.bytes) / static_cast<double>(per_bin));
  }
  return peak;
}

std::int64_t VantageTrace::peak_queue_packets() const {
  std::int64_t peak = 0;
  for (const std::int64_t w : queue_watermarks) peak = std::max(peak, w);
  return peak;
}

namespace {

// Chooses the sender hosts: the receiver sits in slot 0 of the last leaf;
// senders fill the other leaves (cross-rack) or the first leaf alone
// (single-rack, the dumbbell's shape).
std::vector<int> place_senders(const fabric::FatTreeConfig& fab, int num_flows,
                               FabricIncastExperimentConfig::Placement placement,
                               int receiver_leaf) {
  const int num_leaves = fab.num_pods * fab.leaves_per_pod;
  if (num_leaves < 2) {
    throw Error{ErrorCategory::kConfig,
                "fabric incast needs at least 2 leaves (senders and receiver on "
                "different racks)"};
  }
  std::vector<int> senders;
  senders.reserve(static_cast<std::size_t>(num_flows));
  if (placement == FabricIncastExperimentConfig::Placement::kSingleRack) {
    if (num_flows > fab.hosts_per_leaf) {
      throw Error{ErrorCategory::kConfig,
                  "single-rack placement needs hosts_per_leaf >= flows (" +
                      std::to_string(num_flows) + " flows, " +
                      std::to_string(fab.hosts_per_leaf) + " hosts/leaf)"};
    }
    for (int i = 0; i < num_flows; ++i) senders.push_back(i);  // leaf 0, slots 0..n
    return senders;
  }
  std::vector<int> other_leaves;
  for (int gl = 0; gl < num_leaves; ++gl) {
    if (gl != receiver_leaf) other_leaves.push_back(gl);
  }
  const auto capacity =
      static_cast<std::int64_t>(other_leaves.size()) * fab.hosts_per_leaf;
  if (num_flows > capacity) {
    throw Error{ErrorCategory::kConfig, "fabric seats only " + std::to_string(capacity) +
                                            " cross-rack senders, " +
                                            std::to_string(num_flows) + " requested"};
  }
  for (int i = 0; i < num_flows; ++i) {
    const int gl = other_leaves[static_cast<std::size_t>(i) % other_leaves.size()];
    const int slot = i / static_cast<int>(other_leaves.size());
    senders.push_back(gl * fab.hosts_per_leaf + slot);
  }
  return senders;
}

// The fat-tree: named link faults, Millisampler vantages with per-hop
// watermarks, and the leaves' ECMP spread.
class FabricIncast final : public IncastTopology {
 public:
  FabricIncast(sim::Simulator& sim, const FabricIncastExperimentConfig& config,
               FabricIncastExperimentResult& result)
      : sim_{sim}, config_{config}, result_{result}, fabric_{sim, config.fabric} {
    receiver_leaf_ = fabric_.num_leaves() - 1;
    result_.receiver_host = receiver_leaf_ * config.fabric.hosts_per_leaf;  // slot 0
    result_.sender_hosts =
        place_senders(config.fabric, config.num_flows, config.placement, receiver_leaf_);
  }

  Network network() override {
    Network net{&fabric_, fabric_.switches(), {}, fabric_.downlink_name(receiver_host()),
                &fabric_.downlink_queue(receiver_host())};
    net.endpoints.senders.reserve(result_.sender_hosts.size());
    for (const int h : result_.sender_hosts) net.endpoints.senders.push_back(&fabric_.host(h));
    net.endpoints.receiver = &fabric_.host(receiver_host());
    net.endpoints.bottleneck = config_.fabric.host_link;
    return net;
  }

  [[nodiscard]] bool has_faults() const override {
    return std::any_of(config_.link_faults.begin(), config_.link_faults.end(),
                       [](const NamedLinkFault& f) { return f.config.any_enabled(); });
  }

  void install_faults(fault::FaultInjector& injector) override {
    for (const NamedLinkFault& nf : config_.link_faults) {
      if (nf.config.any_enabled()) injector.install(fabric_.link(nf.link), nf.config);
    }
  }

  // Vantage 1: the receiver host NIC (the paper's Millisampler). Vantage 2:
  // every leaf's uplink ports. Vantage 3: the spine-tier egress ports
  // descending toward the receiver leaf. Each in-network vantage pairs a
  // byte-count sampler with a watermark monitor on the same egress queue —
  // the hop's 1 ms peak depth.
  void start_vantages() override {
    fabric_.host(receiver_host()).add_ingress_tap(&host_sampler_);
    telemetry::QueueMonitor::Config wm_cfg;
    wm_cfg.sample_every = sim::Time::zero();
    wm_cfg.watermark_window = config_.telemetry_bin;
    const auto add_vantage = [&](const std::string& name, net::Port& port) {
      auto sampler = std::make_unique<telemetry::PortSampler>(name, sampler_config());
      sampler->attach(port);
      hop_samplers_.push_back(std::move(sampler));
      hop_monitors_.push_back(
          std::make_unique<telemetry::QueueMonitor>(sim_, port.queue(), wm_cfg));
    };
    for (int gl = 0; gl < fabric_.num_leaves(); ++gl) {
      const auto names = fabric_.leaf_uplink_names(gl);
      const auto ports = fabric_.leaf_uplink_ports(gl);
      for (std::size_t i = 0; i < names.size(); ++i) add_vantage(names[i], *ports[i]);
    }
    leaf_vantages_ = hop_samplers_.size();
    for (const std::string& name : fabric_.spine_egress_names_toward(receiver_leaf_)) {
      add_vantage(name, fabric_.link(name));
    }
    for (auto& m : hop_monitors_) m->start(config_.max_sim_time);
  }

  void finish(const telemetry::QueueMonitor& bottleneck,
              const fault::FaultInjector* /*injector*/) override {
    result_.mode = classify_mode(result_);

    // Vantage traces: host, then leaf uplinks, then spine tier. The host
    // vantage's queue is the receiver downlink — the bottleneck monitor.
    const sim::Time trace_end = sim_.now();
    host_sampler_.finalize(trace_end);
    result_.vantages.push_back(VantageTrace{"host", fabric_.host(receiver_host()).name(),
                                            config_.fabric.host_link, host_sampler_.bins(),
                                            bottleneck.watermarks()});
    for (std::size_t hop = 0; hop < hop_samplers_.size(); ++hop) {
      telemetry::PortSampler& s = *hop_samplers_[hop];
      s.finalize(trace_end);
      result_.vantages.push_back(VantageTrace{hop < leaf_vantages_ ? "leaf" : "spine",
                                              s.name(), s.sampler().config().line_rate,
                                              s.bins(), hop_monitors_[hop]->watermarks()});
    }

    result_.leaf_ecmp = leaf_ecmp_spread();
  }

 private:
  [[nodiscard]] int receiver_host() const { return result_.receiver_host; }

  // The ECMP spread, from the flow list: flow i (id i + 1) runs from
  // sender_hosts[i] to the receiver, its data climbing the sender's leaf
  // and its ACKs the receiver's. Each direction whose first hop is an ECMP
  // group counts at that leaf on the port route_port returns, which is the
  // port receive() forwards it on. The hash is symmetric in (src, dst), so
  // a leaf carrying both directions of a flow counts it once.
  [[nodiscard]] std::vector<FabricIncastExperimentResult::LeafEcmpSpread> leaf_ecmp_spread() {
    struct Crossing {
      int leaf;
      std::size_t port;
      net::NodeId lo;
      net::NodeId hi;
      net::FlowId flow;
      auto operator<=>(const Crossing&) const = default;
    };
    std::vector<Crossing> crossings;
    const net::NodeId receiver = fabric_.host(receiver_host()).id();
    for (std::size_t i = 0; i < result_.sender_hosts.size(); ++i) {
      const int sender_host = result_.sender_hosts[i];
      const net::NodeId sender = fabric_.host(sender_host).id();
      const auto flow = static_cast<net::FlowId>(i) + 1;
      const auto climb = [&](int host, net::NodeId src, net::NodeId dst) {
        const int gl = fabric_.leaf_of_host(host);
        const net::Switch& leaf = fabric_.leaf(gl);
        if (leaf.route_width(dst) < 2) return;
        crossings.push_back({gl, leaf.route_port(src, dst, flow).value(),
                             std::min(src, dst), std::max(src, dst), flow});
      };
      climb(sender_host, sender, receiver);
      climb(receiver_host(), receiver, sender);
    }
    std::sort(crossings.begin(), crossings.end());
    crossings.erase(std::unique(crossings.begin(), crossings.end()), crossings.end());

    std::vector<FabricIncastExperimentResult::LeafEcmpSpread> spreads;
    for (int gl = 0; gl < fabric_.num_leaves(); ++gl) {
      FabricIncastExperimentResult::LeafEcmpSpread spread;
      spread.global_leaf = gl;
      for (const std::size_t idx : fabric_.leaf_uplink_port_indices(gl)) {
        spread.flows_by_uplink.push_back(std::count_if(
            crossings.begin(), crossings.end(),
            [&](const Crossing& c) { return c.leaf == gl && c.port == idx; }));
      }
      spreads.push_back(std::move(spread));
    }
    return spreads;
  }

  [[nodiscard]] telemetry::Millisampler::Config sampler_config() const {
    telemetry::Millisampler::Config cfg;
    cfg.bin_duration = config_.telemetry_bin;
    cfg.line_rate = config_.fabric.host_link;
    return cfg;
  }

  sim::Simulator& sim_;
  const FabricIncastExperimentConfig& config_;
  FabricIncastExperimentResult& result_;
  fabric::FatTree fabric_;
  int receiver_leaf_{0};
  telemetry::Millisampler host_sampler_{sampler_config()};
  // Leaf uplinks first (the first leaf_vantages_), then the spine tier; one
  // watermark monitor per sampled hop, in the same order.
  std::vector<std::unique_ptr<telemetry::PortSampler>> hop_samplers_;
  std::vector<std::unique_ptr<telemetry::QueueMonitor>> hop_monitors_;
  std::size_t leaf_vantages_{0};
};

}  // namespace

FabricIncastExperimentResult run_fabric_incast_experiment(
    const FabricIncastExperimentConfig& config) {
  FabricIncastExperimentResult result;
  run_cyclic_incast(
      config,
      [&](sim::Simulator& sim) {
        // Capacity hint: per-flow timers plus in-flight packets across the
        // fabric's extra hops (each hop adds serialization + propagation
        // events).
        sim.reserve_events(static_cast<std::size_t>(config.num_flows) * 16 + 4096);
        return std::make_unique<FabricIncast>(sim, config, result);
      },
      result);
  return result;
}

FabricIncastExperimentConfig dumbbell_equivalent_config(
    const IncastExperimentConfig& base) {
  FabricIncastExperimentConfig cfg;
  static_cast<CyclicIncastSettings&>(cfg) = base;
  cfg.placement = FabricIncastExperimentConfig::Placement::kSingleRack;
  cfg.fabric.num_pods = 1;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = base.num_flows;
  cfg.fabric.aggs_per_pod = 0;
  cfg.fabric.num_spines = 1;
  cfg.fabric.host_link = base.topology.host_link;
  cfg.fabric.leaf_uplink = base.topology.core_link;
  cfg.fabric.link_delay = base.topology.link_delay;
  cfg.fabric.switch_queue = base.topology.switch_queue;
  cfg.fabric.host_queue = base.topology.host_queue;
  cfg.fabric.shared_buffer = base.topology.shared_buffer;
  return cfg;
}

}  // namespace incast::core
