#include "core/incast_experiment.h"

#include <algorithm>
#include <memory>
#include <string>

#include "core/resilience_experiment.h"
#include "core/run_harness.h"

namespace incast::core {

namespace {

// The counters a cyclic incast reports over its measured window: sender and
// bottleneck-queue totals read when the window opens and at the end; the
// result holds the difference.
using R = CyclicIncastResult;
constexpr std::int64_t R::*kWindowCounters[] = {
    &R::timeouts,    &R::fast_retransmits, &R::retransmitted_packets, &R::data_packets_sent,
    &R::queue_drops, &R::queue_ecn_marks,  &R::queue_enqueues};

CyclicIncastResult read_counters(const std::vector<tcp::TcpSender*>& senders,
                                 const net::DropTailQueue& bottleneck) {
  CyclicIncastResult c;
  for (const tcp::TcpSender* s : senders) {
    c.timeouts += s->stats().timeouts;
    c.fast_retransmits += s->stats().fast_retransmits;
    c.retransmitted_packets += s->stats().retransmitted_packets;
    c.data_packets_sent += s->stats().data_packets_sent;
  }
  c.queue_drops = bottleneck.stats().dropped_packets;
  c.queue_ecn_marks = bottleneck.stats().ecn_marked_packets;
  c.queue_enqueues = bottleneck.stats().enqueued_packets;
  return c;
}

// Calls visit(sample, burst) for the bottleneck-queue samples of each
// measured burst: from the burst's start for as long as inside(sample,
// burst) holds. The series is time-ordered, so one cursor walks it.
template <typename Inside, typename Visit>
void for_each_burst_sample(const CyclicIncastResult& result, std::size_t first_measured,
                           Inside inside, Visit visit) {
  const auto& series = result.queue_series;
  std::size_t cursor = 0;
  for (std::size_t b = first_measured; b < result.bursts.size(); ++b) {
    const auto& burst = result.bursts[b];
    while (cursor < series.size() && series[cursor].at < burst.started) ++cursor;
    for (std::size_t i = cursor; i < series.size() && inside(series[i], burst); ++i) {
      visit(series[i], burst);
    }
  }
}

// The Section 4 dumbbell: faults on its core link (flaps blackhole both
// directions), the Figure 5/6 queue-vs-offset series, the Section 4.3 cwnd
// census and the Figure 7 in-flight sampler.
class DumbbellIncast final : public IncastTopology {
 public:
  DumbbellIncast(sim::Simulator& sim, const IncastExperimentConfig& config,
                 IncastExperimentResult& result)
      : sim_{sim}, config_{config}, result_{result}, dumbbell_{sim, topology(config)} {}

  Network network() override {
    return {&dumbbell_, dumbbell_.switches(),
            workload::dumbbell_endpoints(dumbbell_, config_.num_flows),
            "tor_r->" + dumbbell_.receiver(0).name(), &dumbbell_.bottleneck_queue()};
  }

  [[nodiscard]] bool has_faults() const override { return config_.faults.enabled(); }

  void install_faults(fault::FaultInjector& injector) override {
    const FaultProfile& faults = config_.faults;
    fault::LinkFault& fwd = injector.install(dumbbell_.link("tor_s->tor_r"), faults.forward);
    fault::LinkFault& rev = injector.install(dumbbell_.link("tor_r->tor_s"), faults.reverse);
    for (const NamedLinkFault& nf : faults.links) {
      if (nf.config.any_enabled()) injector.install(dumbbell_.link(nf.link), nf.config);
    }
    for (const fault::FlapWindow& w : faults.flaps) {
      injector.schedule_flap(fwd, w.down_at, w.duration);
      injector.schedule_flap(rev, w.down_at, w.duration);
    }
  }

  void start_flow_samplers(const std::vector<tcp::TcpSender*>& senders) override {
    if (config_.inflight_sample_every <= sim::Time::zero()) return;
    inflight_ = std::make_unique<telemetry::InflightSampler>(sim_, senders,
                                                             config_.inflight_sample_every);
    inflight_->start(config_.max_sim_time);
  }

  void on_measured_burst(const std::vector<tcp::TcpSender*>& senders) override {
    double total_mss = 0.0;
    double max_mss = 0.0;
    const auto mss = static_cast<double>(config_.tcp.mss_bytes);
    for (const tcp::TcpSender* s : senders) {
      const double w = static_cast<double>(s->effective_cwnd()) / mss;
      total_mss += w;
      max_mss = std::max(max_mss, w);
    }
    cwnd_mean_accum_ += total_mss / static_cast<double>(senders.size());
    cwnd_max_accum_ += max_mss;
    ++measured_completions_;
  }

  // The Figure 5/6 window of every burst ends at the longest BCT, so a
  // sample exactly at that instant is outside it.
  [[nodiscard]] sim::Time in_burst_horizon(sim::Time longest) const override {
    return longest;
  }

  void finish(const telemetry::QueueMonitor& bottleneck,
              const fault::FaultInjector* injector) override {
    result_.queue_offset_step = config_.queue_sample_every;
    result_.congestion_drops_by_window = bottleneck.drops_at_window_end();
    result_.injected_drops_by_window = bottleneck.injected_drops_at_window_end();
    if (injector != nullptr) {
      const fault::FaultCounters faults = injector->total();
      result_.injected_flap_drops = faults.flap_drops;
      result_.injected_corruptions = faults.corrupted;
      result_.injected_duplicates = faults.duplicated;
      result_.injected_reorders = faults.reordered;
      for (int i = 0; i < dumbbell_.num_receivers(); ++i) {
        result_.corrupt_nic_drops += dumbbell_.receiver(i).corrupt_dropped_packets();
      }
      for (int i = 0; i < dumbbell_.num_senders(); ++i) {
        result_.corrupt_nic_drops += dumbbell_.sender(i).corrupt_dropped_packets();
      }
    }
    if (measured_completions_ > 0) {
      result_.end_of_burst_cwnd_mean_mss =
          cwnd_mean_accum_ / static_cast<double>(measured_completions_);
      result_.end_of_burst_cwnd_max_mss =
          cwnd_max_accum_ / static_cast<double>(measured_completions_);
    }
    store_queue_by_offset();
    if (inflight_) result_.inflight = inflight_->snapshots();
  }

 private:
  static net::DumbbellConfig topology(const IncastExperimentConfig& config) {
    net::DumbbellConfig topo = config.topology;
    topo.num_senders = config.num_flows;
    topo.num_receivers = std::max(topo.num_receivers, 1);
    return topo;
  }

  // Queue depth by offset from burst start, averaged over measured bursts,
  // out to the longest BCT.
  void store_queue_by_offset() {
    const auto first_measured = static_cast<std::size_t>(config_.discard_bursts);
    if (result_.bursts.size() <= first_measured) return;
    const sim::Time window = burst_completion(result_.bursts, first_measured).longest;
    const std::int64_t step = config_.queue_sample_every.ns();
    const auto offsets = static_cast<std::size_t>(window.ns() / step) + 1;
    std::vector<double> sums(offsets, 0.0);
    std::vector<int> counts(offsets, 0);
    for_each_burst_sample(
        result_, first_measured,
        [&](const auto& s, const auto& burst) { return s.at < burst.started + window; },
        [&](const auto& s, const auto& burst) {
          const auto offset = static_cast<std::size_t>((s.at - burst.started).ns() / step);
          sums[offset] += static_cast<double>(s.packets);
          ++counts[offset];
        });
    result_.mean_queue_by_offset.resize(offsets, 0.0);
    for (std::size_t i = 0; i < offsets; ++i) {
      if (counts[i] > 0) result_.mean_queue_by_offset[i] = sums[i] / counts[i];
    }
  }

  sim::Simulator& sim_;
  const IncastExperimentConfig& config_;
  IncastExperimentResult& result_;
  net::Dumbbell dumbbell_;
  std::unique_ptr<telemetry::InflightSampler> inflight_;
  double cwnd_mean_accum_{0.0};
  double cwnd_max_accum_{0.0};
  int measured_completions_{0};
};

}  // namespace

void run_cyclic_incast(const CyclicIncastSettings& settings,
                       const IncastTopologyFactory& make_topology, CyclicIncastResult& result) {
  sim::Simulator sim;
  RunHarness harness{sim, settings.hub, settings, settings, settings.seed};
  const std::unique_ptr<IncastTopology> topology = make_topology(sim);
  const IncastTopology::Network net = topology->network();

  workload::CyclicIncastDriver::Config driver_cfg;
  driver_cfg.num_flows = settings.num_flows;
  driver_cfg.num_bursts = settings.num_bursts;
  driver_cfg.burst_duration = settings.burst_duration;
  driver_cfg.inter_burst_gap = settings.inter_burst_gap;
  driver_cfg.schedule = settings.schedule;
  workload::CyclicIncastDriver driver{sim, net.endpoints, settings.tcp, driver_cfg,
                                      settings.seed};

  std::unique_ptr<fault::FaultInjector> injector;
  if (topology->has_faults()) {
    // Salted so the fault stream is independent of the workload's jitter
    // stream even though both derive from the seed.
    injector =
        std::make_unique<fault::FaultInjector>(sim, settings.seed ^ 0x9E3779B97F4A7C15ULL);
    topology->install_faults(*injector);
  }
  topology->start_vantages();

  // Experiment-scope observability: fault totals here; the bottleneck
  // link's trace label and queue counters come with its monitor below.
  ExperimentObserver& observer = harness.observer();
  if (injector) observer.watch_faults(*injector);

  telemetry::QueueMonitor::Config qcfg;
  qcfg.sample_every = settings.queue_sample_every;
  qcfg.watermark_window = sim::Time::milliseconds(1);
  qcfg.trace_label = harness.observe_bottleneck(*net.links, net.bottleneck_link);
  telemetry::QueueMonitor qmon{sim, *net.bottleneck, qcfg};
  if (injector) {
    qmon.set_injected_drop_source(
        [inj = injector.get()] { return inj->total().injected_drops(); });
  }
  qmon.start(settings.max_sim_time);

  const std::vector<tcp::TcpSender*> senders = driver.senders();
  topology->start_flow_samplers(senders);

  // Counter snapshots frame the measured window: taken when the last
  // discarded burst completes (flows are idle between bursts, so the
  // boundary is clean), or at t=0 when nothing is discarded.
  CyclicIncastResult at_start = read_counters(senders, *net.bottleneck);
  driver.set_on_burst_complete([&](int index) {
    if (index == settings.discard_bursts - 1) at_start = read_counters(senders, *net.bottleneck);
    if (index >= settings.discard_bursts) topology->on_measured_burst(senders);
    if (driver.finished()) sim.stop();
  });

  driver.start();
  sim.run_until(settings.max_sim_time);

  harness.teardown(*net.links, net.switches).store(result);
  result.bursts = driver.bursts();
  result.queue_series = qmon.samples();
  result.events_processed = sim.events_processed();
  result.events_by_category = sim.events_by_category();
  result.peak_events_pending = sim.peak_events_pending();
  result.slab_high_water = sim.slab_high_water();
  if (injector) result.injected_drops = injector->total().injected_drops();
  const CyclicIncastResult at_end = read_counters(senders, *net.bottleneck);
  for (const auto c : kWindowCounters) result.*c = at_end.*c - at_start.*c;

  // Per-burst aggregates and in-burst queue statistics over measured bursts.
  const auto first_measured = static_cast<std::size_t>(settings.discard_bursts);
  const BurstCompletion bct = burst_completion(result.bursts, first_measured);
  result.avg_bct_ms = bct.avg_ms;
  result.max_bct_ms = bct.max_ms;
  if (result.bursts.size() > first_measured) {
    const sim::Time horizon = topology->in_burst_horizon(bct.longest);
    double in_burst_sum = 0.0;
    std::int64_t in_burst_samples = 0;
    std::int64_t peak = 0;
    for_each_burst_sample(
        result, first_measured,
        [&](const auto& s, const auto& burst) {
          return s.at <= burst.completed && s.at - burst.started < horizon;
        },
        [&](const auto& s, const auto&) {
          in_burst_sum += static_cast<double>(s.packets);
          ++in_burst_samples;
          peak = std::max(peak, s.packets);
        });
    if (in_burst_samples > 0) {
      result.avg_queue_packets = in_burst_sum / static_cast<double>(in_burst_samples);
    }
    result.peak_queue_packets = static_cast<double>(peak);
  }
  topology->finish(qmon, injector.get());

  // Close out the observed run while every metric source is still alive:
  // BCT histogram, mode classification, final registry snapshot.
  if (observer.active()) {
    observer.watch_int_overflows(result.int_hop_overflows);
    observer.finish(sim.now().ns(), bct.ms, to_string(classify_mode(result)));
  }
}

IncastExperimentResult run_incast_experiment(const IncastExperimentConfig& config) {
  IncastExperimentResult result;
  run_cyclic_incast(
      config,
      [&](sim::Simulator& sim) {
        // Capacity hint: each flow keeps a few timers armed plus its share
        // of packets in flight; the constant floor covers telemetry tickers
        // and the bottleneck queue's worth of delivery events.
        sim.reserve_events(static_cast<std::size_t>(config.num_flows) * 8 + 2048);
        return std::make_unique<DumbbellIncast>(sim, config, result);
      },
      result);
  return result;
}

}  // namespace incast::core
