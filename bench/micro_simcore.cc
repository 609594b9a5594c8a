// M1 — microbenchmarks of the simulator core (google-benchmark).
//
// These do not reproduce a paper figure; they characterize the substrate's
// raw speed so users can budget experiment sizes: event queue throughput,
// RNG draws, queue operations, and end-to-end packets/second through the
// dumbbell with a real TCP flow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/fabric_experiment.h"
#include "core/fleet_experiment.h"
#include "core/incast_experiment.h"
#include "core/scaling_experiment.h"
#include "sim/domain.h"
#include "net/packet_pool.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "sim/auditor.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "tcp/tcp_connection.h"
#include "workload/service_profile.h"

// Every global heap allocation in this binary bumps this counter, letting
// the dispatch benchmark assert the kernel's zero-allocation steady-state
// contract instead of just timing it. The replacement operators must live at
// global scope; array and nothrow forms route through these by default.
std::atomic<std::uint64_t> g_heap_allocs{0};

// Every replacement is kept out of line: inlined into one caller, a
// malloc() and the free() that releases it would meet, and GCC's
// -Wmismatched-new-delete would take them for a new/free mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size ? size : 1) != 0) throw std::bad_alloc{};
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace incast;
using namespace incast::sim::literals;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(sim::Time::nanoseconds(t + (i * 37) % 1000), [] {});
    }
    while (!q.empty()) {
      q.pop([](sim::Time) { return true; },
            [](sim::Time at, sim::EventCategory, auto&&) { benchmark::DoNotOptimize(at); });
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

// Self-rescheduling plain functor for BM_SimulatorEventDispatch: a 16-byte
// capture, well under the kernel's inline budget.
struct Tick {
  sim::Simulator* sim;
  int* count;
  void operator()() const {
    if (++*count < 10'000) {
      sim->schedule_in(sim::Time::nanoseconds(100), Tick{sim, count});
    }
  }
};

void BM_SimulatorEventDispatch(benchmark::State& state) {
  // 10k chained timer events through the full kernel hot path. Beyond
  // timing, this asserts the zero-allocation contract: after a short
  // warm-up lets the heap and slab reach working depth, the remaining
  // ~9900 events must not touch the global heap at all.
  std::uint64_t steady_allocs = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    sim.schedule_in(100_ns, Tick{&sim, &count});
    sim.run_until(sim::Time::microseconds(10));  // warm-up: ~100 events
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    sim.run();
    steady_allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
  state.counters["steady_allocs"] = static_cast<double>(steady_allocs);
  if (steady_allocs != 0) {
    state.SkipWithError("steady-state dispatch allocated on the heap");
  }
}
BENCHMARK(BM_SimulatorEventDispatch);

// Owner of BM_DelayLineDispatch's line entries: each arrival files the
// next, as back-to-back packets keep a link busy.
struct LineHop {
  sim::Simulator* sim;
  sim::DelayLine line;
  std::int64_t hops{0};

  static void fire(void* owner, void* item) {
    auto* hop = static_cast<LineHop*>(owner);
    ++hop->hops;
    hop->sim->schedule_on(hop->line, owner, item);
  }
};

void BM_DelayLineDispatch(benchmark::State& state) {
  // Propagation arrivals through the full kernel hot path: 64 entries in
  // flight on one 1 us delay line, each filed again as it fires. Beyond
  // timing, this asserts the zero-allocation contract for lines: once the
  // ring has reached working depth, filing and dispatch must not touch the
  // global heap.
  sim::Simulator sim;
  LineHop hop{&sim, sim.delay_line(1_us, &LineHop::fire, sim::EventCategory::kNet)};
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(sim::Time::nanoseconds(15 * i),
                    [&sim, &hop] { sim.schedule_on(hop.line, &hop, nullptr); });
  }
  sim.run_until(10_us);  // warm-up: the ring reaches its working depth
  std::uint64_t steady_allocs = 0;
  const std::int64_t hops_before = hop.hops;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    sim.run_until(sim.now() + 10_us);
    steady_allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  benchmark::DoNotOptimize(hop.hops);
  state.SetItemsProcessed(hop.hops - hops_before);
  state.counters["steady_allocs"] = static_cast<double>(steady_allocs);
  if (steady_allocs != 0) {
    state.SkipWithError("steady-state line dispatch allocated on the heap");
  }
}
BENCHMARK(BM_DelayLineDispatch);

// Owner of BM_EventQueueCancelHeavy's retransmission timer.
struct RtoOwner {
  void fire() { ++fired; }
  std::int64_t fired{0};
};

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The TCP RTO pattern: every ACK disarms the retransmission timer and
  // re-arms it further out, so almost no arm ever fires. The timer keeps
  // one heap entry throughout: a later re-arm only moves its expiry, and
  // the entry is re-filed once when it surfaces before that expiry.
  sim::Simulator sim;
  sim.reserve_events(128);
  RtoOwner owner;
  sim::Timer rto{sim, &owner, sim::Timer::method<&RtoOwner::fire>};
  for (auto _ : state) {
    const sim::Time base = sim.now();
    for (int i = 0; i < 64; ++i) {
      rto.disarm();
      rto.arm_at(base + sim::Time::nanoseconds(1'000'000 + i));
      sim.schedule_at(base + sim::Time::nanoseconds(i), [] {});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(owner.fired);
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// The degree-2000 scaling rung's measured heap shape: a hold model of 50
// near events doing the work while 3,600 RTO timers sit parked 200 ms out,
// one of them pushed back (re-armed) per event, as an ACK does. Parked
// entries only surface when their 200 ms elapse, so the near events should
// pay for a heap of ~50 entries, not ~3,650. Informational: no baseline row.
class ParkedTimerHold {
 public:
  static constexpr int kNearEvents = 50;
  static constexpr int kParkedTimers = 3600;

  ParkedTimerHold() {
    sim_.reserve_events(kNearEvents + kParkedTimers);
    for (int i = 0; i < kParkedTimers; ++i) {
      timers_.push_back(std::make_unique<sim::Timer>(sim_, &owner_,
                                                     sim::Timer::method<&RtoOwner::fire>));
      timers_.back()->arm_in(200_ms);
    }
    for (int i = 0; i < kNearEvents; ++i) sim_.schedule_in(next_delay(), Step{this});
  }

  sim::Simulator& sim() { return sim_; }
  [[nodiscard]] std::int64_t timers_fired() const { return owner_.fired; }

 private:
  struct Step {
    ParkedTimerHold* hold;
    void operator()() const { hold->step(); }
  };

  void step() {
    sim_.schedule_in(next_delay(), Step{this});
    timers_[next_timer_]->arm_in(200_ms);
    next_timer_ = (next_timer_ + 1) % timers_.size();
  }

  // Uniform in [0, 200) us from a 64-bit LCG: each event advances the clock
  // by ~2 us, so a timer is pushed back every ~7 ms.
  sim::Time next_delay() {
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return sim::Time::nanoseconds(static_cast<std::int64_t>((lcg_ >> 33) % 200'000));
  }

  sim::Simulator sim_;
  RtoOwner owner_;
  std::vector<std::unique_ptr<sim::Timer>> timers_;
  std::size_t next_timer_{0};
  std::uint64_t lcg_{1};
};

void BM_EventQueueHoldWithParkedTimers(benchmark::State& state) {
  ParkedTimerHold hold;
  sim::Simulator& sim = hold.sim();
  sim.run_until(300_ms);  // warm-up: every parked entry surfaces and re-files once
  const std::uint64_t before = sim.events_processed();
  for (auto _ : state) sim.run_until(sim.now() + 1_ms);
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_processed() - before));
  state.counters["timers_fired"] = static_cast<double>(hold.timers_fired());
}
BENCHMARK(BM_EventQueueHoldWithParkedTimers);

void BM_RngLognormal(benchmark::State& state) {
  sim::Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal(5.0, 0.4));
  }
}
BENCHMARK(BM_RngLognormal);

// 64 pooled packets, the batch the queue benches move by handle.
std::vector<net::Packet*> packet_batch(net::PacketPool& pool) {
  std::vector<net::Packet*> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(pool.acquire(net::make_data_packet(0, 1, 1, 0, 1460)));
  }
  return batch;
}

void BM_QueueEnqueueDequeue(benchmark::State& state) {
  net::DropTailQueue q{{.capacity_packets = 1333, .ecn_threshold_packets = 65}};
  net::PacketPool pool;
  const std::vector<net::Packet*> batch = packet_batch(pool);
  for (auto _ : state) {
    for (net::Packet* p : batch) (void)q.enqueue(p);
    while (net::Packet* out = q.dequeue()) benchmark::DoNotOptimize(out->size_bytes);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueueEnqueueDequeue);

void BM_CompositeQueueTrim(benchmark::State& state) {
  // The trimming hot path: a kTrimming queue whose data ring is kept full,
  // so half of every batch is admitted and half is trimmed onto the
  // strict-priority header ring. Covers the admission check, the trim
  // (payload cut + CE mark), and the two-ring dequeue order.
  net::DropTailQueue::Config cfg;
  cfg.capacity_packets = 32;
  cfg.ecn_threshold_packets = 0;
  cfg.discipline = net::QueueDiscipline::kTrimming;
  net::DropTailQueue q{cfg};
  net::PacketPool pool;
  const std::vector<net::Packet*> batch = packet_batch(pool);
  const net::Packet p = net::make_data_packet(0, 1, 1, 0, 1460);
  for (auto _ : state) {
    // Trimming cuts packets in place, so each round restores them first.
    for (net::Packet* h : batch) {
      *h = p;
      (void)q.enqueue(h);
    }
    while (net::Packet* out = q.dequeue()) benchmark::DoNotOptimize(out->size_bytes);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CompositeQueueTrim);

void BM_EndToEndTcpTransfer(benchmark::State& state) {
  // Packets/second through the full stack: dumbbell topology, DCTCP flow,
  // 1 MB transfers.
  for (auto _ : state) {
    sim::Simulator sim;
    net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};
    tcp::TcpConfig cfg;
    cfg.cc = tcp::CcAlgorithm::kDctcp;
    tcp::TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
    conn.sender().add_app_data(1'000'000);
    sim.run();
    benchmark::DoNotOptimize(conn.receiver().rcv_nxt());
  }
  // ~685 data packets + as many ACKs per iteration.
  state.SetItemsProcessed(state.iterations() * 1370);
}
BENCHMARK(BM_EndToEndTcpTransfer);

void BM_IncastBurst100Flows(benchmark::State& state) {
  // Cost of one complete 100-flow, 2 ms incast experiment (2 bursts).
  for (auto _ : state) {
    core::IncastExperimentConfig cfg;
    cfg.num_flows = 100;
    cfg.burst_duration = 2_ms;
    cfg.num_bursts = 2;
    cfg.discard_bursts = 1;
    cfg.queue_sample_every = 100_us;
    cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
    benchmark::DoNotOptimize(core::run_incast_experiment(cfg));
  }
}
BENCHMARK(BM_IncastBurst100Flows)->Unit(benchmark::kMillisecond);

void BM_PfcIncast(benchmark::State& state) {
  // The lossless data path under load: the same incast shape as
  // BM_IncastBurst100Flows but on a PFC-enabled dumbbell with DCQCN, so
  // every hop charges VIQs, emits pause/resume frames, and rides the
  // strict-priority control path. Events/sec here prices the per-packet
  // PFC accounting against the drop-tail rows.
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::IncastExperimentConfig cfg;
    cfg.num_flows = 64;
    cfg.burst_duration = 2_ms;
    cfg.num_bursts = 2;
    cfg.discard_bursts = 1;
    cfg.queue_sample_every = 100_us;
    cfg.topology.pfc = net::LosslessInputQueue::Config{};
    cfg.topology.switch_queue.capacity_packets = 100'000;
    cfg.tcp.cc = tcp::CcAlgorithm::kDcqcn;
    const auto r = core::run_incast_experiment(cfg);
    events += r.events_processed;
    benchmark::DoNotOptimize(r.avg_bct_ms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PfcIncast)->Unit(benchmark::kMillisecond);

void BM_TracerOverhead(benchmark::State& state, bool traced) {
  // The same 100-flow incast as BM_IncastBurst100Flows, with the
  // observability hub detached (off) or fully tracing (on). The off row
  // must match BM_IncastBurst100Flows: a null hub pointer is the entire
  // disabled path, so observability stays free when unused. The on/off
  // ratio is the honest price of full tracing.
  for (auto _ : state) {
    std::unique_ptr<obs::Hub> hub;
    if (traced) {
      hub = std::make_unique<obs::Hub>();
      hub->tracer().set_enabled(true);
    }
    core::IncastExperimentConfig cfg;
    cfg.num_flows = 100;
    cfg.burst_duration = 2_ms;
    cfg.num_bursts = 2;
    cfg.discard_bursts = 1;
    cfg.queue_sample_every = 100_us;
    cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
    cfg.hub = hub.get();
    benchmark::DoNotOptimize(core::run_incast_experiment(cfg));
    if (hub) benchmark::DoNotOptimize(hub->tracer().events().size());
  }
}
BENCHMARK_CAPTURE(BM_TracerOverhead, off, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TracerOverhead, on, true)->Unit(benchmark::kMillisecond);

void BM_AuditorOverhead(benchmark::State& state, bool audited) {
  // The always-on price of the invariant auditor on the kernel's hottest
  // path: the same 10k chained timer events as BM_SimulatorEventDispatch,
  // with a relaxed-mode auditor attached (relaxed) or none (off). The
  // relaxed/off throughput ratio is gated in CI at <= 3% slowdown — the
  // auditor must stay cheap enough to leave on everywhere.
  //
  // A 3% signal drowns in run-to-run frequency/thermal noise if the two
  // rows execute at different times, so BOTH modes run in every iteration
  // of BOTH rows, back to back, and each row manually reports only its own
  // mode's time — the pair always shares one noise environment.
  //
  // Like the dispatch bench, the relaxed row also asserts the
  // zero-allocation contract: relaxed-mode checks are counter updates and
  // compares, never heap traffic.
  sim::Auditor auditor;
  std::uint64_t steady_allocs = 0;
  for (auto _ : state) {
    double elapsed[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {  // 0 = off, 1 = relaxed
      sim::Simulator sim;
#if INCAST_AUDIT_ENABLED
      if (pass == 1) sim.set_auditor(&auditor);
#endif
      int count = 0;
      sim.schedule_in(100_ns, Tick{&sim, &count});
      sim.run_until(sim::Time::microseconds(10));  // warm-up: ~100 events
      const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      sim.run();
      const auto t1 = std::chrono::steady_clock::now();
      if (pass == 1) {
        steady_allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
      }
      elapsed[pass] = std::chrono::duration<double>(t1 - t0).count();
      benchmark::DoNotOptimize(count);
    }
    state.SetIterationTime(elapsed[audited ? 1 : 0]);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
  state.counters["steady_allocs"] = static_cast<double>(steady_allocs);
  if (audited && steady_allocs != 0) {
    state.SkipWithError("relaxed auditing allocated on the heap");
  }
}
// Pinned repetitions (overriding --benchmark_repetitions): the CI gate
// compares these two rows against each other, and best-of-7 lets both
// rows' maxima converge to their true peak so the ratio is not at the
// mercy of one noisy repetition window.
BENCHMARK_CAPTURE(BM_AuditorOverhead, off, false)
    ->UseManualTime()
    ->Repetitions(7);
BENCHMARK_CAPTURE(BM_AuditorOverhead, relaxed, true)
    ->UseManualTime()
    ->Repetitions(7);

void BM_FlowTraceOverhead(benchmark::State& state, int variant) {
  // The tail autopsy's price at its three operating points, on the same
  // 100-flow incast as BM_IncastBurst100Flows:
  //
  //   off  — no tracer attached: every hook is a cached-nullptr branch
  //   idle — tracer attached but sampling 1-in-1e9: senders cache nullptr
  //          at construction, ports test a false `flow_traced` bit per
  //          packet — the cost a sampled production run pays for the flows
  //          it does NOT trace
  //   on   — every flow traced: the honest price of full attribution
  //
  // CI gates idle within 3% of off (check_bench_regression.py --ratio), so
  // enabling sampled tracing fleet-wide stays effectively free. Like
  // BM_AuditorOverhead, a 3% signal drowns in frequency/thermal noise if
  // the rows run at different times — so ALL THREE variants run in every
  // iteration of every row, back to back, each row manually reporting only
  // its own variant's time.
  for (auto _ : state) {
    double elapsed[3] = {0.0, 0.0, 0.0};
    for (int pass = 0; pass < 3; ++pass) {  // 0 = off, 1 = idle, 2 = on
      core::IncastExperimentConfig cfg;
      cfg.num_flows = 100;
      cfg.burst_duration = 2_ms;
      cfg.num_bursts = 2;
      cfg.discard_bursts = 1;
      cfg.queue_sample_every = 100_us;
      cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
      cfg.flow_trace = pass > 0;
      cfg.flow_trace_sample_every = pass == 1 ? 1'000'000'000 : 1;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = core::run_incast_experiment(cfg);
      const auto t1 = std::chrono::steady_clock::now();
      elapsed[pass] = std::chrono::duration<double>(t1 - t0).count();
      benchmark::DoNotOptimize(r.avg_bct_ms);
    }
    state.SetIterationTime(elapsed[variant]);
  }
}
BENCHMARK_CAPTURE(BM_FlowTraceOverhead, off, 0)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Repetitions(7);
BENCHMARK_CAPTURE(BM_FlowTraceOverhead, idle, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Repetitions(7);
BENCHMARK_CAPTURE(BM_FlowTraceOverhead, on, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Repetitions(7);

// Terminal node for the switch routing benchmarks: counts arrivals, drops
// the packet.
struct SinkNode final : net::Node {
  using net::Node::Node;
  std::int64_t received{0};
  void receive(net::Packet* p, std::size_t /*in_port*/) override {
    ++received;
    packets_.release(p);
  }
};

void BM_SwitchEcmpRoute(benchmark::State& state) {
  // The switch routing hot path: receive() over a 6-way ECMP group on the
  // flat route tables. Beyond timing, this asserts the routing
  // zero-allocation contract at two levels:
  //
  //  * new_flow_allocs — the FIRST packet of a never-seen flow routes
  //    without heap traffic: the switch keeps no per-flow state.
  //  * steady_allocs   — the timed loop (warm pools, warm slab) must never
  //    allocate at all.
  constexpr int kPorts = 6;
  constexpr int kFlows = 4096;
  constexpr net::NodeId kSinkId = 1;

  sim::Simulator sim;
  net::Switch sw{sim, 0, "sw"};
  SinkNode sink{sim, kSinkId, "sink"};
  (void)sink.add_port(sim::Bandwidth::gigabits_per_second(100), 100_ns,
                      {.capacity_packets = 1 << 20});
  std::vector<std::size_t> uplinks;
  for (int i = 0; i < kPorts; ++i) {
    const std::size_t p = sw.add_port(sim::Bandwidth::gigabits_per_second(100), 100_ns,
                                      {.capacity_packets = 1 << 20});
    sw.port(p).connect(sink, 0);
    uplinks.push_back(p);
  }
  sw.set_ecmp_route(kSinkId, uplinks);

  auto pump = [&](net::FlowId flow_base) {
    for (int f = 0; f < kFlows; ++f) {
      sw.receive(sw.packets().acquire(net::make_data_packet(
                     static_cast<net::NodeId>(100 + f), kSinkId,
                     flow_base + static_cast<net::FlowId>(f), 0, 1460)),
                 0);
    }
    sim.run();
  };

  pump(1);  // warm-up: packet pools, queue rings, event slab
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  pump(kFlows + 1);  // kFlows previously-unseen flows through the warm switch
  const std::uint64_t new_flow_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;

  std::uint64_t steady_allocs = 0;
  for (auto _ : state) {
    const std::uint64_t b = g_heap_allocs.load(std::memory_order_relaxed);
    pump(1);
    steady_allocs += g_heap_allocs.load(std::memory_order_relaxed) - b;
  }
  benchmark::DoNotOptimize(sink.received);
  state.SetItemsProcessed(state.iterations() * kFlows);
  state.counters["new_flow_allocs"] = static_cast<double>(new_flow_allocs);
  state.counters["steady_allocs"] = static_cast<double>(steady_allocs);
  if (new_flow_allocs != 0) {
    state.SkipWithError("routing a fresh flow allocated on the heap");
  }
  if (steady_allocs != 0) {
    state.SkipWithError("steady-state ECMP routing allocated on the heap");
  }
}
BENCHMARK(BM_SwitchEcmpRoute);

void BM_SwitchLeafAckRoute(benchmark::State& state) {
  // The route-table footprint on the hot path, on a leaf of the scaling
  // ladder's 432-host fabric: 6 host downlinks, 6 agg uplinks, all 432
  // destinations programmed as the fat-tree builder does (6 local static
  // routes, 426 over the 6-way uplink group). ACK-sized packets go to
  // random destinations from random sources, the way an incast's ACKs fan
  // back out, so every packet reads a different route entry. Information
  // only: it has no baseline row and no gate.
  constexpr int kDownlinks = 6;
  constexpr int kUplinks = 6;
  constexpr net::NodeId kDsts = 432;
  constexpr int kPackets = 4096;

  sim::Simulator sim;
  net::Switch sw{sim, kDsts, "leaf"};
  SinkNode sink{sim, kDsts + 1, "sink"};
  std::vector<std::size_t> uplinks;
  for (int i = 0; i < kDownlinks + kUplinks; ++i) {
    const std::size_t p = sw.add_port(sim::Bandwidth::gigabits_per_second(100), 100_ns,
                                      {.capacity_packets = 1 << 20});
    sw.port(p).connect(sink, 0);
    if (i < kDownlinks) {
      sw.set_route(static_cast<net::NodeId>(i), p);
    } else {
      uplinks.push_back(p);
    }
  }
  for (net::NodeId dst = kDownlinks; dst < kDsts; ++dst) sw.set_ecmp_route(dst, uplinks);

  std::uint64_t lcg = 1;
  const auto draw = [&lcg](std::uint64_t n) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<net::NodeId>((lcg >> 33) % n);
  };
  auto pump = [&] {
    for (int f = 0; f < kPackets; ++f) {
      const net::NodeId src = draw(kDsts);
      const net::NodeId dst = draw(kDsts);
      sw.receive(sw.packets().acquire(net::make_ack_packet(
                     src, dst, static_cast<net::FlowId>(f), 0, false)),
                 0);
    }
    sim.run();
  };

  pump();  // warm-up: packet pools, queue rings, event slab
  for (auto _ : state) pump();
  benchmark::DoNotOptimize(sink.received);
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_SwitchLeafAckRoute);

void BM_FatTreeIncast(benchmark::State& state) {
  // Events/second through a small two-tier fat-tree (2x2 leaves x 8 hosts,
  // 2 spines) running a cross-rack incast — the fabric substrate's
  // end-to-end cost including ECMP hashing and per-tier telemetry.
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::FabricIncastExperimentConfig cfg;
    cfg.num_flows = 24;
    cfg.fabric.num_pods = 2;
    cfg.fabric.leaves_per_pod = 2;
    cfg.fabric.hosts_per_leaf = 8;
    cfg.fabric.num_spines = 2;
    cfg.burst_duration = 2_ms;
    cfg.num_bursts = 2;
    cfg.discard_bursts = 1;
    cfg.queue_sample_every = 100_us;
    cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
    const auto r = core::run_fabric_incast_experiment(cfg);
    events += r.events_processed;
    benchmark::DoNotOptimize(r.avg_bct_ms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FatTreeIncast)->Unit(benchmark::kMillisecond);

void BM_SweepRunnerScaling(benchmark::State& state) {
  // Fleet-grid throughput by worker count: a 12-trace (host, snapshot)
  // sweep run on state.range(0) SweepRunner threads. items/sec counts
  // simulator events, so comparing the Arg(1) and Arg(4) rows gives the
  // parallel speedup on this machine (results are byte-identical across
  // rows; only wall time changes).
  core::FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 40;
  cfg.profile.body_median_flows = 20.0;
  cfg.num_hosts = 4;
  cfg.num_snapshots = 3;
  cfg.trace_duration = sim::Time::milliseconds(100);
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  cfg.jobs = static_cast<int>(state.range(0));
  const core::FleetExperiment exp{cfg};

  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto results = exp.run_all();
    events += exp.last_sweep().total_events;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["jobs"] = static_cast<double>(cfg.jobs <= 0 ? 0 : cfg.jobs);
}
BENCHMARK(BM_SweepRunnerScaling)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_ParallelFabric(benchmark::State& state) {
  // One fixed degree-24 incast point on the PR-2 smoke fabric (2x2 leaves x
  // 8 hosts, 2 spines), run on the engine state.range(0) selects: 0 = the
  // legacy single-queue engine, N >= 1 = the conservative windowed engine
  // with N rack domains (sim/parallel_simulator.h). Rows 0 vs 1 price the
  // windowed engine's sequential overhead (keyed heap, window bookkeeping,
  // barrier machinery at domain count one); rows 1 vs 2 give the intra-run
  // speedup on this machine — real_time falls while process_time holds.
  // items/sec counts simulator events. Byte identity across rows >= 1 is
  // gated by the ParallelFabricDeterminism suite and the CI cmp smoke, not
  // here; this bench only prices the decomposition.
  core::ScalingConfig cfg;
  cfg.fabric.num_pods = 2;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 8;
  cfg.fabric.aggs_per_pod = 0;
  cfg.fabric.num_spines = 2;
  cfg.bytes_per_flow = 27'000;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.seed = 11;
  cfg.domains = static_cast<int>(state.range(0));

  std::uint64_t events = 0;
  std::uint64_t bridged = 0;
  for (auto _ : state) {
    const core::ScalingPoint p =
        core::run_scaling_point(cfg, /*degree=*/24, cfg.seed, nullptr);
    events += p.events_processed;
    bridged += p.packets_bridged;
    benchmark::DoNotOptimize(p.fct_ms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["domains"] = static_cast<double>(cfg.domains);
  state.counters["bridged"] = benchmark::Counter(
      static_cast<double>(bridged), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ParallelFabric)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_DomainMailbox(benchmark::State& state) {
  // The cross-domain handoff in isolation: during a window each producer
  // domain appends to its private (src, dst) mailbox — a plain vector push,
  // no locks — and at the barrier the coordinator walks and clears every
  // box. state.range(0) is the domain count; 64 entries per directed pair
  // approximates a saturated window on the smoke fabric. items/sec counts
  // entries through the full post -> walk -> clear round trip, so this is
  // the ceiling on mailbox throughput the fabric bridge can ever see.
  struct Entry {
    sim::Time at;
    std::uint64_t key;
    std::uint64_t payload;
  };
  const int domains = static_cast<int>(state.range(0));
  sim::MailboxGrid<Entry> grid{domains};
  constexpr std::uint64_t kPerPair = 64;

  std::uint64_t moved = 0;
  for (auto _ : state) {
    for (int src = 0; src < domains; ++src) {
      for (int dst = 0; dst < domains; ++dst) {
        if (src == dst) continue;  // diagonal stays on the direct path
        for (std::uint64_t i = 0; i < kPerPair; ++i) {
          grid.box(src, dst).post(
              {sim::Time::nanoseconds(static_cast<std::int64_t>(i)),
               sim::make_event_key(static_cast<std::uint64_t>(src) + 1, i), i});
        }
      }
    }
    std::uint64_t checksum = 0;
    for (int src = 0; src < domains; ++src) {
      for (int dst = 0; dst < domains; ++dst) {
        if (src == dst) continue;
        auto& box = grid.box(src, dst);
        for (const Entry& e : box.entries()) checksum += e.key;
        moved += box.entries().size();
        box.clear();
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
  state.counters["domains"] = static_cast<double>(domains);
}
BENCHMARK(BM_DomainMailbox)->Arg(2)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
