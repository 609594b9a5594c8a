// Tests for the Section 5.1 guardrail: predictor-driven cwnd caps tame the
// start-of-burst spike without hurting completion time.
#include <gtest/gtest.h>

#include <cmath>

#include "core/incast_experiment.h"
#include "core/predictor.h"

namespace incast::core {
namespace {

using sim::Time;
using namespace incast::sim::literals;

IncastExperimentConfig config(int flows, std::optional<std::int64_t> cap) {
  IncastExperimentConfig cfg;
  cfg.num_flows = flows;
  cfg.burst_duration = 5_ms;
  cfg.num_bursts = 4;
  cfg.discard_bursts = 1;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  cfg.tcp.cwnd_cap_bytes = cap;
  cfg.seed = 21;
  return cfg;
}

TEST(Guardrail, CapReducesPeakQueueInMode1) {
  const int flows = 100;
  const auto uncapped = run_incast_experiment(config(flows, std::nullopt));

  // The paper's suggestion: cap each flow so the predicted worst-case
  // incast fits the BDP + marking threshold.
  const std::int64_t cap =
      suggest_cwnd_cap_bytes(flows, 37'500, 65 * 1500, 1460);
  const auto capped = run_incast_experiment(config(flows, cap));

  EXPECT_LT(capped.peak_queue_packets, uncapped.peak_queue_packets);
  // Completion time does not collapse: still close to optimal.
  EXPECT_LT(capped.avg_bct_ms, uncapped.avg_bct_ms * 1.5);
  EXPECT_EQ(capped.queue_drops, 0);
}

TEST(Guardrail, CapLimitsEndOfBurstRampUp) {
  const int flows = 100;
  const std::int64_t cap = suggest_cwnd_cap_bytes(flows, 37'500, 65 * 1500, 1460);
  const auto capped = run_incast_experiment(config(flows, cap));
  // No straggler can ramp beyond the cap (in MSS units).
  EXPECT_LE(capped.end_of_burst_cwnd_max_mss,
            static_cast<double>(cap) / 1460.0 + 0.01);
}

TEST(Guardrail, PredictorDrivenCapEndToEnd) {
  // Feed the predictor a history resembling a stable service, derive the
  // cap from its p99 forecast, and verify the resulting experiment is
  // healthy (no drops, no timeouts).
  sim::Rng rng{5};
  FlowCountPredictor predictor;
  for (int i = 0; i < 300; ++i) {
    predictor.observe(static_cast<int>(rng.lognormal(std::log(100.0), 0.25)));
  }
  ASSERT_TRUE(predictor.ready());
  const int predicted = predictor.predict_p99();
  EXPECT_GT(predicted, 100);

  const std::int64_t cap =
      suggest_cwnd_cap_bytes(predicted, 37'500, 65 * 1500, 1460);
  const auto result = run_incast_experiment(config(100, cap));
  EXPECT_EQ(result.queue_drops, 0);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_LT(result.avg_bct_ms, 8.0);
}

}  // namespace
}  // namespace incast::core
