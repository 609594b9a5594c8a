#include "telemetry/queue_monitor.h"

#include "obs/hub.h"

namespace incast::telemetry {

void QueueMonitor::start(sim::Time until) {
  if (!config_.trace_label.empty()) {
    obs::Hub* hub = INCAST_OBS_HUB(sim_);
    if (hub != nullptr) {
      hub_ = hub;
      depth_counter_name_ = "queue." + config_.trace_label + ".depth";
      watermark_counter_name_ = "queue." + config_.trace_label + ".watermark";
    }
  }
  if (config_.sample_every > sim::Time::zero()) {
    sample_tick(until);
  }
  if (config_.watermark_window > sim::Time::zero()) {
    // Reset the queue's watermark so the first window starts clean.
    (void)queue_.take_watermark();
    sim_.schedule_in(config_.watermark_window, [this, until] { watermark_tick(until); },
                     sim::EventCategory::kTelemetry);
  }
}

void QueueMonitor::sample_tick(sim::Time until) {
  const std::int64_t depth = queue_.packets();
  samples_.push_back(Sample{sim_.now(), depth});
  if (hub_ != nullptr) {
    if (depth != last_depth_emitted_) {
      last_depth_emitted_ = depth;
      hub_->counter(sim_.now().ns(), obs::TraceCategory::kQueue, depth_counter_name_,
                    obs::kQueueTid, depth);
    }
    hub_->observe_queue_depth(sim_.now().ns(), depth);
  }
  const sim::Time next = sim_.now() + config_.sample_every;
  if (next <= until) {
    sim_.schedule_in(config_.sample_every, [this, until] { sample_tick(until); },
                     sim::EventCategory::kTelemetry);
  }
}

void QueueMonitor::watermark_tick(sim::Time until) {
  const std::int64_t peak = queue_.take_watermark();
  watermarks_.push_back(peak);
  drops_.push_back(queue_.stats().dropped_packets);
  injected_drops_.push_back(injected_drop_source_ ? injected_drop_source_() : 0);
  if (hub_ != nullptr) {
    hub_->counter(sim_.now().ns(), obs::TraceCategory::kQueue, watermark_counter_name_,
                  obs::kQueueTid, peak);
    // The window peak feeds the collapse trigger too: watermark-only
    // monitors (sample_every == 0, e.g. fleet hosts) still detect collapse.
    hub_->observe_queue_depth(sim_.now().ns(), peak);
  }
  const sim::Time next = sim_.now() + config_.watermark_window;
  if (next <= until) {
    sim_.schedule_in(config_.watermark_window, [this, until] { watermark_tick(until); },
                     sim::EventCategory::kTelemetry);
  }
}

}  // namespace incast::telemetry
