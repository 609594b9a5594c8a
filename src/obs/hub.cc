#include "obs/hub.h"

namespace incast::obs {

void Hub::notify_mode_shift(std::int64_t ts_ns, const std::string& from,
                            const std::string& to) {
  if (tracing()) {
    TraceEvent ev;
    ev.ts_ns = ts_ns;
    ev.phase = TraceEvent::Phase::kInstant;
    ev.category = TraceCategory::kSim;
    ev.tid = kWorkloadTid;
    ev.name = "mode-shift:" + from + "->" + to;
    tracer_.record(ev);
  }
  recorder_.notify_mode_shift(ts_ns, from, to);
}

void Hub::capture_metrics(std::int64_t at_ns) {
  final_metrics_ = metrics_.snapshot(at_ns);
  has_final_metrics_ = true;
}

}  // namespace incast::obs
