#include "spans.hpp"

#include "common/timer.hpp"

namespace perfbench {

namespace {
// Chrome trace tracks: the MD stepping thread and the serve client.
constexpr int kMdTrack = 0;
constexpr int kClientTrack = 1;
}  // namespace

const char* span_name(Span kind) {
  switch (kind) {
    case Span::Step: return "md.step";
    case Span::Compute: return "core.compute";
    case Span::SetStrategy: return "core.set_strategy";
    case Span::Attach: return "domain.attach_schedule";
    case Span::Partition: return "domain.on_neighbor_rebuild";
    case Span::Thermostat: return "md.thermostat";
    case Span::NeighborBuild: return "neighbor.build (layer clock)";
    case Span::Checkpoint: return "run.checkpoint (layer clock)";
    case Span::ServeOp: return "serve.op";
    case Span::kCount: break;
  }
  return "?";
}

double now() { return sdcmd::wall_time(); }

void SpanRecorder::record(Span kind, double start, double end,
                          const char* label) {
  const auto k = static_cast<std::size_t>(kind);
  totals_[k] += end - start;
  ++counts_[k];
  last_start_[k] = start;
  events_.push_back({kind, label, start, end});
}

void SpanRecorder::reset() {
  totals_.fill(0.0);
  counts_.fill(0);
  last_start_.fill(0.0);
  events_.clear();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  sdcmd::obs::TraceWriter trace;
  if (!events_.empty()) trace.set_time_origin(events_.front().start);
  trace.set_thread_name(kMdTrack, "md steps");
  trace.set_thread_name(kClientTrack, "serve client");
  for (const Event& e : events_) {
    const bool client = e.kind == Span::ServeOp;
    trace.complete_event(e.label != nullptr ? e.label : span_name(e.kind),
                         client ? "serve" : "md", e.start, e.end - e.start,
                         client ? kClientTrack : kMdTrack);
  }
  return trace.write(path);
}

TracingForceProvider::TracingForceProvider(
    std::unique_ptr<sdcmd::ForceProvider> inner, SpanRecorder& recorder)
    : inner_(std::move(inner)), recorder_(recorder) {}

void TracingForceProvider::attach_schedule(const sdcmd::Box& box,
                                           double range) {
  ScopedSpan span(recorder_, Span::Attach);
  inner_->attach_schedule(box, range);
}

void TracingForceProvider::on_neighbor_rebuild(
    std::span<const sdcmd::Vec3> positions) {
  ScopedSpan span(recorder_, Span::Partition);
  inner_->on_neighbor_rebuild(positions);
}

sdcmd::EamForceResult TracingForceProvider::compute(
    const sdcmd::Box& box, sdcmd::Atoms& atoms,
    const sdcmd::NeighborList& list) {
  ScopedSpan span(recorder_, Span::Compute);
  return inner_->compute(box, atoms, list);
}

bool TracingForceProvider::set_strategy(sdcmd::ReductionStrategy s) {
  ScopedSpan span(recorder_, Span::SetStrategy);
  return inner_->set_strategy(s);
}

TracingThermostat::TracingThermostat(std::unique_ptr<sdcmd::Thermostat> inner,
                                     SpanRecorder& recorder)
    : inner_(std::move(inner)), recorder_(recorder) {}

void TracingThermostat::apply(std::span<sdcmd::Vec3> velocities, double mass,
                              double dt) {
  ScopedSpan span(recorder_, Span::Thermostat);
  inner_->apply(velocities, mass, dt);
}

}  // namespace perfbench
