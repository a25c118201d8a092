// In-memory span recording for the traced benchmark run, plus the two
// forwarding decorators that put spans around the force backend and the
// thermostat from outside the library.
//
// Spans are recorded at layer boundaries the benchmark can reach through
// the public API only: the whole step (around RunSupervisor::advance), the
// ForceProvider and Thermostat virtuals, and client-side serve op round
// trips. Work the library runs privately (the neighbor build, checkpoint
// commits) is added as spans whose duration comes from that layer's own
// clock (NeighborBuildStats, run.checkpoint_seconds) and is labelled so.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "md/force_provider.hpp"
#include "md/thermostat.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Span kinds, one per layer boundary the benchmark times. Totals are kept
/// per kind so the per-layer table never walks the event list.
enum class Span : int {
  Step,           ///< md: one RunSupervisor::advance(1) call
  Compute,        ///< core: ForceProvider::compute
  SetStrategy,    ///< core: ForceProvider::set_strategy (governor swap)
  Attach,         ///< domain: ForceProvider::attach_schedule
  Partition,      ///< domain: ForceProvider::on_neighbor_rebuild
  Thermostat,     ///< md: Thermostat::apply
  NeighborBuild,  ///< neighbor: NeighborBuildStats delta (layer's clock)
  Checkpoint,     ///< run: run.checkpoint_seconds delta (layer's clock)
  ServeOp,        ///< serve: one client-side op round trip
  kCount
};

const char* span_name(Span kind);

/// Monotonic seconds (the library's wall_time() clock).
double now();

class SpanRecorder {
 public:
  struct Event {
    Span kind;
    const char* label;
    double start;
    double end;
  };

  /// Record a finished span. `label` overrides the kind's name in the
  /// Chrome trace (serve ops carry the op name).
  void record(Span kind, double start, double end, const char* label = nullptr);

  double total(Span kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  std::size_t count(Span kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// Every recorded span in recording order (a step's children precede it).
  const std::vector<Event>& spans() const { return events_; }
  /// Start of the most recent span of `kind` (0 when none yet).
  double last_start(Span kind) const {
    return last_start_[static_cast<std::size_t>(kind)];
  }

  /// Forget totals and events (the recorder is reused across phases).
  void reset();

  /// Write every recorded span as a Chrome trace (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::array<double, static_cast<std::size_t>(Span::kCount)> totals_{};
  std::array<std::size_t, static_cast<std::size_t>(Span::kCount)> counts_{};
  std::array<double, static_cast<std::size_t>(Span::kCount)> last_start_{};
  std::vector<Event> events_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Span kind)
      : recorder_(recorder), kind_(kind), start_(now()) {}
  ~ScopedSpan() { recorder_.record(kind_, start_, now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  Span kind_;
  double start_;
};

/// Forwards every ForceProvider virtual to `inner`, timing compute,
/// attach_schedule, on_neighbor_rebuild and set_strategy.
class TracingForceProvider final : public sdcmd::ForceProvider {
 public:
  TracingForceProvider(std::unique_ptr<sdcmd::ForceProvider> inner,
                       SpanRecorder& recorder);

  double cutoff() const override { return inner_->cutoff(); }
  sdcmd::NeighborMode required_mode() const override {
    return inner_->required_mode();
  }
  void attach_schedule(const sdcmd::Box& box, double range) override;
  void on_neighbor_rebuild(std::span<const sdcmd::Vec3> positions) override;
  sdcmd::EamForceResult compute(const sdcmd::Box& box, sdcmd::Atoms& atoms,
                                const sdcmd::NeighborList& list) override;
  sdcmd::PhaseTimers& timers() override { return inner_->timers(); }
  int neighbor_pad_width() const override {
    return inner_->neighbor_pad_width();
  }
  sdcmd::EamForceComputer* eam_computer() override {
    return inner_->eam_computer();
  }
  std::optional<sdcmd::ReductionStrategy> strategy() const override {
    return inner_->strategy();
  }
  bool set_strategy(sdcmd::ReductionStrategy s) override;
  std::optional<sdcmd::SdcConfig> sdc_config() const override {
    return inner_->sdc_config();
  }

 private:
  std::unique_ptr<sdcmd::ForceProvider> inner_;
  SpanRecorder& recorder_;
};

/// Forwards every Thermostat virtual to `inner`, timing apply.
class TracingThermostat final : public sdcmd::Thermostat {
 public:
  TracingThermostat(std::unique_ptr<sdcmd::Thermostat> inner,
                    SpanRecorder& recorder);

  void apply(std::span<sdcmd::Vec3> velocities, double mass,
             double dt) override;
  double target_temperature() const override {
    return inner_->target_temperature();
  }
  bool conserves_momentum() const override {
    return inner_->conserves_momentum();
  }

 private:
  std::unique_ptr<sdcmd::Thermostat> inner_;
  SpanRecorder& recorder_;
};

}  // namespace perfbench
