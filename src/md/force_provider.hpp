// ForceProvider: the Simulation driver's pluggable force backend.
//
// The paper's contribution is potential-agnostic ("our method can be
// applied in MD simulations with other potentials"); this interface makes
// that concrete: the same Simulation runs EAM (three phases) or a plain
// pair potential (one phase), each under any reduction strategy.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "common/timer.hpp"
#include "core/eam_force.hpp"
#include "core/pair_force.hpp"
#include "md/atoms.hpp"

namespace sdcmd {

class ForceProvider {
 public:
  virtual ~ForceProvider() = default;

  /// Interaction range the neighbor list must cover.
  virtual double cutoff() const = 0;

  /// Half or Full, depending on the strategy's kernels.
  virtual NeighborMode required_mode() const = 0;

  /// SDC schedule lifecycle (no-ops for non-SDC strategies).
  virtual void attach_schedule(const Box& box, double interaction_range) = 0;
  virtual void on_neighbor_rebuild(std::span<const Vec3> positions) = 0;

  /// Fill atoms.force (and for EAM atoms.rho / atoms.fp); return energies.
  /// Reuses EamForceResult for uniform thermo reporting: pair-only
  /// backends report zero embedding energy.
  virtual EamForceResult compute(const Box& box, Atoms& atoms,
                                 const NeighborList& list) = 0;

  /// Cumulative per-phase wall time.
  virtual PhaseTimers& timers() = 0;

  /// Always 0; nothing in the library reads it. It stays virtual because
  /// perfbench's TracingForceProvider overrides it and its tests check the
  /// forwarding.
  virtual int neighbor_pad_width() const { return 0; }

  /// The underlying EAM computer when this provider wraps one (the
  /// quickstart-style instrumentation hooks); nullptr otherwise.
  virtual EamForceComputer* eam_computer() { return nullptr; }

  /// The active reduction strategy, or nullopt for backends that don't run
  /// one (then the StrategyGovernor has nothing to govern).
  virtual std::optional<ReductionStrategy> strategy() const {
    return std::nullopt;
  }

  /// Hot-swap the reduction strategy mid-run (governor ladder moves).
  /// Returns false when the backend doesn't support swapping. The caller
  /// must rebuild schedules/neighbor state afterwards.
  virtual bool set_strategy(ReductionStrategy) { return false; }

  /// The SDC settings this backend builds schedules from, so the governor
  /// probes feasibility with exactly the config attach_schedule will use.
  virtual std::optional<SdcConfig> sdc_config() const { return std::nullopt; }
};

/// What the EAM and pair backends share: the computer's engine answers
/// every lifecycle virtual.
template <class Computer>
class ComputerForceProvider : public ForceProvider {
 public:
  template <class Potential>
  ComputerForceProvider(const Potential& potential, EamForceConfig config)
      : computer_(potential, config) {}

  double cutoff() const override { return computer_.potential().cutoff(); }
  NeighborMode required_mode() const override {
    return sdcmd::required_mode(computer_.config().strategy);
  }
  void attach_schedule(const Box& box, double range) override {
    computer_.attach_schedule(box, range);
  }
  void on_neighbor_rebuild(std::span<const Vec3> positions) override {
    computer_.on_neighbor_rebuild(positions);
  }
  PhaseTimers& timers() override { return computer_.timers(); }
  std::optional<ReductionStrategy> strategy() const override {
    return computer_.config().strategy;
  }
  bool set_strategy(ReductionStrategy s) override {
    computer_.set_strategy(s);
    return true;
  }
  std::optional<SdcConfig> sdc_config() const override {
    return computer_.config().sdc;
  }

 protected:
  Computer computer_;
};

/// EAM backend (the paper's workload).
class EamForceProvider final
    : public ComputerForceProvider<EamForceComputer> {
 public:
  EamForceProvider(const EamPotential& potential, EamForceConfig config)
      : ComputerForceProvider(potential, config) {}

  EamForceResult compute(const Box& box, Atoms& atoms,
                         const NeighborList& list) override;
  EamForceComputer* eam_computer() override { return &computer_; }
};

/// Pair-potential backend (single computational phase).
class PairForceProvider final
    : public ComputerForceProvider<PairForceComputer> {
 public:
  PairForceProvider(const PairPotential& potential, EamForceConfig config)
      : ComputerForceProvider(potential, config) {}

  EamForceResult compute(const Box& box, Atoms& atoms,
                         const NeighborList& list) override;
};

}  // namespace sdcmd
