// Hardware-counter profiling via perf_event_open, phase-scoped and
// per-thread, with graceful degradation to a zero-cost no-op.
//
// The wall clock can say a phase got slower; it cannot say *why*. Two
// machine-level numbers answer most of that: instructions-per-cycle (are
// the kernels compute-bound or stalled?) and cache-miss rate (is the CSR
// walk thrashing or streaming?). This layer counts cycles, instructions,
// cache references/misses and branch misses per OpenMP thread between the
// phase barriers the fused EAM pipeline already has, plus -- behind an
// open-probe, Intel only -- retired scalar/vector FP operations, so
// whether a row issues packed arithmetic is measured, not assumed.
//
// Availability is a spectrum, not a boolean: `perf_event_paranoid` may
// forbid the syscall (common in CI containers), the kernel may lack the
// PMU (VMs), or the platform may not be Linux at all. Every path degrades
// to a no-op whose cost is one branch: available() probes once per
// process, set_enabled() refuses when the probe failed, and a disabled
// profiler never issues a syscall. Exporters publish `hw.available` so a
// silent no-op is still visible in the metrics stream.
#pragma once

#include <string>
#include <vector>

namespace sdcmd::obs {

/// One phase-span's counter deltas, multiplex-scaled to estimated full-span
/// values (the kernel time-slices counter groups when the PMU is
/// oversubscribed; values are scaled by time_enabled/time_running).
struct HwCounts {
  double cycles = 0.0;
  double instructions = 0.0;
  double cache_refs = 0.0;
  double cache_misses = 0.0;
  double branch_misses = 0.0;
  double fp_scalar = 0.0;  ///< retired scalar FP ops (Intel raw event)
  double fp_vector = 0.0;  ///< retired packed FP ops, all widths summed
  bool has_fp = false;     ///< the FP group opened (Intel + probe passed)
  bool valid = false;      ///< set by a successful mark; idle slots stay false

  double ipc() const { return cycles > 0.0 ? instructions / cycles : 0.0; }
  double cache_miss_rate() const {
    return cache_refs > 0.0 ? cache_misses / cache_refs : 0.0;
  }
  /// Fraction of retired FP ops that were packed (0 when none counted).
  double fp_vector_frac() const {
    const double total = fp_scalar + fp_vector;
    return total > 0.0 ? fp_vector / total : 0.0;
  }

  void accumulate(const HwCounts& other);
};

/// RAII perf_event_open counter group bound to the thread that called
/// open(). The five generic events share one group (scheduled onto the PMU
/// together, so their ratios are exact); the optional raw FP events form a
/// second group so their presence never multiplexes the generic five.
class PerfCounterGroup {
 public:
  PerfCounterGroup() = default;
  ~PerfCounterGroup() { close(); }

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;
  PerfCounterGroup(PerfCounterGroup&& other) noexcept;
  PerfCounterGroup& operator=(PerfCounterGroup&& other) noexcept;

  /// Open the group for the CALLING thread (pid=0, cpu=-1). Returns false
  /// when the syscall is denied or unsupported; the group then stays a
  /// no-op. Idempotent once open.
  bool open();
  bool ok() const { return group_fd_ >= 0; }
  bool has_fp() const { return fp_fd_ >= 0; }

  /// Cumulative multiplex-scaled counts since open(). Returns false (and
  /// leaves `out.valid` false) when the group is closed or the read fails.
  bool read(HwCounts& out) const;

  void close();

 private:
  int group_fd_ = -1;          ///< leader: cycles
  std::vector<int> member_fds_;  ///< instructions, cache-refs/misses, br-miss
  int fp_fd_ = -1;             ///< FP group leader, -1 when probe failed
  int fp_vec_fd_ = -1;
};

/// Per-(phase, thread) hardware-counter sampling over the fused pipeline's
/// existing phase barriers -- the counter analogue of SdcSweepProfiler.
/// Groups are opened lazily by the owning thread (perf fds are
/// thread-bound), every slot is written by exactly one thread, and the
/// driver reads the samples after the parallel region ends.
class PerfPhaseProfiler {
 public:
  /// Shape the sample store: one named phase per barrier-delimited span,
  /// `threads` OpenMP threads. Idempotent on an unchanged shape; a changed
  /// shape closes and reopens the per-thread groups.
  void configure(std::vector<std::string> phase_names, int threads);

  /// Disabled by default. set_enabled(true) is refused (stays false) when
  /// available() says the syscall cannot work, so callers may enable
  /// unconditionally and read back the decision.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on);

  int phases() const { return static_cast<int>(phase_names_.size()); }
  int threads() const { return threads_; }
  const std::string& phase_name(int phase) const {
    return phase_names_[static_cast<std::size_t>(phase)];
  }

  /// Invalidate all samples; call at the start of each profiled step.
  void begin_step();

  /// Called by thread `tid` inside the parallel region, once at region
  /// entry: opens the thread's group on first use and takes the baseline
  /// reading the first mark's delta is measured against.
  void thread_begin(int tid);

  /// Called by thread `tid` at the barrier ending `phase`: stores the
  /// counter delta since this thread's previous begin/mark into the
  /// (phase, tid) slot.
  void thread_mark(int phase, int tid);

  const HwCounts& sample(int phase, int thread) const {
    return samples_[slot(phase, thread)];
  }

  /// One phase's counts summed over the threads that recorded a sample.
  struct PhaseTotals {
    int phase = 0;
    int threads = 0;  ///< threads that contributed
    HwCounts counts;
  };

  /// Totals for every phase with at least one valid sample, phase-major,
  /// for the step recorded since begin_step().
  std::vector<PhaseTotals> phase_totals() const;

  /// One probe per process: false on non-Linux builds, when
  /// /proc/sys/kernel/perf_event_paranoid forbids self-measurement, when a
  /// trial perf_event_open fails, or when SDCMD_NO_HW_COUNTERS=1 is set
  /// (the documented kill switch for exercising the no-op path).
  static bool available();

  /// Current /proc/sys/kernel/perf_event_paranoid value, or -100 when the
  /// file cannot be read (non-Linux, masked procfs).
  static int paranoid_level();

 private:
  std::size_t slot(int phase, int thread) const {
    return static_cast<std::size_t>(phase) *
               static_cast<std::size_t>(threads_) +
           static_cast<std::size_t>(thread);
  }

  struct ThreadState {
    PerfCounterGroup group;
    HwCounts last;
    bool open_attempted = false;
  };

  bool enabled_ = false;
  std::vector<std::string> phase_names_;
  int threads_ = 0;
  std::vector<HwCounts> samples_;
  std::vector<ThreadState> state_;
};

}  // namespace sdcmd::obs
