// Umbrella header: the full public sdcmd API in one include.
//
// Fine-grained headers remain the recommended include style for library
// code (they keep rebuilds small); this header serves quick experiments
// and the examples-as-documentation use case.
//
//   #include "sdcmd.hpp"
//   using namespace sdcmd;
#pragma once

// common: math, RNG, timing, stats, CLI, logging, units
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "common/vec3.hpp"

// geometry: periodic boxes, lattices, regions, defect generators
#include "geom/box.hpp"
#include "geom/defects.hpp"
#include "geom/lattice.hpp"
#include "geom/region.hpp"

// potentials: pair + EAM families, tabulation, file formats, alloys
#include "potential/alloy.hpp"
#include "potential/cubic_spline.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/funcfl.hpp"
#include "potential/johnson.hpp"
#include "potential/lennard_jones.hpp"
#include "potential/morse.hpp"
#include "potential/potential.hpp"
#include "potential/setfl.hpp"
#include "potential/setfl_alloy.hpp"
#include "potential/tabulated.hpp"

// observability: metrics, sweep profiling, JSONL/trace/bench exporters
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/sweep_profile.hpp"
#include "obs/trace.hpp"

// neighbor machinery: cells, Verlet lists, data reordering
#include "neighbor/cell_list.hpp"
#include "neighbor/neighbor_list.hpp"
#include "neighbor/reorder.hpp"

// spatial decomposition + coloring (the paper's Section II.B)
#include "domain/coloring.hpp"
#include "domain/decomposition.hpp"
#include "domain/partition.hpp"

// the core contribution: SDC schedules, strategy engines, validation
#include "core/alloy_force.hpp"
#include "core/colored_reduction.hpp"
#include "core/eam_force.hpp"
#include "core/lock_pool.hpp"
#include "core/pair_force.hpp"
#include "core/race_check.hpp"
#include "core/reduction_engine.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"

// molecular dynamics engine
#include "md/atoms.hpp"
#include "md/barostat.hpp"
#include "md/deform.hpp"
#include "md/dump.hpp"
#include "md/force_provider.hpp"
#include "md/health.hpp"
#include "md/integrator.hpp"
#include "md/simulation.hpp"
#include "md/system.hpp"
#include "md/thermo.hpp"
#include "md/thermo_log.hpp"
#include "md/thermostat.hpp"
#include "md/velocity.hpp"

// analysis
#include "analysis/cna.hpp"
#include "analysis/coordination.hpp"
#include "analysis/msd.hpp"
#include "analysis/rdf.hpp"
#include "analysis/stress.hpp"
#include "analysis/vacf.hpp"

// file I/O
#include "io/checkpoint.hpp"
#include "io/lammps_data.hpp"
#include "io/xyz_reader.hpp"
