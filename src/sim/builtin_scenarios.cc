// The built-in scenario catalogue: the paper's evaluation workloads plus
// stressors the paper could not run (open-loop arrivals, mid-run event-mix
// shifts, trace replay). Every factory builds a self-contained ExperimentSpec:
// the workload retains the ProgramLibrary its arrival pointers reach into,
// so specs survive copying into parallel sweeps.

#include <memory>

#include "src/sim/scenario.h"
#include "src/workloads/generators.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

// The paper's machine: 2-node x 4-way xSeries 445, SMT off, measured cooling.
MachineConfig PaperMachine() {
  MachineConfig config;
  config.topology = CpuTopology::PaperXSeries445(/*smt_enabled=*/false);
  config.cooling = CoolingProfile::PaperXSeries445();
  return config;
}

// Builds a library against `config`'s energy model and hands ownership to
// whatever workload the caller derives from it.
std::shared_ptr<const ProgramLibrary> MakeLibrary(const MachineConfig& config) {
  return std::make_shared<ProgramLibrary>(config.model);
}

ExperimentSpec PaperMixed() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  spec.workload = Workload(MixedWorkload(*library, 3));
  spec.workload.Retain(library);
  return spec;
}

ExperimentSpec PaperHomogeneous() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  spec.workload = Workload(HomogeneityWorkload(*library, 4, 4, 4));
  spec.workload.Retain(library);
  return spec;
}

ExperimentSpec PaperHotTask() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 40.0;
  spec.config.throttling_enabled = true;
  auto library = MakeLibrary(spec.config);
  spec.workload = Workload(HotTaskWorkload(*library, 4));
  spec.workload.Retain(library);
  spec.options.record_task_cpu = true;
  return spec;
}

ExperimentSpec ShortTasks() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  Workload workload;
  for (int i = 0; i < 24; ++i) {
    workload.Add(i % 2 == 0 ? library->short_hot() : library->short_cool());
  }
  workload.Retain(library);
  spec.workload = std::move(workload);
  return spec;
}

ExperimentSpec PhaseShift() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  spec.workload = PhaseShiftWorkload(spec.config.model);
  return spec;
}

ExperimentSpec PoissonOpenLoop() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  PoissonOptions options;
  options.arrivals_per_second = 2.0;
  options.horizon_ticks = spec.options.duration_ticks;
  options.initial_tasks = 8;
  options.seed = 7;
  spec.workload = PoissonWorkload(library->Table2Programs(), options);
  spec.workload.Retain(library);
  return spec;
}

ExperimentSpec ServerConsolidation() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  Workload workload;
  // A consolidation host: a cool always-on batch floor, then a ramp of
  // interactive daemons (sshd/bash sleep most of the time) arriving through
  // the event queue. The task population dwarfs the CPU count, so the
  // scenario exercises exactly what the tick hot path must not do - per-tick
  // work proportional to every task ever spawned.
  for (int i = 0; i < 8; ++i) {
    workload.Add(library->memrw());
  }
  for (int i = 0; i < 104; ++i) {
    workload.Add(library->sshd(), /*tick=*/static_cast<Tick>(i) * 180);
  }
  for (int i = 0; i < 48; ++i) {
    workload.Add(library->bash(), /*tick=*/static_cast<Tick>(i) * 390);
  }
  workload.Retain(library);
  spec.workload = std::move(workload);
  spec.options.duration_ticks = 120'000;
  return spec;
}

ExperimentSpec DatacenterConsolidation() {
  ExperimentSpec spec;
  // A consolidation *cluster*, not a host: 2 racks x 4 boards x 8 nodes x
  // 4 packages x 2 SMT = 512 logical CPUs under a five-level domain tree.
  // This is the scale target the level-list topology, the per-domain
  // aggregate rollups and the sharded tick pipeline exist for; run it with
  // --intra-threads N to fan the package phases across workers.
  spec.config.topology = CpuTopology({{"rack", 2},
                                      {"board", 4},
                                      {"node", 8},
                                      {"package", 4},
                                      {"smt", 2}});
  spec.config.cooling =
      CoolingProfile::Uniform(spec.config.topology.num_physical(), ThermalParams{});
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  Workload workload;
  // A cool batch floor keeps three quarters of the boards busy for the whole
  // run; the daemon population (sshd/bash sleep most of the time) ramps in
  // through the arrival queue, spread evenly over the first 16 s. The task
  // population is ~32x the CPU count, so per-tick cost must scale with the
  // work due, and the balance walk with the domain fanout - not with either
  // population.
  for (int i = 0; i < 192; ++i) {
    workload.Add(library->memrw());
  }
  constexpr int kSshd = 12'288;
  for (int i = 0; i < kSshd; ++i) {
    workload.Add(library->sshd(),
                 /*tick=*/static_cast<Tick>(i) * 16'000 / kSshd);
  }
  constexpr int kBash = 4'096;
  for (int i = 0; i < kBash; ++i) {
    workload.Add(library->bash(),
                 /*tick=*/static_cast<Tick>(i) * 16'000 / kBash);
  }
  workload.Retain(library);
  spec.workload = std::move(workload);
  spec.options.duration_ticks = 20'000;
  return spec;
}

ExperimentSpec DvfsVsThrottle() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 40.0;
  // The cap is enforced purely by frequency scaling: hlt throttling off,
  // the governor steps P-states against the same 40 W budget. Run
  // paper-hot-task (same workload, hlt on, governor none) next to this for
  // the paper's "frequency scaling vs halting" comparison in one command
  // each.
  spec.config.throttling_enabled = false;
  spec.config.frequency_governor = "thermal-stepdown";
  auto library = MakeLibrary(spec.config);
  spec.workload = Workload(HotTaskWorkload(*library, 4));
  spec.workload.Retain(library);
  spec.options.record_task_cpu = true;
  return spec;
}

ExperimentSpec GovernorComparison() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 40.0;
  // hlt throttling stays armed as the backstop, so --governor none is the
  // paper's pure-hlt baseline and any governor shows how much halting it
  // avoids. The mix alternates hot compute with sleepy daemons to give the
  // utilization-driven governor real idle troughs to react to.
  spec.config.throttling_enabled = true;
  spec.config.frequency_governor = "ondemand";
  auto library = MakeLibrary(spec.config);
  Workload workload;
  for (int i = 0; i < 6; ++i) {
    workload.Add(library->bitcnts());
  }
  for (int i = 0; i < 4; ++i) {
    workload.Add(library->memrw());
  }
  for (int i = 0; i < 24; ++i) {
    workload.Add(library->sshd(), /*tick=*/static_cast<Tick>(i) * 500);
  }
  workload.Retain(library);
  spec.workload = std::move(workload);
  spec.options.duration_ticks = 240'000;
  return spec;
}

ExperimentSpec ChaosSoak() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  // SMT on: hotplug must cope with sibling pairs sharing a package, not just
  // one logical CPU per core.
  spec.config.topology = CpuTopology::PaperXSeries445(/*smt_enabled=*/true);
  spec.config.explicit_max_power_physical = 60.0;
  spec.config.frequency_governor = "thermal-stepdown";
  // The plan layers every fault kind: a 10-pair churn schedule expanded from
  // its own seed, two thermal emergencies, two clamp windows, and one
  // hand-placed hotplug pair on each node. Deterministic by construction -
  // the schedule is a function of this string alone.
  spec.config.fault_spec =
      "churn:10@50000:1337,spike:0@6000:12:2500,spike:5@20000:9:2000,"
      "clamp:2@10000:3:6000,clamp:6@30000:2:5000,off:3@4000,on:3@16000,"
      "off:11@24000,on:11@36000";
  auto library = MakeLibrary(spec.config);
  Workload workload;
  workload = Workload(MixedWorkload(*library, 2));
  for (int i = 0; i < 16; ++i) {
    workload.Add(library->sshd(), /*tick=*/static_cast<Tick>(i) * 700);
  }
  workload.Retain(library);
  spec.workload = std::move(workload);
  spec.options.duration_ticks = 60'000;
  return spec;
}

ExperimentSpec TraceReplay() {
  ExperimentSpec spec;
  spec.config = PaperMachine();
  spec.config.explicit_max_power_physical = 60.0;
  auto library = MakeLibrary(spec.config);
  // A hand-written arrival schedule: a cool floor at start, then a hot
  // burst arriving mid-run in two waves, exercising TraceWorkload end to
  // end (the same parser `eastool --workload trace:FILE` uses).
  static constexpr char kTrace[] =
      "tick,program,nice\n"
      "0,memrw,0\n"
      "0,memrw,0\n"
      "0,pushpop,0\n"
      "0,pushpop,0\n"
      "60000,bitcnts,0\n"
      "60000,bitcnts,0\n"
      "120000,bitcnts,0\n"
      "120000,bitcnts,0\n"
      "180000,openssl,0\n"
      "240000,bzip2,0\n";
  Workload workload;
  std::string error;
  // The built-in trace is a compile-time constant; parsing cannot fail.
  (void)ParseTraceWorkload(kTrace, *library, &workload, &error);
  workload.Retain(library);
  spec.workload = std::move(workload);
  return spec;
}

}  // namespace

void RegisterBuiltinScenarios(ScenarioRegistry& registry) {
  registry.Register("paper-mixed",
                    "Section 6.1: 18-task mixed Table 2 workload, 60 W cap, energy-aware",
                    PaperMixed);
  registry.Register("paper-homogeneous",
                    "Figure 8: memrw/pushpop/bitcnts homogeneity mix, 60 W cap",
                    PaperHomogeneous);
  registry.Register("paper-hot-task", "Figures 9/10: bitcnts hot tasks under 40 W throttling",
                    PaperHotTask);
  registry.Register("short-tasks",
                    "Section 6.2: churning short hot/cool tasks, stresses initial placement",
                    ShortTasks);
  registry.Register("phase-shift", "Stressor: 8 tasks flip ALU-hot <-> mem-cool mix every 30 s",
                    PhaseShift);
  registry.Register("poisson-open-loop",
                    "Stressor: open-loop Poisson arrivals (2/s) of the Table 2 mix",
                    PoissonOpenLoop);
  registry.Register(
      "server-consolidation",
      "Scale stressor: 150+ mostly-sleeping service daemons ramp up over a cool batch floor",
      ServerConsolidation);
  registry.Register("trace-replay", "Trace playback: staged bitcnts burst over a memrw floor",
                    TraceReplay);
  registry.Register("datacenter-consolidation",
                    "Cluster stressor: 512-CPU five-level topology (256 packages), ~16k "
                    "mostly-sleeping daemons over a batch floor",
                    DatacenterConsolidation);
  registry.Register("dvfs-vs-throttle",
                    "DVFS half of the capping comparison: paper-hot-task's 40 W cap enforced "
                    "by the thermal-stepdown governor instead of hlt",
                    DvfsVsThrottle);
  registry.Register("governor-comparison",
                    "Governor proving ground: bursty mixed workload under a 40 W cap with hlt "
                    "backstop; sweep --governor across none/thermal-stepdown/ondemand",
                    GovernorComparison);
  registry.Register("chaos-soak",
                    "Chaos soak: SMT paper box under a dense seeded fault plan (hotplug churn, "
                    "thermal spikes, P-state clamps) with the invariant checker armed every tick",
                    ChaosSoak);
}

}  // namespace eas
