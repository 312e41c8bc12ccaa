//! The complete TC277 system: three cores, the SRI crossbar and the
//! shared memories, driven by a pluggable timing kernel.
//!
//! Two engines exist and are bit-identical ([`crate::config::SimConfig::engine`]):
//! the event-driven kernel ([`crate::engine`], the default) and the
//! per-cycle reference stepper ([`crate::reference`]).
//!
//! # Examples
//!
//! Run a small task in isolation and read its debug counters:
//!
//! ```
//! use tc27x_sim::addr::{CoreId, Region};
//! use tc27x_sim::layout::{DataObject, Placement, TaskSpec};
//! use tc27x_sim::program::{Pattern, Program};
//! use tc27x_sim::system::System;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = Program::build(|b| {
//!     b.repeat(100, |b| {
//!         b.load("shared", Pattern::Sequential);
//!         b.compute(3);
//!     });
//! });
//! let spec = TaskSpec::new("probe", prog, Placement::pspr(CoreId(1)))
//!     .with_object(DataObject::new("shared", 4096, Placement::new(Region::Lmu, false)));
//!
//! let mut sys = System::tc277();
//! sys.load(CoreId(1), &spec)?;
//! let outcome = sys.run()?;
//! let c = outcome.counters(CoreId(1));
//! assert_eq!(c.dmem_stall, 100 * 10); // cs^{lmu,da} = 10 per access
//! # Ok(())
//! # }
//! ```

use crate::addr::{CoreId, MemMap};
use crate::config::SimConfig;
use crate::core_pipeline::CorePipeline;
use crate::counters::{GroundTruth, KernelStats, SimStats};
use crate::engine::Engine;
use crate::engine::StepObserver;
use crate::layout::{LayoutError, TaskSpec};
use crate::linker::Linker;
use crate::solo::{Recorder, SoloTimeline, Splicer};
use crate::sri::Sri;
use crate::DebugCounters;
use std::error::Error;
use std::fmt;

/// Result of a completed simulation run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    per_core: Vec<Option<CoreResult>>,
}

/// Per-core results of a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreResult {
    /// Debug counters at the end of the run.
    pub counters: DebugCounters,
    /// Simulator-only ground truth.
    pub ground_truth: GroundTruth,
    /// Cycle the task finished at, if it did.
    pub finish_cycle: Option<u64>,
    /// `true` if SRI capacity enforcement suspended the core.
    pub suspended: bool,
    /// Events the core's bounded trace dropped after its buffer filled
    /// (0 when tracing is disabled or nothing was lost). Surfaced here
    /// so callers rendering a trace can tell it is truncated without
    /// holding on to the [`System`].
    pub trace_dropped: u64,
}

impl RunOutcome {
    /// Debug counters of a core.
    ///
    /// # Panics
    ///
    /// Panics if no task was loaded on `core`.
    pub fn counters(&self, core: CoreId) -> DebugCounters {
        self.result(core).counters
    }

    /// Ground truth of a core.
    ///
    /// # Panics
    ///
    /// Panics if no task was loaded on `core`.
    pub fn ground_truth(&self, core: CoreId) -> GroundTruth {
        self.result(core).ground_truth
    }

    /// Full per-core result.
    ///
    /// # Panics
    ///
    /// Panics if no task was loaded on `core`.
    pub fn result(&self, core: CoreId) -> CoreResult {
        self.per_core[core.index()].unwrap_or_else(|| panic!("no task was loaded on {core}"))
    }

    /// Execution time (CCNT) of a core's task.
    ///
    /// # Panics
    ///
    /// Panics if no task was loaded on `core`.
    pub fn execution_time(&self, core: CoreId) -> u64 {
        self.counters(core).ccnt
    }

    /// Events dropped from a core's bounded trace (see
    /// [`CoreResult::trace_dropped`]).
    ///
    /// # Panics
    ///
    /// Panics if no task was loaded on `core`.
    pub fn trace_dropped(&self, core: CoreId) -> u64 {
        self.result(core).trace_dropped
    }
}

/// The observed CCNT of [`System::run_until_spliced`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SplicedRun {
    /// CCNT of the observed core's task.
    pub cycles: u64,
    /// Whether the solo tail was computed rather than simulated.
    pub spliced: bool,
}

/// Errors from driving the system.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Linking a task failed.
    Layout(LayoutError),
    /// The run exceeded [`SimConfig::max_cycles`].
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// A core was loaded twice.
    CoreBusy {
        /// The core in question.
        core: CoreId,
    },
    /// A task was loaded on a core the platform does not have
    /// ([`SimConfig::active_cores`]).
    InactiveCore {
        /// The core in question.
        core: CoreId,
        /// Active cores on this platform.
        active: usize,
    },
    /// A task places code or data on a slave slot the platform does not
    /// have ([`SimConfig::slave_present`]).
    SlaveAbsent {
        /// The absent slave.
        target: crate::Target,
    },
    /// `run` was called with no tasks loaded.
    NothingLoaded,
    /// [`System::run_solo`] was called with several tasks loaded.
    NotSolo {
        /// Tasks loaded.
        loaded: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Layout(e) => write!(f, "link error: {e}"),
            SimError::CycleLimit { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::CoreBusy { core } => write!(f, "{core} already has a task loaded"),
            SimError::InactiveCore { core, active } => {
                write!(f, "{core} is not active (platform has {active} cores)")
            }
            SimError::SlaveAbsent { target } => {
                write!(f, "slave {target} does not exist on this platform")
            }
            SimError::NothingLoaded => write!(f, "no tasks loaded"),
            SimError::NotSolo { loaded } => {
                write!(f, "a solo run needs exactly one task ({loaded} loaded)")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayoutError> for SimError {
    fn from(e: LayoutError) -> Self {
        SimError::Layout(e)
    }
}

/// The simulated TC277 system.
pub struct System {
    pub(crate) config: SimConfig,
    pub(crate) map: MemMap,
    linker: Linker,
    pub(crate) sri: Sri,
    pub(crate) cores: Vec<Option<CorePipeline>>,
    pub(crate) now: u64,
    pub(crate) kernel: KernelStats,
}

impl System {
    /// Creates a system with the TC277 reference configuration.
    pub fn tc277() -> Self {
        System::with_config(SimConfig::tc277_reference())
    }

    /// Creates a system with a custom configuration.
    pub fn with_config(config: SimConfig) -> Self {
        let map = MemMap::tc277();
        let mut sri = Sri::with_arbitration(
            config.master_priority,
            config.arbitration,
            config.active_cores,
        );
        if config.attribution {
            sri.enable_attribution();
        }
        System {
            linker: Linker::new(map.clone()),
            map,
            config,
            sri,
            cores: (0..CoreId::COUNT).map(|_| None).collect(),
            now: 0,
            kernel: KernelStats::default(),
        }
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The execution trace of a core (empty unless tracing is enabled
    /// via [`SimConfig::trace_capacity`]). Available after `run`.
    ///
    /// # Panics
    ///
    /// Panics if no task was loaded on `core`.
    pub fn trace(&self, core: CoreId) -> &crate::trace::Trace {
        self.cores[core.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("no task was loaded on {core}"))
            .trace()
    }

    /// Links `spec` and loads it onto `core`.
    ///
    /// # Errors
    ///
    /// [`SimError::CoreBusy`] if the core already has a task, or any
    /// [`LayoutError`] from linking.
    pub fn load(&mut self, core: CoreId, spec: &TaskSpec) -> Result<(), SimError> {
        if core.index() >= self.config.active_cores {
            return Err(SimError::InactiveCore {
                core,
                active: self.config.active_cores,
            });
        }
        if self.cores[core.index()].is_some() {
            return Err(SimError::CoreBusy { core });
        }
        // Placements must land on slaves this platform actually has;
        // core-local scratchpads are always available.
        let placements = spec
            .segments
            .iter()
            .map(|s| s.placement)
            .chain(spec.data_objects.iter().map(|o| o.placement));
        for p in placements {
            if let Some(target) = p.region.sri_target() {
                if !self.config.slave_present[target.index()] {
                    return Err(SimError::SlaveAbsent { target });
                }
            }
        }
        let image = self.linker.link(core, spec)?;
        self.cores[core.index()] = Some(CorePipeline::new(core, image, &self.config));
        Ok(())
    }

    /// Runs until **all** loaded tasks finish.
    ///
    /// # Errors
    ///
    /// [`SimError::NothingLoaded`] with no tasks,
    /// [`SimError::CycleLimit`] if the run exceeds the configured cap.
    pub fn run(&mut self) -> Result<RunOutcome, SimError> {
        self.run_while(any_unfinished)
    }

    /// Runs until the task on `observed` finishes; other cores keep
    /// generating interference the whole time (the standard co-run
    /// measurement protocol).
    ///
    /// # Errors
    ///
    /// Same as [`System::run`], plus a panic-free error if `observed`
    /// has no task.
    pub fn run_until(&mut self, observed: CoreId) -> Result<RunOutcome, SimError> {
        if self.cores[observed.index()].is_none() {
            return Err(SimError::NothingLoaded);
        }
        self.run_while(unfinished(observed))
    }

    /// Runs the one loaded task to completion, exactly like
    /// [`System::run`], and records its solo timeline for
    /// [`System::run_until_spliced`]. The reference stepper records no
    /// checkpoints, so its timeline never splices.
    ///
    /// # Errors
    ///
    /// [`SimError::NotSolo`] unless exactly one task is loaded, plus
    /// those of [`System::run`].
    pub fn run_solo(&mut self) -> Result<(RunOutcome, SoloTimeline), SimError> {
        let loaded: Vec<CoreId> = self.cores.iter().flatten().map(CorePipeline::id).collect();
        let &[core] = loaded.as_slice() else {
            return Err(match loaded.len() {
                0 => SimError::NothingLoaded,
                n => SimError::NotSolo { loaded: n },
            });
        };
        let mut recorder = Recorder::new(core);
        self.drive(any_unfinished, &mut recorder)?;
        let outcome = self.outcome();
        let timeline = recorder.finish(self.now, outcome.execution_time(core));
        Ok((outcome, timeline))
    }

    /// Runs until the task on `observed` finishes, like
    /// [`System::run_until`], and returns its CCNT. When `timeline` is
    /// that task's solo timeline on this configuration, the run stops
    /// at the first checkpoint where `observed` runs alone in its
    /// recorded state and computes the rest ([`crate::solo`]); the
    /// answer and any [`SimError::CycleLimit`] are exactly those of the
    /// full run. The system is consumed because a spliced run leaves no
    /// complete counters, statistics or trace behind. Traced or
    /// attributed configurations and the reference stepper always run
    /// in full.
    ///
    /// # Errors
    ///
    /// Same as [`System::run_until`].
    pub fn run_until_spliced(
        mut self,
        observed: CoreId,
        timeline: &SoloTimeline,
    ) -> Result<SplicedRun, SimError> {
        let Some(core) = self.cores[observed.index()].as_ref() else {
            return Err(SimError::NothingLoaded);
        };
        let keep_going = unfinished(observed);
        let splice = self.config.engine == Engine::Event
            && self.config.trace_capacity == 0
            && !self.config.attribution
            && timeline.core() == core.id();
        let ended = if splice {
            self.drive(keep_going, &mut Splicer::new(timeline))?
        } else {
            self.drive(keep_going, &mut ())?
        };
        match ended {
            Some(end) if end > self.config.max_cycles => Err(SimError::CycleLimit {
                limit: self.config.max_cycles,
            }),
            Some(end) => Ok(SplicedRun {
                cycles: timeline.ccnt_at(end),
                spliced: true,
            }),
            None => Ok(SplicedRun {
                cycles: self.outcome().execution_time(observed),
                spliced: false,
            }),
        }
    }

    fn run_while(
        &mut self,
        keep_going: impl Fn(&[Option<CorePipeline>]) -> bool,
    ) -> Result<RunOutcome, SimError> {
        self.drive(keep_going, &mut ())?;
        Ok(self.outcome())
    }

    /// Runs to the predicate on the configured kernel, `observer`
    /// watching the event kernel; `Ok(Some(_))` is its early answer.
    fn drive(
        &mut self,
        keep_going: impl Fn(&[Option<CorePipeline>]) -> bool,
        observer: &mut impl StepObserver,
    ) -> Result<Option<u64>, SimError> {
        if self.cores.iter().all(Option::is_none) {
            return Err(SimError::NothingLoaded);
        }
        match self.config.engine {
            Engine::Tick => crate::reference::run_tick(self, &keep_going).map(|()| None),
            Engine::Event => crate::engine::run_event(self, keep_going, observer),
        }
    }

    /// Post-run statistics snapshot for the telemetry layer: per-slave
    /// SRI queueing-delay distributions (deterministic — grants are
    /// bit-identical across engines) and event-kernel fast-forward /
    /// claims-depth statistics (engine-dependent; all zero under the
    /// reference stepper). Deliberately *not* part of [`RunOutcome`],
    /// which the engine-equivalence suite compares bit-for-bit.
    pub fn stats(&self) -> SimStats {
        SimStats {
            slaves: std::array::from_fn(|i| self.sri.slave_stats(crate::Target::all()[i])),
            kernel: self.kernel.clone(),
            attribution: self.sri.attribution_matrix(),
        }
    }

    /// Snapshot of the per-core results, shared by both engines.
    fn outcome(&self) -> RunOutcome {
        RunOutcome {
            cycles: self.now,
            per_core: self
                .cores
                .iter()
                .map(|c| {
                    c.as_ref().map(|core| CoreResult {
                        counters: core.counters(),
                        ground_truth: core.ground_truth(),
                        finish_cycle: core.finish_cycle(),
                        suspended: core.is_suspended(),
                        trace_dropped: core.trace().dropped(),
                    })
                })
                .collect(),
        }
    }
}

/// [`System::run`]'s predicate: some loaded task has not finished.
fn any_unfinished(cores: &[Option<CorePipeline>]) -> bool {
    cores.iter().flatten().any(|c| !c.is_done())
}

/// [`System::run_until`]'s predicate: the task on `observed` has not
/// finished.
fn unfinished(observed: CoreId) -> impl Fn(&[Option<CorePipeline>]) -> bool {
    move |cores| {
        cores[observed.index()]
            .as_ref()
            .is_some_and(|c| !c.is_done())
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field(
                "tasks",
                &self
                    .cores
                    .iter()
                    .flatten()
                    .map(|c| c.task_name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Region;
    use crate::layout::{DataObject, Placement};
    use crate::program::{Pattern, Program};

    fn lmu_nc() -> Placement {
        Placement::new(Region::Lmu, false)
    }

    fn spec_with_lmu_loads(n: u32, compute: u32) -> TaskSpec {
        let prog = Program::build(|b| {
            b.repeat(n, |b| {
                b.load("obj", Pattern::Sequential);
                if compute > 0 {
                    b.compute(compute);
                }
            });
        });
        TaskSpec::new("probe", prog, Placement::pspr(CoreId(1))).with_object(DataObject::new(
            "obj",
            8 << 10,
            lmu_nc(),
        ))
    }

    #[test]
    fn empty_system_refuses_to_run() {
        let mut sys = System::tc277();
        assert_eq!(sys.run().unwrap_err(), SimError::NothingLoaded);
    }

    #[test]
    fn double_load_rejected() {
        let mut sys = System::tc277();
        let spec = spec_with_lmu_loads(1, 0);
        sys.load(CoreId(1), &spec).unwrap();
        assert!(matches!(
            sys.load(CoreId(1), &spec),
            Err(SimError::CoreBusy { .. })
        ));
    }

    #[test]
    fn isolated_lmu_loads_stall_exactly_cs_lmu_da() {
        // Each uncached LMU load: service 11, hide 1 → 10 stall cycles.
        let mut sys = System::tc277();
        sys.load(CoreId(1), &spec_with_lmu_loads(50, 0)).unwrap();
        let out = sys.run().unwrap();
        let c = out.counters(CoreId(1));
        assert_eq!(c.dmem_stall, 50 * 10);
        assert_eq!(c.pmem_stall, 0, "PSPR code causes no PMI stalls");
        assert_eq!(c.pcache_miss, 0);
        let g = out.ground_truth(CoreId(1));
        assert_eq!(g.accesses(crate::Target::Lmu, crate::Operation::Data), 50);
    }

    #[test]
    fn ccnt_equals_finish_cycle_when_started_at_zero() {
        let mut sys = System::tc277();
        sys.load(CoreId(1), &spec_with_lmu_loads(10, 5)).unwrap();
        let out = sys.run().unwrap();
        let r = out.result(CoreId(1));
        assert_eq!(r.counters.ccnt, r.finish_cycle.unwrap());
    }

    #[test]
    fn contention_inflates_observed_time_and_stalls() {
        // Two cores hammering the same LMU in lockstep.
        let mk = |core: CoreId| {
            let prog = Program::build(|b| {
                b.repeat(200, |b| {
                    b.load("obj", Pattern::Sequential);
                });
            });
            TaskSpec::new("hammer", prog, Placement::pspr(core)).with_object(DataObject::new(
                "obj",
                4 << 10,
                lmu_nc(),
            ))
        };
        // Isolation.
        let mut iso = System::tc277();
        iso.load(CoreId(1), &mk(CoreId(1))).unwrap();
        let iso_time = iso.run().unwrap().execution_time(CoreId(1));
        // Co-run.
        let mut pair = System::tc277();
        pair.load(CoreId(1), &mk(CoreId(1))).unwrap();
        pair.load(CoreId(2), &mk(CoreId(2))).unwrap();
        let co = pair.run_until(CoreId(1)).unwrap();
        let co_time = co.execution_time(CoreId(1));
        assert!(
            co_time > iso_time,
            "contention must slow the task: iso={iso_time} co={co_time}"
        );
        // Round-robin bounds the slowdown by one contender request per
        // own request: delta ≤ 200 × service(11).
        assert!(co_time - iso_time <= 200 * 11);
    }

    #[test]
    fn disjoint_slaves_do_not_interfere() {
        let code = |core: CoreId| Placement::pspr(core);
        let mk = |core: CoreId, obj_place: Placement| {
            let prog = Program::build(|b| {
                b.repeat(100, |b| {
                    b.load("obj", Pattern::Sequential);
                });
            });
            TaskSpec::new("t", prog, code(core)).with_object(DataObject::new(
                "obj",
                4 << 10,
                obj_place,
            ))
        };
        let mut iso = System::tc277();
        iso.load(CoreId(1), &mk(CoreId(1), lmu_nc())).unwrap();
        let iso_time = iso.run().unwrap().execution_time(CoreId(1));

        let mut pair = System::tc277();
        pair.load(CoreId(1), &mk(CoreId(1), lmu_nc())).unwrap();
        pair.load(
            CoreId(2),
            &mk(CoreId(2), Placement::new(Region::Dflash, false)),
        )
        .unwrap();
        let co_time = pair.run_until(CoreId(1)).unwrap().execution_time(CoreId(1));
        assert_eq!(
            iso_time, co_time,
            "SRI transactions to distinct slaves proceed in parallel"
        );
    }

    #[test]
    fn same_priority_class_is_the_most_stressing_case() {
        // §2: the paper analyses contenders in the same SRI priority
        // class as the worst case. Giving the analysed core a higher
        // class can only reduce its observed co-run time.
        let mk = |core: CoreId| {
            let prog = Program::build(|b| {
                b.repeat(300, |b| {
                    b.load("obj", Pattern::Sequential);
                });
            });
            TaskSpec::new("hammer", prog, Placement::pspr(core)).with_object(DataObject::new(
                "obj",
                4 << 10,
                lmu_nc(),
            ))
        };
        let run = |priority: [u8; 3]| {
            let cfg = SimConfig::tc277_reference().with_master_priority(priority);
            let mut sys = System::with_config(cfg);
            sys.load(CoreId(0), &mk(CoreId(0))).unwrap();
            sys.load(CoreId(1), &mk(CoreId(1))).unwrap();
            sys.load(CoreId(2), &mk(CoreId(2))).unwrap();
            sys.run_until(CoreId(1)).unwrap().execution_time(CoreId(1))
        };
        let same_class = run([0, 0, 0]);
        let app_high = run([0, 1, 0]);
        assert!(
            app_high <= same_class,
            "priority must not slow the favoured core: {app_high} vs {same_class}"
        );
        // Against two saturating contenders the favoured core skips the
        // round-robin queueing entirely and is strictly faster.
        assert!(app_high < same_class, "{app_high} vs {same_class}");
    }

    #[test]
    fn trace_is_consistent_with_counters() {
        let cfg = SimConfig::tc277_reference().with_trace_capacity(10_000);
        let mut sys = System::with_config(cfg);
        sys.load(CoreId(1), &spec_with_lmu_loads(25, 2)).unwrap();
        let out = sys.run().unwrap();
        let trace = sys.trace(CoreId(1));
        use crate::trace::TraceKind;
        let posts = trace
            .filter(|k| matches!(k, TraceKind::SriPost { .. }))
            .count() as u64;
        assert_eq!(posts, out.ground_truth(CoreId(1)).total());
        let stall_sum: u64 = trace
            .filter(|k| matches!(k, TraceKind::SriComplete { .. }))
            .map(|r| match r.kind {
                TraceKind::SriComplete { stall, .. } => stall,
                _ => unreachable!(),
            })
            .sum();
        let k = out.counters(CoreId(1));
        assert_eq!(stall_sum, k.pmem_stall + k.dmem_stall);
        assert_eq!(
            trace
                .filter(|k| matches!(k, TraceKind::TaskComplete))
                .count(),
            1
        );
    }

    #[test]
    fn sri_quota_suspends_the_offender_only() {
        let mk = |core: CoreId, n: u32| {
            let prog = Program::build(|b| {
                b.repeat(n, |b| {
                    b.load("obj", Pattern::Sequential);
                });
            });
            TaskSpec::new("t", prog, Placement::pspr(core)).with_object(DataObject::new(
                "obj",
                4 << 10,
                lmu_nc(),
            ))
        };
        let cfg = SimConfig::tc277_reference().with_sri_quota(CoreId(2), 40);
        let mut sys = System::with_config(cfg);
        sys.load(CoreId(1), &mk(CoreId(1), 200)).unwrap();
        sys.load(CoreId(2), &mk(CoreId(2), 200)).unwrap();
        let out = sys.run_until(CoreId(1)).unwrap();
        let offender = out.result(CoreId(2));
        assert!(offender.suspended);
        assert_eq!(offender.ground_truth.total(), 40, "hard cap on SRI traffic");
        assert!(!out.result(CoreId(1)).suspended);
        // The protected core suffers interference only while the
        // offender was alive: at most 40 collisions × 11 cycles.
        let iso = {
            let mut s = System::tc277();
            s.load(CoreId(1), &mk(CoreId(1), 200)).unwrap();
            s.run().unwrap().execution_time(CoreId(1))
        };
        let co = out.execution_time(CoreId(1));
        assert!(
            co - iso <= 40 * 11,
            "delta {} exceeds the quota bound",
            co - iso
        );
    }

    #[test]
    fn quota_never_triggers_below_the_budget() {
        let prog = Program::build(|b| {
            b.repeat(30, |b| {
                b.load("obj", Pattern::Sequential);
            });
        });
        let spec = TaskSpec::new("t", prog, Placement::pspr(CoreId(1)))
            .with_object(DataObject::new("obj", 4 << 10, lmu_nc()));
        let cfg = SimConfig::tc277_reference().with_sri_quota(CoreId(1), 30);
        let mut sys = System::with_config(cfg);
        sys.load(CoreId(1), &spec).unwrap();
        let out = sys.run().unwrap();
        assert!(!out.result(CoreId(1)).suspended);
        assert_eq!(out.ground_truth(CoreId(1)).total(), 30);
        assert!(out.result(CoreId(1)).finish_cycle.is_some());
    }

    #[test]
    fn cycle_limit_guards_runaway() {
        let mut cfg = SimConfig::tc277_reference();
        cfg.max_cycles = 100;
        let mut sys = System::with_config(cfg);
        sys.load(CoreId(1), &spec_with_lmu_loads(10_000, 0))
            .unwrap();
        assert!(matches!(
            sys.run(),
            Err(SimError::CycleLimit { limit: 100 })
        ));
    }

    /// Runs one config on both engines and asserts the outcomes are
    /// bit-identical, including traces.
    fn assert_engines_agree(cfg: SimConfig, tasks: &[(CoreId, TaskSpec)]) {
        use crate::engine::Engine;
        let run = |engine: Engine| {
            let mut sys = System::with_config(cfg.clone().with_engine(engine));
            for (core, spec) in tasks {
                sys.load(*core, spec).unwrap();
            }
            let out = sys.run();
            let traces: Vec<_> = tasks
                .iter()
                .map(|(core, _)| sys.trace(*core).records().to_vec())
                .collect();
            (out, traces)
        };
        let (tick, tick_traces) = run(Engine::Tick);
        let (event, event_traces) = run(Engine::Event);
        match (&tick, &event) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.cycles, b.cycles);
                for (core, _) in tasks {
                    let (ra, rb) = (a.result(*core), b.result(*core));
                    assert_eq!(ra.counters, rb.counters, "{core}");
                    assert_eq!(ra.ground_truth, rb.ground_truth, "{core}");
                    assert_eq!(ra.finish_cycle, rb.finish_cycle, "{core}");
                    assert_eq!(ra.suspended, rb.suspended, "{core}");
                    assert_eq!(ra.trace_dropped, rb.trace_dropped, "{core}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("engines disagree on success: tick={a:?} event={b:?}"),
        }
        assert_eq!(tick_traces, event_traces);
    }

    #[test]
    fn engines_agree_on_an_isolated_run() {
        assert_engines_agree(
            SimConfig::tc277_reference().with_trace_capacity(10_000),
            &[(CoreId(1), spec_with_lmu_loads(50, 3))],
        );
    }

    #[test]
    fn engines_agree_under_contention_with_quota() {
        let mk = |core: CoreId| {
            let prog = Program::build(|b| {
                b.repeat(120, |b| {
                    b.load("obj", Pattern::Sequential);
                });
            });
            TaskSpec::new("hammer", prog, Placement::pspr(core)).with_object(DataObject::new(
                "obj",
                4 << 10,
                lmu_nc(),
            ))
        };
        let cfg = SimConfig::tc277_reference()
            .with_sri_quota(CoreId(2), 40)
            .with_trace_capacity(4_000);
        assert_engines_agree(
            cfg,
            &[
                (CoreId(0), mk(CoreId(0))),
                (CoreId(1), mk(CoreId(1))),
                (CoreId(2), mk(CoreId(2))),
            ],
        );
    }

    #[test]
    fn engines_agree_on_cycle_limit_truncation() {
        for limit in [1, 7, 100, 1_000] {
            assert_engines_agree(
                SimConfig::tc277_reference().with_max_cycles(limit),
                &[(CoreId(1), spec_with_lmu_loads(10_000, 0))],
            );
        }
    }

    #[test]
    fn stats_split_deterministic_from_kernel_dependent() {
        use crate::Target;
        let run = |engine: crate::engine::Engine| {
            let cfg = SimConfig::tc277_reference().with_engine(engine);
            let mut sys = System::with_config(cfg);
            sys.load(CoreId(1), &spec_with_lmu_loads(50, 3)).unwrap();
            sys.run().unwrap();
            sys.stats()
        };
        let tick = run(crate::engine::Engine::Tick);
        let event = run(crate::engine::Engine::Event);
        // SRI statistics are deterministic: identical across engines.
        for t in Target::all() {
            assert_eq!(tick.slave(t).served, event.slave(t).served, "{t}");
            assert_eq!(tick.slave(t), event.slave(t), "{t}");
        }
        assert_eq!(event.slave(Target::Lmu).served, 50);
        assert_eq!(
            event.slave(Target::Lmu).delay_hist.count(),
            50,
            "one delay observation per grant"
        );
        // Kernel statistics are engine-dependent: the stepper never
        // fast-forwards, the event kernel must have (compute gaps).
        assert_eq!(tick.kernel, crate::counters::KernelStats::default());
        assert!(event.kernel.ff_jumps > 0);
        assert_eq!(event.kernel.ff_jumps, event.kernel.gap_hist.count());
        assert!(event.kernel.depth_hist.count() > 0);
    }

    #[test]
    fn event_engine_is_the_default() {
        assert_eq!(
            System::tc277().config().engine,
            crate::engine::Engine::Event
        );
    }

    #[test]
    fn outcome_surfaces_trace_truncation() {
        let cfg = SimConfig::tc277_reference().with_trace_capacity(4);
        let mut sys = System::with_config(cfg);
        sys.load(CoreId(1), &spec_with_lmu_loads(25, 0)).unwrap();
        let out = sys.run().unwrap();
        assert!(out.trace_dropped(CoreId(1)) > 0);
        assert_eq!(out.trace_dropped(CoreId(1)), sys.trace(CoreId(1)).dropped());
        // An untraced run drops nothing.
        let mut plain = System::tc277();
        plain.load(CoreId(1), &spec_with_lmu_loads(5, 0)).unwrap();
        assert_eq!(plain.run().unwrap().trace_dropped(CoreId(1)), 0);
    }
}
