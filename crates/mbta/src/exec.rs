//! The parallel experiment engine: batched simulation jobs over a
//! deterministic thread pool, with memoized isolation profiles.
//!
//! Every evaluation campaign in this workspace decomposes into two job
//! kinds — *isolation runs* (one task alone on a fresh TC277) and
//! *co-runs* (app plus contender). Both are pure functions of their
//! task specs, so:
//!
//! * batches can run on any number of threads and still produce
//!   bit-identical results, because the [`pool`](crate::pool) collects
//!   results by job index;
//! * isolation profiles can be memoized across (and within) batches,
//!   keyed by a stable fingerprint of the task spec, the core and the
//!   platform configuration ([`obs::Fnv`]). Calibration
//!   probes and repeated panels hit the cache instead of re-simulating;
//! * a caller that names a profile by its [`Recipe`] — the generator
//!   call that builds the spec — gets a repeat answer without building
//!   or hashing the spec again
//!   ([`ExecEngine::isolation_by_recipe`]);
//! * a spec that is a clone of one keyed before — the same program
//!   bodies, equal small fields — is keyed by lookup in a small intern
//!   table instead of by hashing its whole text again.
//! * a co-run whose app has an isolation job in the same batch splices
//!   its contender-free tail from the app's solo timeline instead of
//!   simulating it ([`tc27x_sim::solo`]): the timeline is recorded once
//!   per app and kept next to the profile memo;
//! * with a durable store attached, the memo outlives the process:
//!   every executed job is recorded as it completes, co-runs are keyed
//!   and memoized too, and a restarted engine primes its memo from the
//!   records ([`crate::campaign`]). This engine is the only batch
//!   planner: a journaled campaign plans, keys, splices and replays
//!   exactly as a plain run.
//!
//! # Examples
//!
//! ```
//! use mbta::{ExecEngine, SimJob};
//! use tc27x_sim::{CoreId, DeploymentScenario};
//! use workloads::control_loop;
//!
//! # fn main() -> Result<(), mbta::JobError> {
//! let engine = ExecEngine::new(2);
//! let spec = control_loop(DeploymentScenario::Scenario1, CoreId(1), 42);
//! let first = engine.isolation(&spec, CoreId(1))?;
//! let second = engine.isolation(&spec, CoreId(1))?; // served from cache
//! assert_eq!(first.counters(), second.counters());
//! assert_eq!(engine.report().cache_hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::campaign::Campaign;
use crate::intern::KeyIntern;
use crate::pool;
use crate::telemetry::Telemetry;
use contention::IsolationProfile;
use obs::Fnv;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tc27x_sim::{CoreId, DeploymentScenario, Engine, SimError, SimStats, SoloTimeline, TaskSpec};
use workloads::LoadLevel;

/// Why one job in a batch failed.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum JobFailure {
    /// The simulation returned an error.
    Sim(SimError),
    /// The job panicked; the payload message is preserved. The panic is
    /// contained to the job — the rest of the batch still runs, and the
    /// engine (including its memo cache) stays usable.
    Panic(String),
    /// A campaign watchdog gave up on the job after `millis` of
    /// wall-clock time. The job is recorded and the campaign degrades
    /// gracefully instead of aborting (see [`ExecEngine::with_watchdog`]).
    TimedOut {
        /// The watchdog limit that expired, in milliseconds.
        millis: u64,
    },
    /// A transient, retryable fault — e.g. a dropped DSU counter read
    /// injected by a campaign fault plan. Distinct from permanent
    /// failures (link errors, exhausted budgets): the campaign retry
    /// policy re-measures these with the attempt folded into the seed.
    Transient {
        /// Human-readable description of the fault.
        detail: String,
    },
}

impl JobFailure {
    /// Whether a bounded campaign retry may recover this failure.
    /// Only [`JobFailure::Transient`] qualifies: simulation errors are
    /// deterministic, a panic indicates a harness bug, and a timed-out
    /// job would time out again within the same watchdog.
    pub fn is_transient(&self) -> bool {
        matches!(self, JobFailure::Transient { .. })
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Sim(e) => write!(f, "{e}"),
            JobFailure::Panic(msg) => write!(f, "job panicked: {msg}"),
            JobFailure::TimedOut { millis } => {
                write!(f, "job exceeded the {millis} ms watchdog")
            }
            JobFailure::Transient { detail } => write!(f, "transient fault: {detail}"),
        }
    }
}

impl Error for JobFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JobFailure::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for JobFailure {
    fn from(e: SimError) -> Self {
        JobFailure::Sim(e)
    }
}

/// The first (by batch index) failing job of a batch.
#[derive(Clone, Debug)]
pub struct JobError {
    /// Index of the failing job within the submitted batch.
    pub index: usize,
    /// What went wrong.
    pub cause: JobFailure,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} failed: {}", self.index, self.cause)
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.cause)
    }
}

/// Renders a panic payload the way the default hook would.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One simulation job for the engine.
#[derive(Clone, Debug)]
pub enum SimJob {
    /// Run a task alone and extract its isolation profile (memoized).
    Isolation {
        /// The task to profile.
        spec: TaskSpec,
        /// The core it runs on.
        core: CoreId,
    },
    /// Run an app against one contender and observe the app's CCNT
    /// (never memoized — co-runs are what experiments vary).
    Corun {
        /// Application task.
        app: TaskSpec,
        /// Application core.
        app_core: CoreId,
        /// Contender task.
        load: TaskSpec,
        /// Contender core.
        load_core: CoreId,
    },
    /// Deliberately panics when executed — a fault-injection hook for
    /// exercising the engine's panic containment. Never cached; shows
    /// up as [`JobFailure::Panic`] at its batch index while the rest of
    /// the batch completes normally.
    Poison,
}

/// The result of one [`SimJob`], in batch order.
#[derive(Clone, Debug, PartialEq)]
pub enum SimOutcome {
    /// Profile from an isolation job.
    Isolation(IsolationProfile),
    /// Observed app cycles from a co-run job.
    Corun(u64),
}

impl SimOutcome {
    /// Unwraps an isolation profile.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is a co-run observation.
    pub fn into_profile(self) -> IsolationProfile {
        match self {
            SimOutcome::Isolation(p) => p,
            SimOutcome::Corun(_) => panic!("expected an isolation outcome"),
        }
    }

    /// Unwraps a co-run observation.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is an isolation profile.
    pub fn into_observed(self) -> u64 {
        match self {
            SimOutcome::Corun(c) => c,
            SimOutcome::Isolation(_) => panic!("expected a co-run outcome"),
        }
    }
}

/// Counters and wall-clock of an engine's lifetime, for
/// `BENCH_engine.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineReport {
    /// Configured worker threads.
    pub jobs: usize,
    /// Simulation attempts actually executed (memo misses, unkeyed
    /// co-runs, and retries).
    pub simulations_run: u64,
    /// Memo lookups served without simulating: isolation requests and,
    /// on an engine that keys co-runs, co-runs — including outcomes
    /// primed from an attached store.
    pub cache_hits: u64,
    /// Memo lookups that had to simulate.
    pub cache_misses: u64,
    /// Wall-clock seconds spent inside `run_batch` and the isolation
    /// lookups.
    pub wall_seconds: f64,
    /// Task specs hashed into job keys (one per isolation key, two per
    /// co-run key, except that a batch hashes each co-run app once). A
    /// recipe answered from the alias table hashes none.
    pub spec_hashes: u64,
    /// Solo runs that recorded an app's timeline for its co-runs: the
    /// app's own isolation job when the batch executes it, else one
    /// extra run, which `simulations_run` does not count.
    pub tail_recordings: u64,
    /// Co-runs whose contender-free tail was spliced from their app's
    /// solo timeline instead of simulated.
    pub tail_splices: u64,
    /// Retries after transient failures and watchdog expiries.
    pub retried: u64,
    /// Transient faults injected by the fault plan.
    pub injected_faults: u64,
    /// Watchdog expiries (real or injected).
    pub timed_out: u64,
    /// Store append errors (durability lost, campaign continued).
    pub journal_errors: u64,
}

impl EngineReport {
    /// Cache hit rate over all isolation requests (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Simulations per wall-clock second (0 before any run).
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.simulations_run as f64 / self.wall_seconds
        }
    }

    /// Renders the report as a small JSON object. Every counter is
    /// included; only `wall_seconds` and `runs_per_sec` depend on the
    /// host's speed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"jobs\": {},\n  \"simulations_run\": {},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"cache_hit_rate\": {:.4},\n  \"wall_seconds\": {:.6},\n  \
             \"runs_per_sec\": {:.2},\n  \"spec_hashes\": {},\n  \"tail_recordings\": {},\n  \
             \"tail_splices\": {},\n  \"retried\": {},\n  \"injected_faults\": {},\n  \
             \"timed_out\": {},\n  \"journal_errors\": {}\n}}\n",
            self.jobs,
            self.simulations_run,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.wall_seconds,
            self.runs_per_sec(),
            self.spec_hashes,
            self.tail_recordings,
            self.tail_splices,
            self.retried,
            self.injected_faults,
            self.timed_out,
            self.journal_errors
        )
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The parallel experiment engine.
///
/// Construct one per campaign (or one per process) and submit batches;
/// the memo cache and counters live for the engine's lifetime.
pub struct ExecEngine {
    jobs: usize,
    cycle_budget: Option<u64>,
    sim_engine: Engine,
    block_memo: bool,
    attribution: bool,
    platform: Arc<::platform::PlatformDesc>,
    telemetry: Option<Arc<Telemetry>>,
    /// The memo: job key → outcome. Isolation profiles always; co-run
    /// outcomes only on an engine that keys co-runs (a store or a fault
    /// plan attached), since a plain engine never hashes them.
    cache: Mutex<HashMap<u64, SimOutcome>>,
    /// Recipe → job key of the spec it builds. It holds keys, never
    /// specs: a spec is about 0.4 MB, a key 8 bytes.
    recipes: Mutex<HashMap<Recipe, u64>>,
    /// Spec identity → isolation key, for specs this engine has keyed
    /// (bounded, most recently used first; it holds no program body).
    interned: Mutex<KeyIntern>,
    /// App isolation key → the app's solo timeline. Only apps a batch
    /// co-runs get one; contenders never do.
    timelines: Mutex<HashMap<u64, Arc<SoloTimeline>>>,
    /// `(app, contender)` recipe pair → observed app cycles of their
    /// co-run ([`Self::corun_by_recipe`]).
    coruns: Mutex<HashMap<(Recipe, Recipe), u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    runs: AtomicU64,
    wall_nanos: AtomicU64,
    spec_hashes: AtomicU64,
    tail_recordings: AtomicU64,
    tail_splices: AtomicU64,
    /// Campaign options, the durable memo and campaign counters
    /// ([`crate::campaign`]).
    pub(crate) campaign: Campaign,
}

/// The generator call that builds an isolation task spec on the
/// engine's platform: everything but the platform that decides the
/// spec, and so its job key. Two equal recipes on one engine always
/// build byte-identical specs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Recipe {
    /// [`workloads::control_loop_on`] the engine's platform.
    ControlLoop {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// The core the task runs on.
        core: CoreId,
        /// Generator seed.
        seed: u64,
    },
    /// [`workloads::contender_on`] the engine's platform.
    Contender {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender load level.
        level: LoadLevel,
        /// The core the task runs on.
        core: CoreId,
        /// Generator seed.
        seed: u64,
    },
}

impl Recipe {
    /// The core the built task runs on.
    pub fn core(&self) -> CoreId {
        match *self {
            Recipe::ControlLoop { core, .. } | Recipe::Contender { core, .. } => core,
        }
    }

    /// Builds the task spec on `desc`.
    pub fn build(&self, desc: &::platform::PlatformDesc) -> TaskSpec {
        match *self {
            Recipe::ControlLoop {
                scenario,
                core,
                seed,
            } => workloads::control_loop_on(desc, scenario, core, seed),
            Recipe::Contender {
                scenario,
                level,
                core,
                seed,
            } => workloads::contender_on(desc, scenario, level, core, seed),
        }
    }
}

/// How one scheduled run executes.
#[derive(Clone)]
pub(crate) enum Mode {
    /// As its job says.
    Plain,
    /// An isolation job that also records its task's solo timeline.
    Record,
    /// Only the solo timeline of an isolation job whose profile is
    /// already known; the profile it yields is dropped.
    RecordOnly,
    /// A co-run that splices its tail from its app's solo timeline.
    Splice(Arc<SoloTimeline>),
}

/// What one run produced.
pub(crate) struct Ran {
    pub(crate) result: Result<SimOutcome, JobFailure>,
    stats: Option<SimStats>,
    timeline: Option<SoloTimeline>,
    spliced: bool,
}

impl Ran {
    pub(crate) fn failed(cause: JobFailure) -> Self {
        Ran::full(Err(cause))
    }

    /// A result that carries no statistics, timeline or splice.
    pub(crate) fn full(result: Result<SimOutcome, JobFailure>) -> Self {
        Ran {
            result,
            stats: None,
            timeline: None,
            spliced: false,
        }
    }
}

/// The solo-tail part of a batch's schedule ([`ExecEngine::plan_tails`]).
struct Tails {
    /// How each batch entry runs if it executes.
    modes: Vec<Mode>,
    /// Co-runs (batch index) waiting for the timeline of the app key
    /// this batch records.
    waiting: HashMap<usize, u64>,
    /// Isolation jobs (batch index) whose cached app gets a record-only
    /// run.
    record_only: Vec<usize>,
}

/// The batch index and job key of the isolation job that runs `app` on
/// `app_core`, if the batch has one.
fn app_isolation(
    batch: &[SimJob],
    keys: &[Option<u64>],
    app: &TaskSpec,
    app_core: CoreId,
) -> Option<(usize, u64)> {
    batch
        .iter()
        .zip(keys)
        .enumerate()
        .find_map(|(j, (job, key))| match job {
            SimJob::Isolation { spec, core } if *core == app_core && spec == app => {
                key.map(|key| (j, key))
            }
            _ => None,
        })
}

/// Execution plan for one batch entry.
enum Plan {
    /// Already in the memo cache.
    Cached(SimOutcome),
    /// Must simulate.
    Execute,
    /// Duplicate of an earlier entry in the same batch.
    Alias(usize),
}

impl ExecEngine {
    /// Creates an engine with `jobs` worker threads (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        ExecEngine {
            jobs: jobs.max(1),
            cycle_budget: None,
            sim_engine: Engine::default(),
            block_memo: true,
            attribution: false,
            platform: Arc::new(::platform::default_platform().clone()),
            telemetry: None,
            cache: Mutex::new(HashMap::new()),
            recipes: Mutex::new(HashMap::new()),
            interned: Mutex::new(KeyIntern::default()),
            timelines: Mutex::new(HashMap::new()),
            coruns: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            spec_hashes: AtomicU64::new(0),
            tail_recordings: AtomicU64::new(0),
            tail_splices: AtomicU64::new(0),
            campaign: Campaign::default(),
        }
    }

    /// Variant with a per-job simulated-cycle budget (builder style):
    /// every job this engine executes aborts with
    /// [`SimError::CycleLimit`] past `limit` cycles. The budget never
    /// changes a successful result — the simulator is deterministic and
    /// the budget only caps how far a run may go — so the memo cache
    /// stays valid across budgets.
    #[must_use]
    pub fn with_cycle_budget(mut self, limit: Option<u64>) -> Self {
        self.cycle_budget = limit;
        self
    }

    /// The per-job cycle budget, if one is configured.
    pub fn cycle_budget(&self) -> Option<u64> {
        self.cycle_budget
    }

    /// Variant running every job on an explicit simulator timing kernel
    /// (builder style). The two kernels are bit-identical, so switching
    /// never changes a result — memo cache, journal keys and goldens
    /// all stay valid — it only changes how fast jobs execute.
    #[must_use]
    pub fn with_sim_engine(mut self, engine: Engine) -> Self {
        self.sim_engine = engine;
        self
    }

    /// The simulator timing kernel jobs run on.
    pub fn sim_engine(&self) -> Engine {
        self.sim_engine
    }

    /// Variant running every job on an explicit platform description
    /// (builder style). The description decides the simulated machine —
    /// cores, slave topology, service latencies, arbitration — so, unlike
    /// the kernel and memo knobs, switching it *changes results*: memo
    /// fingerprints and journal keys of non-default platforms fold the
    /// description's fingerprint, which keeps profiles and journals from
    /// ever leaking across machines. The default TC27x description keys
    /// exactly as before, so existing journals and stores stay valid.
    #[must_use]
    pub fn with_platform(mut self, desc: ::platform::PlatformDesc) -> Self {
        self.platform = Arc::new(desc);
        // Recipes build their specs on the platform, so their keys and
        // co-run answers go with it; so do the timelines recorded on it.
        self.recipes = Mutex::new(HashMap::new());
        self.interned = Mutex::new(KeyIntern::default());
        self.coruns = Mutex::new(HashMap::new());
        self.timelines = Mutex::new(HashMap::new());
        self
    }

    /// The platform description jobs run on.
    pub fn platform(&self) -> &::platform::PlatformDesc {
        &self.platform
    }

    /// Variant controlling the event kernel's basic-block memoization
    /// (builder style). Memoized and unmemoized runs are bit-identical
    /// — memo cache, journal keys and goldens all stay valid — so the
    /// switch, like [`with_sim_engine`](Self::with_sim_engine), only
    /// trades wall-clock speed (off exists for debugging and for the
    /// equivalence gates in CI).
    #[must_use]
    pub fn with_block_memo(mut self, on: bool) -> Self {
        self.block_memo = on;
        self
    }

    /// Whether jobs run with basic-block memoization enabled.
    pub fn block_memo(&self) -> bool {
        self.block_memo
    }

    /// Variant recording per-grant contention attribution on every job
    /// (builder style): the simulator charges each SRI wait cycle to
    /// the aggressor core (or the arbitration schedule) that caused it,
    /// and the matrices ride back on [`tc27x_sim::SimStats`] into the
    /// attached telemetry recorder. Attribution is observation-only —
    /// timing, counters, memo cache and journal keys are untouched — so
    /// attributed and bare engines stay bit-identical.
    #[must_use]
    pub fn with_attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Whether jobs record contention attribution.
    pub fn attribution(&self) -> bool {
        self.attribution
    }

    /// Variant with an attached telemetry recorder (builder style):
    /// every executed job is recorded as a span plus simulator
    /// statistics when its batch merges. Recording never changes a
    /// result — it only observes the deterministic execution plan — so
    /// instrumented and bare engines stay bit-identical.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// An engine that executes everything inline on the caller's
    /// thread — the reference the determinism tests compare against.
    pub fn sequential() -> Self {
        ExecEngine::new(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The stable cache key for an isolation run: task spec (name,
    /// segments, ops, objects, activations, seed), core, and a platform
    /// tag so profiles never leak across simulator configurations.
    /// Non-default platform descriptions additionally fold their own
    /// fingerprint; the default TC27x description keys exactly as it
    /// always has, so journals and stores written before platforms were
    /// pluggable replay unchanged.
    fn fingerprint_on(spec: &TaskSpec, core: CoreId, desc: &::platform::PlatformDesc) -> u64 {
        let mut h = Fnv::new();
        h.write_str_delimited("tc277/isolation/v1");
        if !desc.is_default() {
            h.write_str_delimited("platform");
            h.write_u64(desc.fingerprint());
        }
        h.write_u8(core.0);
        // `TaskSpec`'s Debug output covers every field recursively and
        // changes whenever the spec's structure does — exactly the
        // invalidation behaviour a memo key needs.
        h.write_debug_delimited(spec);
        h.finish()
    }

    /// [`Self::fingerprint_on`] this engine's platform: looked up when
    /// the spec's identity is interned, else hashed and counted in
    /// [`EngineReport::spec_hashes`]. The second value says whether it
    /// was hashed, i.e. whether the caller should intern the identity.
    fn isolation_key(&self, spec: &TaskSpec, core: CoreId) -> (u64, bool) {
        if let Some(key) = self.interned_lock().lookup(spec, core) {
            return (key, false);
        }
        self.spec_hashes.fetch_add(1, Ordering::Relaxed);
        (Self::fingerprint_on(spec, core, &self.platform), true)
    }

    /// [`job_key_on`] this engine's platform, counted in
    /// [`EngineReport::spec_hashes`].
    pub(crate) fn job_key(&self, job: &SimJob) -> u64 {
        let specs = match job {
            SimJob::Isolation { .. } => 1,
            SimJob::Corun { .. } => 2,
            SimJob::Poison => 0,
        };
        self.spec_hashes.fetch_add(specs, Ordering::Relaxed);
        job_key_on(job, &self.platform)
    }

    /// [`Self::fingerprint_on`] for the default platform description.
    #[cfg(test)]
    fn fingerprint(spec: &TaskSpec, core: CoreId) -> u64 {
        Self::fingerprint_on(spec, core, ::platform::default_platform())
    }

    /// Locks the memo cache, recovering from poisoning: the cache only
    /// ever holds fully-constructed profiles (inserts happen after a
    /// job's result exists), so a panic while the lock was held cannot
    /// have left a torn entry behind.
    fn cache_lock(&self) -> MutexGuard<'_, HashMap<u64, SimOutcome>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the recipe aliases; poisoning is recovered for the same
    /// reason as [`Self::cache_lock`] (entries are inserted whole).
    fn recipes_lock(&self) -> MutexGuard<'_, HashMap<Recipe, u64>> {
        self.recipes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the key intern table; poisoning is recovered for the same
    /// reason as [`Self::cache_lock`] (entries are inserted whole).
    fn interned_lock(&self) -> MutexGuard<'_, KeyIntern> {
        self.interned.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the recipe-pair co-run answers; poisoning is recovered for
    /// the same reason as [`Self::cache_lock`].
    fn coruns_lock(&self) -> MutexGuard<'_, HashMap<(Recipe, Recipe), u64>> {
        self.coruns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the solo timelines; poisoning is recovered for the same
    /// reason as [`Self::cache_lock`] (entries are inserted whole).
    fn timelines_lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<SoloTimeline>>> {
        self.timelines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether co-runs may splice their tails: only on the event
    /// kernel, and only when no per-job statistics are observed.
    /// Telemetry and attribution read each co-run's complete
    /// [`SimStats`], and a spliced run has none; the reference stepper
    /// stays the full-run oracle. A watchdogged job runs on its helper
    /// thread outside the engine, so it neither records nor splices.
    fn splices(&self) -> bool {
        self.sim_engine == Engine::Event
            && self.telemetry.is_none()
            && !self.attribution
            && self.campaign.watchdog_millis.is_none()
    }

    /// Decides which executing co-runs of a batch splice, and which
    /// runs record the timelines they need. A co-run's app is keyed by
    /// an isolation job of the same batch on the same core with an
    /// equal spec (an equality test is far cheaper than hashing the app
    /// again). A known timeline is used at once; otherwise the batch's
    /// own run of that isolation job records it, or — when the profile
    /// is cached — one record-only run does, and the co-run waits for
    /// it.
    fn plan_tails(
        &self,
        batch: &[SimJob],
        keys: &[Option<u64>],
        plan: &[Plan],
        executes: &HashMap<u64, usize>,
    ) -> Tails {
        let mut tails = Tails {
            modes: vec![Mode::Plain; batch.len()],
            waiting: HashMap::new(),
            record_only: Vec::new(),
        };
        if !self.splices() {
            return tails;
        }
        let timelines = self.timelines_lock();
        let mut recording: Vec<u64> = Vec::new();
        for (i, (job, entry)) in batch.iter().zip(plan).enumerate() {
            let (SimJob::Corun { app, app_core, .. }, Plan::Execute) = (job, entry) else {
                continue;
            };
            let Some((j, key)) = app_isolation(batch, keys, app, *app_core) else {
                continue;
            };
            if let Some(timeline) = timelines.get(&key) {
                tails.modes[i] = Mode::Splice(Arc::clone(timeline));
                continue;
            }
            tails.waiting.insert(i, key);
            if recording.contains(&key) {
                continue;
            }
            recording.push(key);
            match executes.get(&key) {
                Some(&first) => tails.modes[first] = Mode::Record,
                None => tails.record_only.push(j),
            }
        }
        self.tail_recordings
            .fetch_add(recording.len() as u64, Ordering::Relaxed);
        tails
    }

    /// Runs `f`, adding its wall-clock time to the report.
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.wall_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// The memoized profile under `key`, counted as a hit when present.
    fn cached(&self, key: u64) -> Option<IsolationProfile> {
        let profile = match self.cache_lock().get(&key) {
            Some(SimOutcome::Isolation(p)) => Some(p.clone()),
            _ => None,
        };
        if profile.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        profile
    }

    /// Runs a batch of jobs and returns their outcomes in batch order,
    /// identical for any worker count.
    ///
    /// Isolation jobs are first resolved against the memo cache and
    /// deduplicated within the batch; only the remainder is simulated,
    /// in parallel. If several jobs fail, the error of the
    /// lowest-indexed failing job is returned (again independent of the
    /// worker count); every other job still runs to completion, and
    /// successful isolation profiles still land in the memo cache. Use
    /// [`run_batch_detailed`](Self::run_batch_detailed) to see every
    /// per-job result instead of only the first failure.
    ///
    /// # Errors
    ///
    /// Returns the first (by batch index) failing job: a link or
    /// simulation error, or a contained panic.
    pub fn run_batch(&self, batch: &[SimJob]) -> Result<Vec<SimOutcome>, JobError> {
        let detailed = self.run_batch_detailed(batch);
        let mut outcomes = Vec::with_capacity(detailed.len());
        for (index, result) in detailed.into_iter().enumerate() {
            match result {
                Ok(o) => outcomes.push(o),
                Err(cause) => return Err(JobError { index, cause }),
            }
        }
        Ok(outcomes)
    }

    /// Runs a batch and returns one result per job, in batch order. A
    /// failing — even panicking — job never aborts the batch: its slot
    /// carries the [`JobFailure`] and every other job completes
    /// normally.
    pub fn run_batch_detailed(&self, batch: &[SimJob]) -> Vec<Result<SimOutcome, JobFailure>> {
        self.timed(|| {
            // Each job is keyed once, before the cache lock is taken; the
            // plan, the cache fill, the store and the telemetry reuse it.
            // Co-runs are keyed only on an engine that needs their key
            // (a store address or a fault-plan seed). The isolation
            // identities the batch hashed are interned once it is done,
            // so a batch keys its jobs only by hash or by earlier
            // batches' identities.
            let keys = self.batch_keys(batch);
            let plain: Vec<Option<u64>> = keys.iter().map(|k| k.map(|(key, _)| key)).collect();
            let outcomes = self.run_batch_inner(batch, &plain);
            for (job, key) in batch.iter().zip(&keys) {
                if let (SimJob::Isolation { spec, core }, Some((key, true))) = (job, key) {
                    self.interned_lock().learn(spec, *core, *key);
                }
            }
            outcomes
        })
    }

    /// The key of each job of `batch`, and whether it was hashed (so
    /// its identity should be interned). Co-runs are keyed only on an
    /// engine that needs their key, and each co-run app is hashed once
    /// per batch.
    fn batch_keys(&self, batch: &[SimJob]) -> Vec<Option<(u64, bool)>> {
        let keys_jobs = self.campaign.keys_jobs();
        let mut apps: Vec<(&TaskSpec, CoreId, Fnv)> = Vec::new();
        let mut keys = Vec::with_capacity(batch.len());
        for job in batch {
            keys.push(match job {
                SimJob::Isolation { spec, core } => Some(self.isolation_key(spec, *core)),
                SimJob::Corun {
                    app,
                    app_core,
                    load,
                    load_core,
                } if keys_jobs => {
                    let known = apps.iter().find(|(a, c, _)| c == app_core && *a == app);
                    let prefix = match known {
                        Some((_, _, h)) => h.clone(),
                        None => {
                            let h = corun_prefix(app, *app_core, &self.platform);
                            self.spec_hashes.fetch_add(1, Ordering::Relaxed);
                            apps.push((app, *app_core, h.clone()));
                            h
                        }
                    };
                    self.spec_hashes.fetch_add(1, Ordering::Relaxed);
                    Some((corun_key(prefix, load, *load_core), false))
                }
                SimJob::Poison if keys_jobs => Some((self.job_key(job), false)),
                SimJob::Corun { .. } | SimJob::Poison => None,
            });
        }
        keys
    }

    /// The batch body; `keys[i]` is the job key of `batch[i]` when the
    /// batch keyed it (always for isolation jobs).
    fn run_batch_inner(
        &self,
        batch: &[SimJob],
        keys: &[Option<u64>],
    ) -> Vec<Result<SimOutcome, JobFailure>> {
        // Phase 1: plan — consult the memo, dedupe within the batch.
        let mut plan = Vec::with_capacity(batch.len());
        let mut first_by_fp: HashMap<u64, usize> = HashMap::new();
        {
            let cache = self.cache_lock();
            for (i, key) in keys.iter().enumerate() {
                match *key {
                    Some(fp) => {
                        if let Some(o) = cache.get(&fp) {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            plan.push(Plan::Cached(o.clone()));
                        } else if let Some(&j) = first_by_fp.get(&fp) {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            plan.push(Plan::Alias(j));
                        } else {
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            first_by_fp.insert(fp, i);
                            plan.push(Plan::Execute);
                        }
                    }
                    None => plan.push(Plan::Execute),
                }
            }
        }

        // Phase 2: simulate the remainder on the pool, each job through
        // its campaign options ([`Self::run_job`]: attempts, retries and
        // one store record per attempt). The isolation runs that record
        // a timeline go first, with the record-only runs; then every
        // other job in batch order, so co-runs find the timelines they
        // wait for, and a single worker appends records in batch order
        // whenever the batch lists its apps first.
        let tails = self.plan_tails(batch, keys, &plan, &first_by_fp);
        let store = self.campaign.store();
        let (recording, rest): (Vec<usize>, Vec<usize>) = plan
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Plan::Execute))
            .map(|(i, _)| i)
            .partition(|&i| matches!(tails.modes[i], Mode::Record));
        let first_wave: Vec<(usize, Mode)> = recording
            .iter()
            .map(|&i| (i, Mode::Record))
            .chain(tails.record_only.iter().map(|&j| (j, Mode::RecordOnly)))
            .collect();
        let run_wave = |wave: &[(usize, Mode)]| {
            pool::run_indexed(wave, self.jobs, |_, (i, mode)| match mode {
                Mode::RecordOnly => self.execute_caught(&batch[*i], mode),
                _ => self.run_job(&batch[*i], keys[*i], mode, store.as_deref()),
            })
        };
        let mut by_index: HashMap<usize, Ran> = HashMap::new();
        let mut recorded: HashMap<u64, Arc<SoloTimeline>> = HashMap::new();
        for ((i, mode), mut ran) in first_wave.iter().zip(run_wave(&first_wave)) {
            if let (Some(timeline), Some(key)) = (ran.timeline.take(), keys[*i]) {
                recorded.insert(key, Arc::new(timeline));
            }
            if !matches!(mode, Mode::RecordOnly) {
                by_index.insert(*i, ran);
            }
        }
        if !recorded.is_empty() {
            self.timelines_lock()
                .extend(recorded.iter().map(|(k, t)| (*k, Arc::clone(t))));
        }
        let second_wave: Vec<(usize, Mode)> = rest
            .into_iter()
            .map(|i| {
                let mode = match tails.waiting.get(&i) {
                    Some(key) => recorded
                        .get(key)
                        .map_or(Mode::Plain, |t| Mode::Splice(Arc::clone(t))),
                    None => tails.modes[i].clone(),
                };
                (i, mode)
            })
            .collect();
        by_index.extend(
            second_wave
                .iter()
                .map(|(i, _)| *i)
                .zip(run_wave(&second_wave)),
        );
        let splices = by_index.values().filter(|r| r.spliced).count();
        self.tail_splices
            .fetch_add(splices as u64, Ordering::Relaxed);

        // Phase 3: merge in batch order; fill the memo from the keyed
        // jobs that succeeded and record executed jobs into the
        // telemetry. Recording happens here — not on the workers — so
        // span and metric updates follow the deterministic plan order.
        let mut outcomes: Vec<Result<SimOutcome, JobFailure>> = Vec::with_capacity(batch.len());
        let mut fresh: Vec<(u64, SimOutcome)> = Vec::new();
        for (i, entry) in plan.into_iter().enumerate() {
            let outcome = match entry {
                Plan::Cached(o) => Ok(o),
                Plan::Alias(j) => outcomes[j].clone(),
                Plan::Execute => {
                    let Ran {
                        result: r, stats, ..
                    } = by_index.remove(&i).unwrap_or_else(|| {
                        Ran::failed(JobFailure::Panic("planned job produced no result".into()))
                    });
                    if let Some(t) = &self.telemetry {
                        match &r {
                            Ok(outcome) => {
                                let cycles = match outcome {
                                    SimOutcome::Isolation(p) => p.counters().ccnt,
                                    SimOutcome::Corun(c) => *c,
                                };
                                let key = keys[i].unwrap_or_else(|| self.job_key(&batch[i]));
                                t.record_job(key, &batch[i], cycles, stats.as_ref());
                            }
                            Err(_) => t.record_job_failure(),
                        }
                    }
                    if let (Ok(o), Some(key)) = (&r, keys[i]) {
                        fresh.push((key, o.clone()));
                    }
                    r
                }
            };
            outcomes.push(outcome);
        }
        if !fresh.is_empty() {
            self.cache_lock().extend(fresh);
        }
        outcomes
    }

    /// [`Self::execute`] with a panicking job contained to its result:
    /// it poisons neither the pool nor the batch. `AssertUnwindSafe` is
    /// sound here: the job is borrowed, and the unwinding run cannot
    /// have mutated it.
    pub(crate) fn execute_caught(&self, job: &SimJob, mode: &Mode) -> Ran {
        panic::catch_unwind(AssertUnwindSafe(|| self.execute(job, mode)))
            .unwrap_or_else(|payload| Ran::failed(JobFailure::Panic(panic_message(payload))))
    }

    /// Counts one executed simulation attempt.
    pub(crate) fn count_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }
    /// Runs one job in `mode`.
    fn execute(&self, job: &SimJob, mode: &Mode) -> Ran {
        let config = || {
            crate::runner::sim_config(
                &self.platform,
                self.cycle_budget,
                self.sim_engine,
                self.block_memo,
                self.attribution,
            )
        };
        match (mode, job) {
            (Mode::Record | Mode::RecordOnly, SimJob::Isolation { spec, core }) => {
                match crate::runner::isolation_profile_recording(spec, *core, config()) {
                    Ok((profile, stats, timeline)) => Ran {
                        result: Ok(SimOutcome::Isolation(profile)),
                        stats: Some(stats),
                        timeline: Some(timeline),
                        spliced: false,
                    },
                    Err(e) => Ran::failed(e.into()),
                }
            }
            (
                Mode::Splice(timeline),
                SimJob::Corun {
                    app,
                    app_core,
                    load,
                    load_core,
                },
            ) => match crate::runner::observed_corun_spliced(
                app,
                *app_core,
                load,
                *load_core,
                config(),
                timeline,
            ) {
                Ok(run) => Ran {
                    result: Ok(SimOutcome::Corun(run.cycles)),
                    stats: None,
                    timeline: None,
                    spliced: run.spliced,
                },
                Err(e) => Ran::failed(e.into()),
            },
            _ => {
                let (result, stats) = execute_job_with_stats(
                    job,
                    self.cycle_budget,
                    self.sim_engine,
                    self.block_memo,
                    self.attribution,
                    &self.platform,
                );
                Ran {
                    result,
                    stats,
                    timeline: None,
                    spliced: false,
                }
            }
        }
    }

    /// Memoized single isolation run. A cache hit hashes the borrowed
    /// spec once and clones nothing but the profile.
    ///
    /// # Errors
    ///
    /// Propagates link and simulation errors (as the failing job).
    pub fn isolation(&self, spec: &TaskSpec, core: CoreId) -> Result<IsolationProfile, JobError> {
        self.timed(|| {
            let (key, hashed) = self.isolation_key(spec, core);
            let profile = self.isolation_keyed(key, core, || spec.clone());
            if hashed {
                self.interned_lock().learn(spec, core, key);
            }
            profile
        })
    }

    /// The isolation profile of `recipe`'s spec on this engine's
    /// platform, with its job key (the key [`job_key_on`] gives the
    /// built spec, so it addresses stores and journals alike).
    ///
    /// The engine remembers which key each recipe built. When that key's
    /// profile is still memoized, the call builds, clones and hashes no
    /// spec; it counts one cache hit, as a cached [`Self::isolation`]
    /// does. Otherwise — the first call per recipe, or after
    /// [`Self::clear_cache`] — it builds and keys the spec once, then
    /// looks the profile up or simulates it like [`Self::isolation`].
    ///
    /// # Errors
    ///
    /// Propagates link and simulation errors (as the failing job).
    pub fn isolation_by_recipe(&self, recipe: Recipe) -> Result<(u64, IsolationProfile), JobError> {
        self.timed(|| {
            let known = self.recipes_lock().get(&recipe).copied();
            if let Some(key) = known {
                if let Some(profile) = self.cached(key) {
                    return Ok((key, profile));
                }
            }
            let spec = recipe.build(&self.platform);
            let core = recipe.core();
            // A freshly built spec has fresh bodies: it is always hashed,
            // and the recipe alias, not the intern table, remembers it.
            let (key, _) = self.isolation_key(&spec, core);
            let profile = self.isolation_keyed(key, core, move || spec)?;
            self.recipes_lock().insert(recipe, key);
            Ok((key, profile))
        })
    }

    /// A memoized isolation under a known `key`: the profile from the
    /// cache, or a one-job batch over the spec `spec` builds.
    fn isolation_keyed(
        &self,
        key: u64,
        core: CoreId,
        spec: impl FnOnce() -> TaskSpec,
    ) -> Result<IsolationProfile, JobError> {
        if let Some(profile) = self.cached(key) {
            return Ok(profile);
        }
        let job = SimJob::Isolation { spec: spec(), core };
        let mut out = self.run_batch_inner(std::slice::from_ref(&job), &[Some(key)]);
        match out.remove(0) {
            Ok(outcome) => Ok(outcome.into_profile()),
            Err(cause) => Err(JobError { index: 0, cause }),
        }
    }

    /// Single co-run observation through the engine (counted in the
    /// report, never cached).
    ///
    /// # Errors
    ///
    /// Propagates link and simulation errors (as the failing job).
    pub fn corun(
        &self,
        app: &TaskSpec,
        app_core: CoreId,
        load: &TaskSpec,
        load_core: CoreId,
    ) -> Result<u64, JobError> {
        let mut out = self.run_batch(std::slice::from_ref(&SimJob::Corun {
            app: app.clone(),
            app_core,
            load: load.clone(),
            load_core,
        }))?;
        Ok(out.remove(0).into_observed())
    }

    /// The observed app cycles of `app` co-run against `load`, both
    /// built on this engine's platform. The answer depends on nothing
    /// but the two recipes, so the engine keeps it: a repeat pair
    /// builds, hashes and simulates nothing. A first pair runs like
    /// [`Self::corun`].
    ///
    /// # Errors
    ///
    /// Propagates link and simulation errors (as the failing job).
    pub fn corun_by_recipe(&self, app: Recipe, load: Recipe) -> Result<u64, JobError> {
        let known = self.timed(|| self.coruns_lock().get(&(app, load)).copied());
        if let Some(observed) = known {
            return Ok(observed);
        }
        let job = SimJob::Corun {
            app: app.build(&self.platform),
            app_core: app.core(),
            load: load.build(&self.platform),
            load_core: load.core(),
        };
        let observed = self
            .run_batch(std::slice::from_ref(&job))?
            .remove(0)
            .into_observed();
        self.coruns_lock().insert((app, load), observed);
        Ok(observed)
    }

    /// Number of isolation profiles currently memoized.
    pub fn cached_profiles(&self) -> usize {
        self.cache_lock()
            .values()
            .filter(|o| matches!(o, SimOutcome::Isolation(_)))
            .count()
    }

    /// Number of outcomes currently memoized (profiles and keyed
    /// co-runs).
    pub(crate) fn memoized(&self) -> usize {
        self.cache_lock().len()
    }

    /// Number of apps whose solo timeline is kept for splicing.
    pub fn cached_timelines(&self) -> usize {
        self.timelines_lock().len()
    }

    /// Drops every memoized profile, recipe alias, interned spec key,
    /// recipe co-run answer and solo timeline (counters are kept).
    pub fn clear_cache(&self) {
        self.recipes_lock().clear();
        self.interned_lock().clear();
        self.coruns_lock().clear();
        self.timelines_lock().clear();
        self.cache_lock().clear();
    }

    /// Snapshot of the engine's counters.
    pub fn report(&self) -> EngineReport {
        EngineReport {
            jobs: self.jobs,
            simulations_run: self.runs.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            wall_seconds: self.wall_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            spec_hashes: self.spec_hashes.load(Ordering::Relaxed),
            tail_recordings: self.tail_recordings.load(Ordering::Relaxed),
            tail_splices: self.tail_splices.load(Ordering::Relaxed),
            retried: self.campaign.retried.load(Ordering::Relaxed),
            injected_faults: self.campaign.injected.load(Ordering::Relaxed),
            timed_out: self.campaign.timed_out.load(Ordering::Relaxed),
            journal_errors: self.campaign.journal_errors.load(Ordering::Relaxed),
        }
    }

    /// Inserts an externally obtained isolation profile into the memo
    /// cache under its job's fingerprint, so follow-up lookups are
    /// served without re-simulating. Non-isolation jobs are ignored.
    pub fn prime(&self, job: &SimJob, profile: IsolationProfile) {
        if let SimJob::Isolation { spec, core } = job {
            let (key, _) = self.isolation_key(spec, *core);
            self.prime_keyed(key, profile);
        }
    }

    /// [`ExecEngine::prime`] by raw job key (see [`job_key`]): the form
    /// a persistent record can use after a restart, when the profile's
    /// originating `TaskSpec` is no longer in memory.
    pub fn prime_keyed(&self, key: u64, profile: IsolationProfile) {
        self.prime_all([(key, SimOutcome::Isolation(profile))]);
    }

    /// Memoizes outcomes under their job keys.
    pub(crate) fn prime_all(&self, outcomes: impl IntoIterator<Item = (u64, SimOutcome)>) {
        self.cache_lock().extend(outcomes);
    }
}

/// Executes one job inline with an optional simulated-cycle budget on
/// an explicit timing kernel, and returns the simulator's post-run
/// statistics snapshot for the telemetry layer (`None` on failure).
/// `attribution` switches on the simulator's per-grant contention
/// attribution recorder, whose matrices ride back on the snapshot.
pub(crate) fn execute_job_with_stats(
    job: &SimJob,
    cycle_budget: Option<u64>,
    engine: Engine,
    block_memo: bool,
    attribution: bool,
    desc: &::platform::PlatformDesc,
) -> (Result<SimOutcome, JobFailure>, Option<SimStats>) {
    match job {
        SimJob::Isolation { spec, core } => {
            match crate::runner::isolation_profile_stats(
                spec,
                *core,
                cycle_budget,
                engine,
                block_memo,
                attribution,
                desc,
            ) {
                Ok((p, s)) => (Ok(SimOutcome::Isolation(p)), Some(s)),
                Err(e) => (Err(e.into()), None),
            }
        }
        SimJob::Corun {
            app,
            app_core,
            load,
            load_core,
        } => {
            match crate::runner::observed_corun_stats(
                app,
                *app_core,
                load,
                *load_core,
                cycle_budget,
                engine,
                block_memo,
                attribution,
                desc,
            ) {
                Ok((c, s)) => (Ok(SimOutcome::Corun(c)), Some(s)),
                Err(e) => (Err(e.into()), None),
            }
        }
        SimJob::Poison => panic!("deliberately poisoned job"),
    }
}

/// The stable FNV key of one job — the identity under which the
/// campaign journal records its outcome. Isolation jobs reuse the memo
/// cache's fingerprint (spec, core, platform tag); co-runs hash both
/// task/core pairs under their own tag. Equal jobs get equal keys on
/// every platform and in every process, which is what lets a journal
/// written at `--jobs 4` resume at `--jobs 1`.
pub fn job_key(job: &SimJob) -> u64 {
    job_key_on(job, ::platform::default_platform())
}

/// [`job_key`] on an explicit platform description. Non-default
/// descriptions fold their fingerprint into every key, so the same job
/// on two platforms journals (and memoizes) under distinct identities;
/// the default description reproduces [`job_key`] bit for bit, which is
/// what keeps journals written before platforms were pluggable valid.
pub fn job_key_on(job: &SimJob, desc: &::platform::PlatformDesc) -> u64 {
    match job {
        SimJob::Isolation { spec, core } => ExecEngine::fingerprint_on(spec, *core, desc),
        SimJob::Corun {
            app,
            app_core,
            load,
            load_core,
        } => corun_key(corun_prefix(app, *app_core, desc), load, *load_core),
        SimJob::Poison => {
            let mut h = Fnv::new();
            h.write_str_delimited("tc277/poison/v1");
            h.finish()
        }
    }
}

/// The co-run key's hasher after its app half. It is the same for
/// every co-run of one app on one core, so a batch hashes each app once.
fn corun_prefix(app: &TaskSpec, app_core: CoreId, desc: &::platform::PlatformDesc) -> Fnv {
    let mut h = Fnv::new();
    h.write_str_delimited("tc277/corun/v1");
    if !desc.is_default() {
        h.write_str_delimited("platform");
        h.write_u64(desc.fingerprint());
    }
    h.write_u8(app_core.0);
    h.write_debug_delimited(app);
    h
}

/// Finishes a co-run key from [`corun_prefix`] with the contender half.
fn corun_key(mut prefix: Fnv, load: &TaskSpec, load_core: CoreId) -> u64 {
    prefix.write_u8(load_core.0);
    prefix.write_debug_delimited(load);
    prefix.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::isolation_profile;
    use tc27x_sim::DeploymentScenario;
    use workloads::{contender, control_loop, LoadLevel};

    fn app() -> TaskSpec {
        control_loop(DeploymentScenario::Scenario1, CoreId(1), 42)
    }

    fn load(level: LoadLevel) -> TaskSpec {
        contender(DeploymentScenario::Scenario1, level, CoreId(2), 7)
    }

    #[test]
    fn memoized_profile_equals_fresh_profile() {
        let engine = ExecEngine::new(2);
        let fresh = isolation_profile(&app(), CoreId(1)).unwrap();
        let first = engine.isolation(&app(), CoreId(1)).unwrap();
        let second = engine.isolation(&app(), CoreId(1)).unwrap();
        assert_eq!(first.counters(), fresh.counters());
        assert_eq!(second.counters(), fresh.counters());
        assert_eq!(first.ptac(), second.ptac());
        let r = engine.report();
        assert_eq!(r.cache_hits, 1);
        assert_eq!(r.cache_misses, 1);
        assert_eq!(r.simulations_run, 1);
        assert_eq!(engine.cached_profiles(), 1);
    }

    #[test]
    fn fingerprint_distinguishes_spec_core_and_seed() {
        let a = app();
        let mut reseeded = a.clone();
        reseeded.seed ^= 1;
        let base = ExecEngine::fingerprint(&a, CoreId(1));
        assert_eq!(base, ExecEngine::fingerprint(&a.clone(), CoreId(1)));
        assert_ne!(base, ExecEngine::fingerprint(&a, CoreId(2)));
        assert_ne!(base, ExecEngine::fingerprint(&reseeded, CoreId(1)));
    }

    #[test]
    fn batch_outcomes_are_worker_count_invariant() {
        let mk_batch = || -> Vec<SimJob> {
            let mut b = Vec::new();
            for level in LoadLevel::all() {
                b.push(SimJob::Isolation {
                    spec: load(level),
                    core: CoreId(2),
                });
                b.push(SimJob::Corun {
                    app: app(),
                    app_core: CoreId(1),
                    load: load(level),
                    load_core: CoreId(2),
                });
            }
            b
        };
        let reference: Vec<u64> = ExecEngine::sequential()
            .run_batch(&mk_batch())
            .unwrap()
            .into_iter()
            .map(|o| match o {
                SimOutcome::Isolation(p) => p.counters().ccnt,
                SimOutcome::Corun(c) => c,
            })
            .collect();
        for jobs in [2, 4] {
            let got: Vec<u64> = ExecEngine::new(jobs)
                .run_batch(&mk_batch())
                .unwrap()
                .into_iter()
                .map(|o| match o {
                    SimOutcome::Isolation(p) => p.counters().ccnt,
                    SimOutcome::Corun(c) => c,
                })
                .collect();
            assert_eq!(got, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let engine = ExecEngine::new(4);
        let batch = vec![
            SimJob::Isolation {
                spec: app(),
                core: CoreId(1),
            };
            5
        ];
        let out = engine.run_batch(&batch).unwrap();
        assert_eq!(out.len(), 5);
        let ccnt = out[0].clone().into_profile().counters().ccnt;
        for o in &out {
            assert_eq!(o.clone().into_profile().counters().ccnt, ccnt);
        }
        let r = engine.report();
        assert_eq!(r.simulations_run, 1);
        assert_eq!(r.cache_hits, 4);
    }

    #[test]
    fn first_error_by_index_wins() {
        // An unlinkable spec: references an object that does not exist.
        let broken = TaskSpec::new(
            "broken",
            tc27x_sim::Program::build(|b| {
                b.load("missing", tc27x_sim::Pattern::Sequential);
            }),
            tc27x_sim::Placement::new(tc27x_sim::Region::Pflash0, true),
        );
        let engine = ExecEngine::new(4);
        let batch = vec![
            SimJob::Isolation {
                spec: broken.clone(),
                core: CoreId(1),
            },
            SimJob::Isolation {
                spec: app(),
                core: CoreId(1),
            },
        ];
        let seq_err = ExecEngine::sequential().run_batch(&batch).unwrap_err();
        let par_err = engine.run_batch(&batch).unwrap_err();
        assert_eq!(seq_err.index, 0);
        assert_eq!(par_err.index, 0);
        assert_eq!(seq_err.to_string(), par_err.to_string());
        assert!(matches!(seq_err.cause, JobFailure::Sim(_)));
    }

    #[test]
    fn poisoned_job_is_contained_and_indexed() {
        let engine = ExecEngine::new(4);
        let batch = vec![
            SimJob::Isolation {
                spec: app(),
                core: CoreId(1),
            },
            SimJob::Poison,
            SimJob::Corun {
                app: app(),
                app_core: CoreId(1),
                load: load(LoadLevel::High),
                load_core: CoreId(2),
            },
        ];
        // run_batch reports the poisoned job at its exact index…
        let err = engine.run_batch(&batch).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.cause, JobFailure::Panic(_)));
        assert!(err.to_string().contains("job 1 failed"));

        // …while the other jobs in the batch still completed: the
        // detailed view carries their results, and the engine (cache
        // included) remains fully usable afterwards.
        let detailed = engine.run_batch_detailed(&batch);
        assert_eq!(detailed.len(), 3);
        let expected = isolation_profile(&app(), CoreId(1)).unwrap();
        let profile = detailed[0].clone().unwrap().into_profile();
        assert_eq!(profile.counters(), expected.counters());
        assert!(detailed[1].is_err());
        let observed = detailed[2].clone().unwrap().into_observed();
        assert!(observed >= expected.counters().ccnt);

        let after = engine.isolation(&app(), CoreId(1)).unwrap();
        assert_eq!(after.counters(), expected.counters());
        assert!(engine.report().cache_hits >= 1, "cache survived the panic");
    }

    #[test]
    fn panic_while_cache_locked_does_not_wedge_the_engine() {
        // Poison the memo-cache mutex directly: a thread panics while
        // holding the lock. The engine must recover instead of
        // propagating the poison forever.
        let engine = ExecEngine::new(2);
        engine.isolation(&app(), CoreId(1)).unwrap();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = engine.cache_lock();
            panic!("poison the cache lock");
        }));
        assert!(res.is_err());
        assert_eq!(engine.cached_profiles(), 1);
        engine.isolation(&app(), CoreId(1)).unwrap();
        assert!(engine.report().cache_hits >= 1);
    }

    #[test]
    fn job_keys_are_stable_and_distinguish_jobs() {
        let iso = SimJob::Isolation {
            spec: app(),
            core: CoreId(1),
        };
        let co = SimJob::Corun {
            app: app(),
            app_core: CoreId(1),
            load: load(LoadLevel::High),
            load_core: CoreId(2),
        };
        assert_eq!(job_key(&iso), job_key(&iso.clone()));
        assert_eq!(job_key(&co), job_key(&co.clone()));
        assert_ne!(job_key(&iso), job_key(&co));
        assert_ne!(job_key(&iso), job_key(&SimJob::Poison));
        // The isolation key IS the memo-cache fingerprint.
        assert_eq!(job_key(&iso), ExecEngine::fingerprint(&app(), CoreId(1)));
        // Pinned: journals, stores and goldens are keyed by this value,
        // so a change to the hashed byte stream must fail here first.
        assert_eq!(job_key(&iso), 0x6ead_d9ba_fccc_1903);
    }

    /// More pins next to the isolation key above: a co-run key and a
    /// non-default platform's isolation key. Program bodies are shared
    /// behind an `Arc`; these prove the hashed bytes did not move.
    #[test]
    fn corun_and_ahb2_keys_are_pinned() {
        let co = SimJob::Corun {
            app: app(),
            app_core: CoreId(1),
            load: load(LoadLevel::High),
            load_core: CoreId(2),
        };
        assert_eq!(job_key(&co), 0xc728_3841_1b75_4543);
        let ahb = ::platform::PlatformDesc::ahb2();
        let core = CoreId(ahb.app_core as u8);
        let iso = SimJob::Isolation {
            spec: workloads::control_loop_on(&ahb, DeploymentScenario::Scenario1, core, 42),
            core,
        };
        assert_eq!(job_key_on(&iso, &ahb), 0x7229_8e94_e9d9_2a2d);
    }

    #[test]
    fn default_platform_keys_are_unchanged_and_non_default_keys_are_distinct() {
        let iso = SimJob::Isolation {
            spec: app(),
            core: CoreId(1),
        };
        let co = SimJob::Corun {
            app: app(),
            app_core: CoreId(1),
            load: load(LoadLevel::High),
            load_core: CoreId(2),
        };
        // The default description is invisible to the keying: journals
        // and stores written before platforms were pluggable replay.
        let default = ::platform::PlatformDesc::tc27x();
        assert_eq!(job_key(&iso), job_key_on(&iso, &default));
        assert_eq!(job_key(&co), job_key_on(&co, &default));
        // Non-default descriptions key distinctly — per description.
        let tdma = ::platform::PlatformDesc::tc27x_tdma();
        let ahb = ::platform::PlatformDesc::ahb2();
        for job in [&iso, &co] {
            assert_ne!(job_key(job), job_key_on(job, &tdma));
            assert_ne!(job_key(job), job_key_on(job, &ahb));
            assert_ne!(job_key_on(job, &tdma), job_key_on(job, &ahb));
        }
    }

    #[test]
    fn non_default_platform_runs_simulate_that_platform() {
        // A TDMA engine must neither share cache entries with a default
        // engine nor reproduce its timings for a contended co-run.
        let tdma = ExecEngine::sequential().with_platform(::platform::PlatformDesc::tc27x_tdma());
        assert_eq!(tdma.platform().name, "tc27x-tdma");
        let co = SimJob::Corun {
            app: app(),
            app_core: CoreId(1),
            load: load(LoadLevel::High),
            load_core: CoreId(2),
        };
        let default_co = ExecEngine::sequential()
            .run_batch(std::slice::from_ref(&co))
            .unwrap()[0]
            .clone()
            .into_observed();
        let tdma_co = tdma.run_batch(std::slice::from_ref(&co)).unwrap()[0]
            .clone()
            .into_observed();
        assert_ne!(
            default_co, tdma_co,
            "TDMA arbitration must change a contended co-run"
        );
        // Isolation profiles prime under the platform-bound key: a
        // default engine primed with a TDMA job's profile must miss.
        let profile = tdma.isolation(&app(), CoreId(1)).unwrap();
        let fresh = ExecEngine::sequential();
        fresh.prime(
            &SimJob::Isolation {
                spec: app(),
                core: CoreId(1),
            },
            profile,
        );
        assert_eq!(
            fresh.cached_profiles(),
            1,
            "primed under the default engine's own key"
        );
        assert_ne!(
            ExecEngine::fingerprint(&app(), CoreId(1)),
            ExecEngine::fingerprint_on(&app(), CoreId(1), &::platform::PlatformDesc::tc27x_tdma()),
        );
    }

    #[test]
    fn engine_cycle_budget_fails_fast_without_poisoning_the_cache() {
        let starved = ExecEngine::new(2).with_cycle_budget(Some(10));
        assert_eq!(starved.cycle_budget(), Some(10));
        let err = starved.isolation(&app(), CoreId(1)).unwrap_err();
        assert!(matches!(
            err.cause,
            JobFailure::Sim(SimError::CycleLimit { limit: 10 })
        ));
        assert_eq!(starved.cached_profiles(), 0, "failed runs are not cached");
        // A sufficient budget reproduces the unbudgeted profile.
        let free = ExecEngine::sequential();
        let reference = free.isolation(&app(), CoreId(1)).unwrap();
        let roomy = ExecEngine::new(2).with_cycle_budget(Some(u64::MAX));
        let budgeted = roomy.isolation(&app(), CoreId(1)).unwrap();
        assert_eq!(budgeted.counters(), reference.counters());
    }

    #[test]
    fn transient_classification_and_display() {
        assert!(JobFailure::Transient {
            detail: "injected dropped read".into()
        }
        .is_transient());
        assert!(!JobFailure::TimedOut { millis: 50 }.is_transient());
        assert!(!JobFailure::Panic("boom".into()).is_transient());
        assert!(!JobFailure::Sim(SimError::NothingLoaded).is_transient());
        assert_eq!(
            JobFailure::TimedOut { millis: 50 }.to_string(),
            "job exceeded the 50 ms watchdog"
        );
        assert_eq!(
            JobFailure::Transient {
                detail: "injected dropped read".into()
            }
            .to_string(),
            "transient fault: injected dropped read"
        );
    }

    #[test]
    fn primed_profiles_are_served_as_cache_hits() {
        let donor = ExecEngine::sequential();
        let profile = donor.isolation(&app(), CoreId(1)).unwrap();
        let engine = ExecEngine::new(2);
        engine.prime(
            &SimJob::Isolation {
                spec: app(),
                core: CoreId(1),
            },
            profile.clone(),
        );
        assert_eq!(engine.cached_profiles(), 1);
        let served = engine.isolation(&app(), CoreId(1)).unwrap();
        assert_eq!(served.counters(), profile.counters());
        let r = engine.report();
        assert_eq!(r.cache_hits, 1);
        assert_eq!(r.simulations_run, 0, "primed profile skipped simulation");
    }

    /// A profile that no simulation produced: whatever a lookup returns
    /// after priming with it came from the memo, not from a run.
    fn stand_in(name: &str) -> IsolationProfile {
        IsolationProfile::new(name, tc27x_sim::DebugCounters::default())
    }

    #[test]
    fn recipe_keys_equal_the_built_specs_job_keys_on_every_platform() {
        for name in ::platform::PlatformDesc::names() {
            let desc = ::platform::PlatformDesc::by_name(name).unwrap();
            let engine = ExecEngine::sequential().with_platform(desc.clone());
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            for scenario in DeploymentScenario::all() {
                for level in LoadLevel::all() {
                    let recipes = [
                        Recipe::ControlLoop {
                            scenario,
                            core: app_core,
                            seed: 42,
                        },
                        Recipe::Contender {
                            scenario,
                            level,
                            core: load_core,
                            seed: 7,
                        },
                    ];
                    for recipe in recipes {
                        let job = SimJob::Isolation {
                            spec: recipe.build(&desc),
                            core: recipe.core(),
                        };
                        let key = job_key_on(&job, &desc);
                        let profile = stand_in(&format!("{recipe:?}"));
                        engine.prime_keyed(key, profile.clone());
                        let (got, served) = engine.isolation_by_recipe(recipe).unwrap();
                        assert_eq!(got, key, "{name}: {recipe:?}");
                        assert_eq!(served, profile, "{name}: {recipe:?}");
                    }
                }
            }
            assert_eq!(engine.report().simulations_run, 0, "{name}");
        }
    }

    /// Stores and journals written before recipes existed hold profiles
    /// under the pinned job key; a recipe lookup on a restarted engine
    /// primed from them finds the profile without simulating.
    #[test]
    fn recipe_lookups_resolve_pinned_store_keys() {
        let engine = ExecEngine::sequential();
        engine.prime_keyed(0x6ead_d9ba_fccc_1903, stand_in("stored"));
        let (key, profile) = engine
            .isolation_by_recipe(Recipe::ControlLoop {
                scenario: DeploymentScenario::Scenario1,
                core: CoreId(1),
                seed: 42,
            })
            .unwrap();
        assert_eq!(key, 0x6ead_d9ba_fccc_1903);
        assert_eq!(profile, stand_in("stored"));
        assert_eq!(engine.report().simulations_run, 0);
    }

    #[test]
    fn repeat_recipes_build_and_hash_nothing() {
        let recipe = Recipe::ControlLoop {
            scenario: DeploymentScenario::Scenario1,
            core: CoreId(1),
            seed: 42,
        };
        let engine = ExecEngine::sequential();
        let (key, first) = engine.isolation_by_recipe(recipe).unwrap();
        assert_eq!(
            key,
            job_key(&SimJob::Isolation {
                spec: app(),
                core: CoreId(1),
            })
        );
        let r = engine.report();
        assert_eq!(
            (r.simulations_run, r.cache_misses, r.spec_hashes),
            (1, 1, 1)
        );

        // The alias hit: one memo hit, nothing built or hashed.
        for _ in 0..3 {
            assert_eq!(
                engine.isolation_by_recipe(recipe).unwrap(),
                (key, first.clone())
            );
        }
        let r = engine.report();
        assert_eq!((r.cache_hits, r.spec_hashes), (3, 1));
        assert!(r.wall_seconds > 0.0, "lookups count as engine time");

        // Clearing drops the alias with the profile: rebuild, re-run.
        engine.clear_cache();
        assert_eq!(
            engine.isolation_by_recipe(recipe).unwrap(),
            (key, first.clone())
        );
        let r = engine.report();
        assert_eq!((r.simulations_run, r.spec_hashes), (2, 2));

        // A restarted engine primed by key pays one hash per recipe.
        let restarted = ExecEngine::sequential();
        restarted.prime_keyed(key, first.clone());
        for _ in 0..2 {
            assert_eq!(
                restarted.isolation_by_recipe(recipe).unwrap(),
                (key, first.clone())
            );
        }
        let r = restarted.report();
        assert_eq!((r.simulations_run, r.cache_hits, r.spec_hashes), (0, 2, 1));
    }

    #[test]
    fn each_isolation_job_is_hashed_once() {
        let engine = ExecEngine::sequential();
        let iso = SimJob::Isolation {
            spec: app(),
            core: CoreId(1),
        };
        engine.run_batch(&[iso.clone(), iso]).unwrap();
        let r = engine.report();
        assert_eq!((r.simulations_run, r.spec_hashes), (1, 2));
        // A cached single isolation keys the borrowed spec once.
        engine.isolation(&app(), CoreId(1)).unwrap();
        assert_eq!(engine.report().spec_hashes, 3);
    }

    /// A sweep row over `app`: its isolation, a fresh contender's
    /// isolation and their co-run, as `sweep_batch` builds it.
    fn warm_row(app: &TaskSpec, intensity: u32) -> Vec<SimJob> {
        let contender = short_load(intensity);
        vec![
            SimJob::Isolation {
                spec: app.clone(),
                core: CoreId(1),
            },
            SimJob::Isolation {
                spec: contender.clone(),
                core: CoreId(2),
            },
            SimJob::Corun {
                app: app.clone(),
                app_core: CoreId(1),
                load: contender,
                load_core: CoreId(2),
            },
        ]
    }

    #[test]
    fn a_warm_row_hashes_only_its_fresh_contender() {
        let engine = ExecEngine::sequential();
        let spec = small_app();
        engine.run_batch(&warm_row(&spec, 8)).unwrap();
        assert_eq!(engine.report().spec_hashes, 2, "a cold row keys both");
        for (i, n) in [9, 10, 11].into_iter().enumerate() {
            let got = engine.run_batch(&warm_row(&spec, n)).unwrap();
            let full = ExecEngine::sequential()
                .run_batch(&warm_row(&spec, n))
                .unwrap();
            assert_eq!(got, full);
            assert_eq!(engine.report().spec_hashes, 3 + i as u64, "{n} loads");
        }
        // A spec rebuilt by value has new bodies: it is hashed again,
        // to the same key.
        let rebuilt = small_app();
        assert_eq!(rebuilt, spec);
        let before = engine.report();
        engine.isolation(&rebuilt, CoreId(1)).unwrap();
        let after = engine.report();
        assert_eq!(after.spec_hashes, before.spec_hashes + 1);
        assert_eq!(after.cache_hits, before.cache_hits + 1, "same key, cached");
        engine.isolation(&rebuilt, CoreId(1)).unwrap();
        assert_eq!(engine.report().spec_hashes, after.spec_hashes);
        // Clearing the cache forgets the identities: keyed by hash again.
        engine.clear_cache();
        engine.isolation(&spec, CoreId(1)).unwrap();
        let cleared = engine.report();
        assert_eq!(cleared.spec_hashes, after.spec_hashes + 1);
        assert_eq!(cleared.cache_misses, after.cache_misses + 1);
    }

    /// A short app: 290 SRI posts, four solo checkpoints.
    fn small_app() -> TaskSpec {
        control_loop(DeploymentScenario::LowTraffic, CoreId(1), 42)
    }

    /// A contender that ends early in the app's run: `n` LMU loads from
    /// non-cacheable flash code.
    fn short_load(n: u32) -> TaskSpec {
        let prog = tc27x_sim::Program::build(|b| {
            b.repeat(n, |b| {
                b.load("buf", tc27x_sim::Pattern::Sequential);
                b.compute(2);
            });
        });
        TaskSpec::new(
            format!("short-{n}"),
            prog,
            tc27x_sim::Placement::new(tc27x_sim::Region::Pflash0, false),
        )
        .with_object(tc27x_sim::DataObject::new(
            "buf",
            4 << 10,
            tc27x_sim::Placement::new(tc27x_sim::Region::Lmu, false),
        ))
    }

    /// `[app isolation, contender isolation, co-run]` with an `n`-load
    /// contender.
    fn sweep_row(n: u32) -> Vec<SimJob> {
        vec![
            SimJob::Isolation {
                spec: small_app(),
                core: CoreId(1),
            },
            SimJob::Isolation {
                spec: short_load(n),
                core: CoreId(2),
            },
            SimJob::Corun {
                app: small_app(),
                app_core: CoreId(1),
                load: short_load(n),
                load_core: CoreId(2),
            },
        ]
    }

    #[test]
    fn corun_tails_splice_from_the_apps_own_isolation_run() {
        let full = ExecEngine::sequential().with_sim_engine(Engine::Tick);
        let engine = ExecEngine::sequential();
        for n in [8, 30, 60] {
            let batch = sweep_row(n);
            assert_eq!(
                engine.run_batch(&batch).unwrap(),
                full.run_batch(&batch).unwrap(),
                "{n} loads"
            );
        }
        let r = engine.report();
        // The first batch executed the app's isolation and recorded
        // during it; later batches reuse the timeline.
        assert_eq!((r.tail_recordings, r.tail_splices), (1, 3));
        assert_eq!(r.simulations_run, full.report().simulations_run);
        assert_eq!(engine.cached_timelines(), 1, "the app only, no contender");
        assert_eq!(full.report().tail_splices, 0, "the stepper runs in full");
        assert_eq!(full.cached_timelines(), 0);
    }

    #[test]
    fn a_cached_app_records_its_timeline_in_one_extra_run() {
        let engine = ExecEngine::sequential();
        engine.isolation(&small_app(), CoreId(1)).unwrap();
        let batch = sweep_row(30);
        let reference = ExecEngine::sequential()
            .with_block_memo(false)
            .with_telemetry(Arc::new(Telemetry::new("full")))
            .run_batch(&batch)
            .unwrap();
        assert_eq!(engine.run_batch(&batch).unwrap(), reference);
        let r = engine.report();
        assert_eq!(r.simulations_run, 3, "the recording run is not counted");
        assert_eq!((r.tail_recordings, r.tail_splices), (1, 1));
        assert_eq!(engine.cached_timelines(), 1);

        engine.clear_cache();
        assert_eq!(engine.cached_timelines(), 0);
        assert_eq!(engine.run_batch(&batch).unwrap(), reference);
        assert_eq!(
            engine.report().tail_recordings,
            2,
            "cleared, so recorded again"
        );
    }

    #[test]
    fn corun_without_its_app_in_the_batch_runs_in_full() {
        let engine = ExecEngine::new(2);
        let observed = engine
            .corun(&app(), CoreId(1), &load(LoadLevel::High), CoreId(2))
            .unwrap();
        let r = engine.report();
        assert_eq!((r.tail_recordings, r.tail_splices), (0, 0));
        assert_eq!(engine.cached_timelines(), 0);
        assert_eq!(
            observed,
            crate::runner::observed_corun(&app(), CoreId(1), &load(LoadLevel::High), CoreId(2))
                .unwrap()
        );
    }

    #[test]
    fn observed_engines_never_splice() {
        let batch = sweep_row(30);
        let reference = ExecEngine::sequential().run_batch(&batch).unwrap();
        for engine in [
            ExecEngine::sequential().with_telemetry(Arc::new(Telemetry::new("t"))),
            ExecEngine::sequential().with_attribution(true),
        ] {
            assert_eq!(engine.run_batch(&batch).unwrap(), reference);
            let r = engine.report();
            assert_eq!((r.tail_recordings, r.tail_splices), (0, 0));
            assert_eq!(engine.cached_timelines(), 0);
        }
    }

    #[test]
    fn spliced_cycle_budgets_fail_exactly_where_full_runs_do() {
        let batch = sweep_row(30);
        let outcomes = ExecEngine::sequential().run_batch(&batch).unwrap();
        let observed = outcomes[2].clone().into_observed();
        let show = |results: Vec<Result<SimOutcome, JobFailure>>| -> Vec<String> {
            results
                .into_iter()
                .map(|r| match r {
                    Ok(o) => format!("{o:?}"),
                    Err(e) => e.to_string(),
                })
                .collect()
        };
        for budget in [observed - 1, observed, observed + 1] {
            let spliced = ExecEngine::sequential().with_cycle_budget(Some(budget));
            let full = ExecEngine::sequential()
                .with_cycle_budget(Some(budget))
                .with_sim_engine(Engine::Tick);
            let got = show(spliced.run_batch_detailed(&batch));
            assert_eq!(
                got,
                show(full.run_batch_detailed(&batch)),
                "budget {budget}"
            );
            assert_eq!(
                got[2].contains("cycle limit"),
                budget <= observed,
                "budget {budget}"
            );
            assert_eq!(
                spliced.report().tail_splices,
                u64::from(budget > observed),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn repeat_recipe_coruns_simulate_nothing() {
        let [app, load] = [
            Recipe::ControlLoop {
                scenario: DeploymentScenario::LowTraffic,
                core: CoreId(1),
                seed: 42,
            },
            Recipe::Contender {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
                core: CoreId(2),
                seed: 7,
            },
        ];
        let engine = ExecEngine::sequential();
        let desc = ::platform::default_platform();
        let expected = crate::runner::observed_corun(
            &app.build(desc),
            app.core(),
            &load.build(desc),
            load.core(),
        )
        .unwrap();
        for _ in 0..3 {
            assert_eq!(engine.corun_by_recipe(app, load).unwrap(), expected);
        }
        assert_eq!(engine.report().simulations_run, 1);

        // Clearing drops the answer: the next call simulates again.
        engine.clear_cache();
        assert_eq!(engine.corun_by_recipe(app, load).unwrap(), expected);
        assert_eq!(engine.report().simulations_run, 2);
        // Another platform never sees this platform's answers.
        let tdma = ExecEngine::sequential().with_platform(::platform::PlatformDesc::tc27x_tdma());
        tdma.corun_by_recipe(app, load).unwrap();
        assert_eq!(tdma.report().simulations_run, 1);
    }

    #[test]
    fn report_rates_are_consistent() {
        let engine = ExecEngine::new(2);
        engine.isolation(&app(), CoreId(1)).unwrap();
        engine.isolation(&app(), CoreId(1)).unwrap();
        let r = engine.report();
        assert!((r.hit_rate() - 0.5).abs() < 1e-9);
        assert!(r.wall_seconds > 0.0);
        assert!(r.runs_per_sec() > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\"cache_hit_rate\": 0.5000"));
        // The noise-free work counters are in the file too.
        for (name, value) in [
            ("spec_hashes", r.spec_hashes),
            ("tail_recordings", r.tail_recordings),
            ("tail_splices", r.tail_splices),
            ("retried", r.retried),
            ("injected_faults", r.injected_faults),
            ("timed_out", r.timed_out),
            ("journal_errors", r.journal_errors),
        ] {
            assert!(
                json.contains(&format!("\"{name}\": {value}")),
                "{name}: {json}"
            );
        }
        assert_eq!(r.spec_hashes, 2, "one key per isolation lookup");
        assert!(json.trim_end().ends_with('}'));
    }
}
