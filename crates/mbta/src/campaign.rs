//! Crash-safe experiment campaigns: the durable layer on top of
//! [`ExecEngine`].
//!
//! A [`CampaignRunner`] wraps an engine and adds what a multi-hour
//! evaluation sweep needs to survive the real world:
//!
//! * **a write-ahead journal** ([`crate::journal`]): every completed
//!   job — success or failure — is appended to a [`Store`] in the
//!   campaign namespace and fsync'd before the campaign moves on, keyed
//!   by the job's stable FNV key ([`crate::job_key`]) under a config
//!   fingerprint;
//! * **resume**: opening an existing journal replays completed jobs
//!   from disk and re-executes only missing or failed ones. Because
//!   every job is a pure function of its spec and results merge by
//!   batch index, the resumed output is byte-identical to an
//!   uninterrupted run at any worker count;
//! * **deterministic bounded retries** (policy shared through
//!   [`crate::retry`]): transient faults ([`JobFailure::Transient`],
//!   e.g. an injected dropped counter read) are retried up to
//!   [`RetryPolicy::max_attempts`] times with the attempt count folded
//!   into the job's SplitMix64 seed — the MBTA equivalent of
//!   re-measuring after a bad counter read. Watchdog expiries retry
//!   too, but with the *original* seed: the expiry is environmental,
//!   so a job that times out and then succeeds reproduces the
//!   undisturbed result exactly. Permanent failures (simulation
//!   errors, panics) never retry;
//! * **a wall-clock watchdog** complementing the simulator's
//!   `max_cycles` guard: a job that exceeds
//!   [`CampaignConfig::watchdog_millis`] of host time is recorded as
//!   [`JobFailure::TimedOut`] and the campaign degrades gracefully —
//!   it finishes with a [`CampaignManifest`] naming every unrecovered
//!   job instead of aborting.
//!
//! The runner implements [`BatchRunner`], so every experiment driver
//! that is generic over it — [`crate::figure4_panel_with`],
//! [`crate::table6_block_with`], [`crate::calibrate_with`], the bench
//! sweep — becomes durable by swapping the runner.

use crate::exec::{
    execute_job_budgeted, job_key_on, panic_message, BatchRunner, ExecEngine, JobFailure, SimJob,
    SimOutcome,
};
use crate::journal::{failure_kind, parse_record, render_record, JournaledOutcome};
use crate::pool;
use crate::retry::{classify, fold_seed, FailureClass, RetryPolicy};
use crate::store::{JournalError, Store, StoreRecovery, CAMPAIGN_NAMESPACE};
use obs::Fnv;
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tc27x_sim::rng::SplitMix64;

/// Deterministic transient-fault injection: before each attempt a
/// SplitMix64 stream seeded from `(plan seed, job key, attempt)` decides
/// whether the measurement "drops" — exercising the retry path without
/// any wall-clock dependence, so faulted campaigns replay exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Probability of an injected transient fault per attempt, in
    /// permille (0 = never, 1000 = always).
    pub rate_permille: u32,
    /// Seed of the injection stream.
    pub seed: u64,
}

impl FaultPlan {
    /// Whether this plan injects a fault for `(key, attempt)` — a pure
    /// function of the plan and those two values.
    pub fn injects(&self, key: u64, attempt: u32) -> bool {
        if self.rate_permille == 0 {
            return false;
        }
        let mut rng = SplitMix64::new(
            self.seed ^ key ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        rng.below(1000) < u64::from(self.rate_permille)
    }
}

/// Campaign behaviour knobs. Everything except the watchdog is part of
/// the journal's config fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CampaignConfig {
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Optional transient-fault injection (testing the retry path).
    pub fault: Option<FaultPlan>,
    /// Wall-clock watchdog per job attempt, in milliseconds. `None`
    /// disables the watchdog and runs jobs on the engine directly.
    ///
    /// Deliberately **excluded** from the config fingerprint: the
    /// watchdog only decides how long the host waits, never what a
    /// completed job computes, so resuming with a longer watchdog to
    /// recover previously timed-out jobs is legitimate.
    pub watchdog_millis: Option<u64>,
    /// Journal durability policy. `false` (the default, the PR-3
    /// behaviour) warns and counts a failed append but lets the job's
    /// outcome stand: finishing beats aborting a multi-hour sweep over
    /// a full disk. `true` converts a failed append into a
    /// [`JobFailure::Transient`] for that job — the write-ahead
    /// guarantee is then absolute: no outcome is ever reported that
    /// the journal cannot replay. Excluded from the config fingerprint
    /// for the same reason as the watchdog: it decides how an
    /// *environmental* I/O failure is surfaced, never what a completed
    /// job computes, so a journal written under either policy replays
    /// into the other.
    pub journal_strict: bool,
    /// Optional deterministic *watchdog-expiry* injection: a pure
    /// `(seed, key, attempt)` plan that records an attempt as
    /// [`JobFailure::TimedOut`] without running it — the test seam for
    /// the watchdog-vs-retry interaction. Like the watchdog itself it
    /// is **excluded** from the config fingerprint: an expiry is an
    /// environmental event and never changes what a completed job
    /// computes, so the retried job runs with its *original* seed and
    /// the recovered campaign output is byte-identical to one that
    /// never timed out.
    pub timeout_fault: Option<FaultPlan>,
}

impl CampaignConfig {
    /// The fingerprint a journal written under this config carries
    /// (combined with the engine's cycle budget, which caps the
    /// simulated work per job, and the engine's platform description,
    /// which decides the simulated machine). The default platform
    /// contributes nothing, so journals written before platforms were
    /// pluggable resume unchanged.
    fn fingerprint(&self, cycle_budget: Option<u64>, desc: &::platform::PlatformDesc) -> u64 {
        let mut h = Fnv::new();
        h.write_str_delimited("mbta-campaign/v1");
        if !desc.is_default() {
            h.write_str_delimited("platform");
            h.write_u64(desc.fingerprint());
        }
        h.write_u64(u64::from(self.retry.max_attempts));
        match self.fault {
            Some(p) => {
                h.write_u8(1);
                h.write_u64(u64::from(p.rate_permille));
                h.write_u64(p.seed);
            }
            None => {
                h.write_u8(0);
            }
        }
        match cycle_budget {
            Some(b) => {
                h.write_u8(1);
                h.write_u64(b);
            }
            None => {
                h.write_u8(0);
            }
        }
        h.finish()
    }
}

/// One unrecovered job in the partial-result manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The job's stable FNV key.
    pub key: u64,
    /// Human-readable job description.
    pub label: String,
    /// Attempts consumed (1 = failed on the first try).
    pub attempts: u32,
    /// Failure class token (`sim`, `panic`, `timeout`, `transient`).
    pub kind: String,
    /// Display form of the last failure.
    pub failure: String,
}

/// What a campaign delivered: how many distinct jobs completed and
/// which ones never recovered. A campaign with unrecovered jobs is
/// *partial*, not failed — callers keep every completed result.
#[derive(Clone, Debug, Default)]
pub struct CampaignManifest {
    /// Distinct jobs with a completed (possibly journal-replayed)
    /// outcome.
    pub completed: usize,
    /// Jobs that stayed failed after retries, in key order.
    pub unrecovered: Vec<ManifestEntry>,
}

impl CampaignManifest {
    /// Whether every submitted job completed.
    pub fn is_complete(&self) -> bool {
        self.unrecovered.is_empty()
    }

    /// Plain-text rendering for campaign binaries and CI logs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign manifest: {} job(s) completed, {} unrecovered\n",
            self.completed,
            self.unrecovered.len()
        );
        for e in &self.unrecovered {
            out.push_str(&format!(
                "  UNRECOVERED {:016x} [{}] after {} attempt(s): {} ({})\n",
                e.key, e.label, e.attempts, e.failure, e.kind
            ));
        }
        out
    }
}

/// Lifetime counters of a campaign (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs served from the journal replay map (no simulation).
    pub replayed: u64,
    /// Job attempts actually executed.
    pub executed: u64,
    /// Retries after transient failures.
    pub retried: u64,
    /// Transient faults injected by the fault plan.
    pub injected_faults: u64,
    /// Watchdog expiries.
    pub timed_out: u64,
    /// Journal append errors (durability lost, campaign continued).
    pub journal_errors: u64,
}

/// The crash-safe campaign runner. See the [module docs](self).
pub struct CampaignRunner<'e> {
    engine: &'e ExecEngine,
    config: CampaignConfig,
    journal: Option<Store>,
    /// Completed outcomes by job key — journal replays plus everything
    /// finished this run. This is what makes resume O(missing jobs).
    replay: Mutex<HashMap<u64, SimOutcome>>,
    /// Unrecovered jobs by key (BTreeMap for deterministic manifest
    /// order). A later success for the same key clears the entry.
    failed: Mutex<BTreeMap<u64, ManifestEntry>>,
    replayed: AtomicU64,
    executed: AtomicU64,
    retried: AtomicU64,
    injected: AtomicU64,
    timed_out: AtomicU64,
    journal_errors: AtomicU64,
}

impl std::fmt::Debug for CampaignRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("config", &self.config)
            .field("journal", &self.journal)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'e> CampaignRunner<'e> {
    /// A campaign without a journal: retries, watchdog and manifest
    /// only. Useful as the A/B baseline when measuring journal
    /// overhead.
    pub fn new(engine: &'e ExecEngine, config: CampaignConfig) -> Self {
        CampaignRunner {
            engine,
            config,
            journal: None,
            replay: Mutex::new(HashMap::new()),
            failed: Mutex::new(BTreeMap::new()),
            replayed: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
        }
    }

    /// A journaled campaign writing a **fresh** journal at `path`
    /// (truncating any previous file).
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors.
    pub fn journaled(
        engine: &'e ExecEngine,
        config: CampaignConfig,
        path: &Path,
    ) -> Result<Self, JournalError> {
        let fp = config.fingerprint(engine.cycle_budget(), engine.platform());
        let journal = Store::create(path, CAMPAIGN_NAMESPACE, fp)?;
        let mut runner = CampaignRunner::new(engine, config);
        runner.journal = Some(journal);
        Ok(runner)
    }

    /// A journaled campaign over an already constructed campaign-namespace
    /// [`Store`] — pairs with [`Store::with_sink`] so tests can drive
    /// the journal's write/fsync error paths through a fallible sink.
    /// The caller owns namespace and fingerprint consistency (a
    /// sink-backed journal was never read back, so there is nothing to
    /// validate).
    pub fn with_journal(engine: &'e ExecEngine, config: CampaignConfig, journal: Store) -> Self {
        let mut runner = CampaignRunner::new(engine, config);
        runner.journal = Some(journal);
        runner
    }

    /// The fingerprint a journal written under this campaign's
    /// configuration carries — what [`Store::with_sink`] callers pair
    /// with [`Self::with_journal`].
    pub fn config_fingerprint(&self) -> u64 {
        self.config
            .fingerprint(self.engine.cycle_budget(), self.engine.platform())
    }

    /// Resumes a journaled campaign from `path`: recovers every intact
    /// record (truncating a torn trailing record with a warning in the
    /// [`StoreRecovery`]), replays completed jobs into the runner and
    /// primes the engine's memo cache as those jobs are re-requested.
    /// Journaled failures are *not* replayed — the jobs re-execute,
    /// deterministically reproducing the original outcome (or
    /// recovering, if e.g. the watchdog is now longer).
    ///
    /// # Errors
    ///
    /// [`JournalError::ConfigMismatch`] when the journal belongs to a
    /// differently configured campaign, plus all recovery errors of
    /// [`Store::open`]. Journals written under the legacy
    /// `mbta-journal v1` header resume too.
    pub fn resumed(
        engine: &'e ExecEngine,
        config: CampaignConfig,
        path: &Path,
    ) -> Result<(Self, StoreRecovery), JournalError> {
        let fp = config.fingerprint(engine.cycle_budget(), engine.platform());
        let (journal, outcomes, report) =
            Store::open_with(path, CAMPAIGN_NAMESPACE, fp, |value| parse_record(&value))?;
        let mut runner = CampaignRunner::new(engine, config);
        runner.journal = Some(journal);
        // The last record of each key wins: a retry that eventually
        // succeeded leaves its success as the key's final word.
        *lock(&runner.replay) = outcomes
            .into_iter()
            .filter_map(|(key, (_, outcome))| match outcome {
                JournaledOutcome::Success(o) => Some((key, o)),
                JournaledOutcome::Failure { .. } => None,
            })
            .collect();
        Ok((runner, report))
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ExecEngine {
        self.engine
    }

    /// Snapshot of the campaign counters.
    pub fn stats(&self) -> CampaignStats {
        CampaignStats {
            replayed: self.replayed.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            injected_faults: self.injected.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
        }
    }

    /// The partial-result manifest: completed-job count plus every job
    /// that stayed failed, in stable key order.
    pub fn manifest(&self) -> CampaignManifest {
        CampaignManifest {
            completed: lock(&self.replay).len(),
            unrecovered: lock(&self.failed).values().cloned().collect(),
        }
    }

    /// Appends one outcome to the journal. Returns the failure that
    /// should replace the job's result under the strict durability
    /// policy, `None` when the outcome stands (append succeeded, no
    /// journal, or the default lenient policy).
    fn journal_append(
        &self,
        key: u64,
        attempt: u32,
        result: &Result<SimOutcome, JobFailure>,
    ) -> Option<JobFailure> {
        let journal = self.journal.as_ref()?;
        let Err(e) = journal.put(key, &render_record(attempt, result)) else {
            return None;
        };
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
        let message = format!("journal append failed at {}: {e}", journal.path().display());
        match self.engine.telemetry() {
            // The channel dedups by code: a full disk warns
            // once, not once per record.
            Some(t) => t.warn("journal.append_failed", message.clone()),
            None => eprintln!("warning: {message}"),
        }
        // Lenient (default): durability is lost but the campaign's
        // results are still correct; finishing beats aborting a
        // multi-hour sweep over a full disk. Strict: an outcome the
        // journal cannot replay must not be reported as completed.
        self.config
            .journal_strict
            .then_some(JobFailure::Transient { detail: message })
    }

    /// Executes one attempt of `job`, with fault injection and the
    /// watchdog applied. `reseeds` counts the *re-measuring* retries so
    /// far — the value folded into the seed; same-seed retries (after a
    /// timeout) advance `attempt` without advancing it.
    fn attempt(
        &self,
        job: &SimJob,
        key: u64,
        attempt: u32,
        reseeds: u32,
    ) -> Result<SimOutcome, JobFailure> {
        if let Some(plan) = &self.config.fault {
            if plan.injects(key, attempt) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Err(JobFailure::Transient {
                    detail: format!("injected dropped counter read (attempt {attempt})"),
                });
            }
        }
        if let Some(plan) = &self.config.timeout_fault {
            if plan.injects(key, attempt) {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(JobFailure::TimedOut {
                    millis: self.config.watchdog_millis.unwrap_or(0),
                });
            }
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        let run = job_for_attempt(job, reseeds);
        match self.config.watchdog_millis {
            None => {
                // No watchdog: run on the engine itself, which brings
                // memoization and panic containment for free.
                let mut out = self.engine.run_batch_detailed(std::slice::from_ref(&run));
                out.pop()
                    .unwrap_or_else(|| Err(JobFailure::Panic("engine returned no result".into())))
            }
            Some(millis) => {
                let result = run_with_watchdog(
                    &run,
                    self.engine.cycle_budget(),
                    self.engine.sim_engine(),
                    self.engine.block_memo(),
                    self.engine.platform().clone(),
                    millis,
                );
                if matches!(result, Err(JobFailure::TimedOut { .. })) {
                    self.timed_out.fetch_add(1, Ordering::Relaxed);
                }
                // The watchdog path bypasses the engine; feed fresh
                // isolation profiles back into its memo cache so later
                // batches and model evaluations reuse them.
                if let Ok(SimOutcome::Isolation(p)) = &result {
                    self.engine.prime(&run, p.clone());
                }
                result
            }
        }
    }

    /// Runs one job to its final outcome: attempts, retries, journal
    /// records, replay/manifest bookkeeping.
    fn run_one(&self, job: &SimJob, key: u64) -> Result<SimOutcome, JobFailure> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0;
        let mut reseeds = 0;
        loop {
            let mut result = self.attempt(job, key, attempt, reseeds);
            if let Some(failure) = self.journal_append(key, attempt, &result) {
                result = Err(failure);
            }
            match result {
                Ok(outcome) => {
                    lock(&self.replay).insert(key, outcome.clone());
                    lock(&self.failed).remove(&key);
                    return Ok(outcome);
                }
                Err(failure) if attempt + 1 < max_attempts && classify(&failure).is_transient() => {
                    if classify(&failure) == (FailureClass::Transient { reseed: true }) {
                        reseeds += 1;
                    }
                    self.retried.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(failure) => {
                    lock(&self.failed).insert(
                        key,
                        ManifestEntry {
                            key,
                            label: describe(job),
                            attempts: attempt + 1,
                            kind: failure_kind(&failure).to_string(),
                            failure: failure.to_string(),
                        },
                    );
                    return Err(failure);
                }
            }
        }
    }
}

impl BatchRunner for CampaignRunner<'_> {
    fn platform(&self) -> &::platform::PlatformDesc {
        self.engine.platform()
    }

    fn run_batch_detailed(&self, batch: &[SimJob]) -> Vec<Result<SimOutcome, JobFailure>> {
        let keys: Vec<u64> = batch
            .iter()
            .map(|j| job_key_on(j, self.engine.platform()))
            .collect();
        let mut results: Vec<Option<Result<SimOutcome, JobFailure>>> = vec![None; batch.len()];

        // Phase 1: replay — serve journal-recovered (and already
        // completed) jobs from the replay map, priming the engine cache
        // with their isolation profiles.
        {
            let replay = lock(&self.replay);
            for (i, key) in keys.iter().enumerate() {
                if let Some(outcome) = replay.get(key) {
                    if let SimOutcome::Isolation(p) = outcome {
                        self.engine.prime(&batch[i], p.clone());
                    }
                    self.replayed.fetch_add(1, Ordering::Relaxed);
                    results[i] = Some(Ok(outcome.clone()));
                }
            }
        }

        // Phase 2: dedupe the remainder by key — equal jobs execute
        // (and journal) once per batch; duplicates clone the result.
        let mut first_by_key: HashMap<u64, usize> = HashMap::new();
        let mut pending: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if results[i].is_some() || first_by_key.contains_key(key) {
                continue;
            }
            first_by_key.insert(*key, i);
            pending.push(i);
        }

        // Phase 3: execute pending jobs on the pool. Results collect by
        // index, so the merged batch is identical for any worker count.
        let executed: Vec<Result<SimOutcome, JobFailure>> =
            pool::run_indexed(&pending, self.engine.jobs(), |_, &i| {
                self.run_one(&batch[i], keys[i])
            });

        // Phase 4: merge in batch order; alias slots clone their twin.
        let by_key: HashMap<u64, Result<SimOutcome, JobFailure>> =
            pending.iter().map(|&i| keys[i]).zip(executed).collect();
        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(r) => r,
                None => match by_key.get(&keys[i]) {
                    Some(r) => r.clone(),
                    None => Err(JobFailure::Panic("job was never planned".into())),
                },
            })
            .collect()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Human-readable job description for the manifest.
fn describe(job: &SimJob) -> String {
    match job {
        SimJob::Isolation { spec, core } => format!("isolation {}@core{}", spec.name, core.0),
        SimJob::Corun {
            app,
            app_core,
            load,
            load_core,
        } => format!(
            "corun {}@core{} vs {}@core{}",
            app.name, app_core.0, load.name, load_core.0
        ),
        SimJob::Poison => "poison".to_string(),
    }
}

/// The job actually executed for a given *re-measuring* retry count:
/// count 0 is the original job (so unfaulted campaigns — and campaigns
/// whose only failures were environmental timeouts — are byte-identical
/// to plain engine runs); later counts fold into every task seed
/// through SplitMix64 ([`crate::retry::fold_seed`]) — a fresh,
/// deterministic re-measurement.
fn job_for_attempt(job: &SimJob, reseeds: u32) -> SimJob {
    if reseeds == 0 {
        return job.clone();
    }
    let mut run = job.clone();
    match &mut run {
        SimJob::Isolation { spec, .. } => spec.seed = fold_seed(spec.seed, reseeds),
        SimJob::Corun { app, load, .. } => {
            app.seed = fold_seed(app.seed, reseeds);
            load.seed = fold_seed(load.seed, reseeds);
        }
        SimJob::Poison => {}
    }
    run
}

/// Executes `job` on a helper thread and gives up after `millis` of
/// wall-clock time. The helper is detached on timeout — it cannot be
/// cancelled mid-simulation, but the simulator's own `max_cycles`
/// budget bounds how long it can linger, and its eventual result is
/// discarded through the closed channel.
fn run_with_watchdog(
    job: &SimJob,
    cycle_budget: Option<u64>,
    sim_engine: tc27x_sim::Engine,
    block_memo: bool,
    desc: ::platform::PlatformDesc,
    millis: u64,
) -> Result<SimOutcome, JobFailure> {
    let (tx, rx) = mpsc::channel();
    let owned = job.clone();
    std::thread::spawn(move || {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            execute_job_budgeted(&owned, cycle_budget, sim_engine, block_memo, &desc)
        }))
        .unwrap_or_else(|payload| Err(JobFailure::Panic(panic_message(payload))));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(Duration::from_millis(millis)) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => Err(JobFailure::TimedOut { millis }),
        Err(RecvTimeoutError::Disconnected) => Err(JobFailure::Panic(
            "watchdog thread terminated without a result".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tc27x_sim::{CoreId, DeploymentScenario};
    use workloads::{contender, control_loop, LoadLevel};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mbta-campaign-unit-{}-{name}", std::process::id()));
        p
    }

    fn batch() -> Vec<SimJob> {
        let (a, b) = (CoreId(1), CoreId(2));
        let app = control_loop(DeploymentScenario::Scenario1, a, 42);
        let mut jobs = vec![SimJob::Isolation {
            spec: app.clone(),
            core: a,
        }];
        for level in LoadLevel::all() {
            let load = contender(DeploymentScenario::Scenario1, level, b, 7);
            jobs.push(SimJob::Isolation {
                spec: load.clone(),
                core: b,
            });
            jobs.push(SimJob::Corun {
                app: app.clone(),
                app_core: a,
                load,
                load_core: b,
            });
        }
        jobs
    }

    fn ccnts(results: &[Result<SimOutcome, JobFailure>]) -> Vec<u64> {
        results
            .iter()
            .map(|r| match r.as_ref().unwrap() {
                SimOutcome::Isolation(p) => p.counters().ccnt,
                SimOutcome::Corun(c) => *c,
            })
            .collect()
    }

    #[test]
    fn unjournaled_campaign_matches_the_plain_engine() {
        let engine = ExecEngine::new(2);
        let reference = ccnts(&engine.run_batch_detailed(&batch()));
        let engine2 = ExecEngine::new(2);
        let campaign = CampaignRunner::new(&engine2, CampaignConfig::default());
        let got = ccnts(&campaign.run_batch_detailed(&batch()));
        assert_eq!(got, reference);
        assert!(campaign.manifest().is_complete());
    }

    #[test]
    fn journal_resume_replays_without_resimulating() {
        let path = tmp("resume");
        let reference = {
            let engine = ExecEngine::new(2);
            let campaign =
                CampaignRunner::journaled(&engine, CampaignConfig::default(), &path).unwrap();
            ccnts(&campaign.run_batch_detailed(&batch()))
        };
        let engine = ExecEngine::new(2);
        let (campaign, report) =
            CampaignRunner::resumed(&engine, CampaignConfig::default(), &path).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.records >= batch().len());
        let got = ccnts(&campaign.run_batch_detailed(&batch()));
        assert_eq!(got, reference);
        let stats = campaign.stats();
        assert_eq!(stats.executed, 0, "everything came from the journal");
        assert_eq!(stats.replayed as usize, batch().len());
        assert_eq!(engine.report().simulations_run, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_retry_and_recover() {
        let engine = ExecEngine::new(2);
        let config = CampaignConfig {
            retry: RetryPolicy { max_attempts: 4 },
            // 40%: with 4 attempts per job the chance of a job
            // exhausting its budget is ~2.6% per job; the seed below is
            // chosen so this particular batch fully recovers.
            fault: Some(FaultPlan {
                rate_permille: 400,
                seed: 11,
            }),
            watchdog_millis: None,
            journal_strict: false,
            timeout_fault: None,
        };
        let campaign = CampaignRunner::new(&engine, config);
        let results = campaign.run_batch_detailed(&batch());
        let stats = campaign.stats();
        assert!(stats.injected_faults > 0, "plan never fired");
        assert_eq!(stats.retried, stats.injected_faults);
        assert!(
            results.iter().all(Result::is_ok),
            "every job recovered: {:?}",
            campaign.manifest().render()
        );
        // Same config, same seed → identical stats and outcomes.
        let engine2 = ExecEngine::new(2);
        let campaign2 = CampaignRunner::new(&engine2, config);
        let results2 = campaign2.run_batch_detailed(&batch());
        assert_eq!(ccnts(&results), ccnts(&results2));
        assert_eq!(campaign2.stats().injected_faults, stats.injected_faults);
    }

    #[test]
    fn always_faulting_jobs_land_in_the_manifest() {
        let engine = ExecEngine::new(2);
        let config = CampaignConfig {
            retry: RetryPolicy { max_attempts: 2 },
            fault: Some(FaultPlan {
                rate_permille: 1000,
                seed: 1,
            }),
            watchdog_millis: None,
            journal_strict: false,
            timeout_fault: None,
        };
        let campaign = CampaignRunner::new(&engine, config);
        let jobs = batch();
        let results = campaign.run_batch_detailed(&jobs);
        assert!(results.iter().all(Result::is_err));
        let manifest = campaign.manifest();
        assert!(!manifest.is_complete());
        assert_eq!(manifest.completed, 0);
        // 7 distinct jobs: 4 isolations (one app + three contenders)
        // and 3 co-runs.
        assert_eq!(manifest.unrecovered.len(), 7);
        for e in &manifest.unrecovered {
            assert_eq!(e.kind, "transient");
            assert_eq!(e.attempts, 2, "both attempts consumed");
        }
        let rendered = manifest.render();
        assert!(rendered.contains("UNRECOVERED"));
        assert!(rendered.contains("cruise-control"));
    }

    #[test]
    fn watchdog_times_out_starved_jobs_and_campaign_degrades() {
        // A 0 ms watchdog expires before any simulation can finish.
        let engine = ExecEngine::new(2);
        let config = CampaignConfig {
            watchdog_millis: Some(0),
            ..CampaignConfig::default()
        };
        let campaign = CampaignRunner::new(&engine, config);
        let jobs = batch();
        let results = campaign.run_batch_detailed(&jobs);
        assert_eq!(results.len(), jobs.len());
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(JobFailure::TimedOut { .. }))));
        let manifest = campaign.manifest();
        assert_eq!(manifest.unrecovered.len(), 7);
        assert!(manifest.unrecovered.iter().all(|e| e.kind == "timeout"));
        assert!(campaign.stats().timed_out >= 7);

        // A generous watchdog lets the same campaign succeed and must
        // reproduce the engine's results exactly.
        let engine2 = ExecEngine::new(2);
        let reference = ccnts(&engine2.run_batch_detailed(&jobs));
        let engine3 = ExecEngine::new(2);
        let generous = CampaignRunner::new(
            &engine3,
            CampaignConfig {
                watchdog_millis: Some(60_000),
                ..CampaignConfig::default()
            },
        );
        let got = ccnts(&generous.run_batch_detailed(&jobs));
        assert_eq!(got, reference);
        assert!(generous.manifest().is_complete());
        // The watchdog path primes the engine cache.
        assert!(engine3.cached_profiles() >= 4);
    }

    #[test]
    fn resume_after_timeouts_recovers_with_a_longer_watchdog() {
        let path = tmp("watchdog-resume");
        let jobs = batch();
        {
            let engine = ExecEngine::new(2);
            let campaign = CampaignRunner::journaled(
                &engine,
                CampaignConfig {
                    watchdog_millis: Some(0),
                    ..CampaignConfig::default()
                },
                &path,
            )
            .unwrap();
            let results = campaign.run_batch_detailed(&jobs);
            assert!(results.iter().all(Result::is_err));
        }
        // The watchdog is not part of the config fingerprint, so the
        // journal opens fine with a longer one and the jobs recover.
        let engine = ExecEngine::new(2);
        let (campaign, _) = CampaignRunner::resumed(
            &engine,
            CampaignConfig {
                watchdog_millis: Some(60_000),
                ..CampaignConfig::default()
            },
            &path,
        )
        .unwrap();
        let results = campaign.run_batch_detailed(&jobs);
        assert!(results.iter().all(Result::is_ok));
        assert!(campaign.manifest().is_complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_fingerprint_separates_campaigns() {
        let path = tmp("fingerprint");
        {
            let engine = ExecEngine::new(1);
            CampaignRunner::journaled(&engine, CampaignConfig::default(), &path).unwrap();
        }
        let engine = ExecEngine::new(1);
        let different = CampaignConfig {
            retry: RetryPolicy { max_attempts: 9 },
            ..CampaignConfig::default()
        };
        let err = CampaignRunner::resumed(&engine, different, &path).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }), "{err}");
        // A different watchdog alone is NOT a different campaign.
        let engine2 = ExecEngine::new(1);
        let longer = CampaignConfig {
            watchdog_millis: Some(123),
            ..CampaignConfig::default()
        };
        assert!(CampaignRunner::resumed(&engine2, longer, &path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_with_duplicates_executes_each_key_once() {
        let engine = ExecEngine::new(2);
        let campaign = CampaignRunner::new(&engine, CampaignConfig::default());
        let job = SimJob::Isolation {
            spec: control_loop(DeploymentScenario::Scenario1, CoreId(1), 42),
            core: CoreId(1),
        };
        let five = vec![job; 5];
        let results = campaign.run_batch_detailed(&five);
        let values = ccnts(&results);
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(campaign.stats().executed, 1, "four of five were aliases");
    }
}
