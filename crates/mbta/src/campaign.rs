//! Crash-safe experiment campaigns: per-job options and a durable memo
//! for [`ExecEngine`].
//!
//! A campaign is an engine configured for what a multi-hour evaluation
//! sweep needs to survive the real world. The engine's own batch
//! planner keys, dedupes, splices and runs every job, and applies these
//! options to each job inside its pool:
//!
//! * **a durable memo** ([`ExecEngine::journal`],
//!   [`ExecEngine::resume`], [`ExecEngine::open_store`]): every attempt
//!   of every job the engine executes — success or failure — is
//!   appended to an attached [`Store`] and fsync'd as the job
//!   completes, keyed by the job's stable FNV key ([`crate::job_key`]).
//!   Records use the campaign journal's codec ([`crate::journal`]).
//!   Attaching an existing store primes the memo from its records:
//!   isolation profiles, and co-run outcomes under their job keys. So
//!   a resume re-executes only missing or failed jobs, and because
//!   every job is a pure function of its spec and results merge by
//!   batch index, its output is byte-identical to an uninterrupted run
//!   at any worker count;
//! * **deterministic bounded retries** ([`ExecEngine::with_retry`],
//!   policy shared through [`crate::retry`]): transient faults
//!   ([`JobFailure::Transient`], e.g. an injected dropped counter read,
//!   [`ExecEngine::with_fault_plan`]) are retried up to
//!   [`RetryPolicy::max_attempts`] times with the attempt count folded
//!   into the job's SplitMix64 seed — the MBTA equivalent of
//!   re-measuring after a bad counter read. A reseeded retry runs in
//!   full: it splices no tail. Watchdog expiries retry too, but with
//!   the *original* seed: the expiry is environmental, so a job that
//!   times out and then succeeds reproduces the undisturbed result
//!   exactly. Permanent failures (simulation errors, panics) never
//!   retry;
//! * **a wall-clock watchdog** ([`ExecEngine::with_watchdog`])
//!   complementing the simulator's `max_cycles` guard: each attempt
//!   runs on a helper thread outside the engine's memo and splicing,
//!   and one that exceeds its host-time limit is recorded as
//!   [`JobFailure::TimedOut`]. The campaign degrades gracefully — it
//!   finishes with a [`CampaignManifest`] naming every unrecovered job
//!   instead of aborting.

use crate::exec::{
    execute_job_with_stats, panic_message, ExecEngine, JobFailure, Mode, Ran, SimJob, SimOutcome,
};
use crate::journal::{failure_kind, parse_memo_value, render_record};
use crate::retry::{classify, fold_seed, FailureClass, RetryPolicy};
use crate::store::{JournalError, Store, StoreRecovery, CAMPAIGN_NAMESPACE};
use obs::Fnv;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
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
    /// Distinct jobs with a memoized (possibly store-replayed) outcome.
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

/// An engine's campaign options, its durable memo and the campaign
/// counters (all monotonic).
#[derive(Default)]
pub(crate) struct Campaign {
    retry: RetryPolicy,
    fault: Option<FaultPlan>,
    timeout_fault: Option<FaultPlan>,
    pub(crate) watchdog_millis: Option<u64>,
    journal_strict: bool,
    store: Mutex<Option<Arc<Store>>>,
    /// Unrecovered jobs by key (BTreeMap for deterministic manifest
    /// order). A later success for the same key clears the entry.
    failed: Mutex<BTreeMap<u64, ManifestEntry>>,
    pub(crate) retried: AtomicU64,
    pub(crate) injected: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) journal_errors: AtomicU64,
}

impl Campaign {
    /// The attached store, if any.
    pub(crate) fn store(&self) -> Option<Arc<Store>> {
        lock(&self.store).clone()
    }

    /// Whether jobs need keys beyond the isolation memo's: a co-run key
    /// addresses the store and seeds the fault plans.
    pub(crate) fn keys_jobs(&self) -> bool {
        self.fault.is_some() || self.timeout_fault.is_some() || lock(&self.store).is_some()
    }
}

impl ExecEngine {
    /// Variant with a retry policy for transient failures (builder
    /// style; default [`RetryPolicy::default`]). Part of the journal
    /// fingerprint.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.campaign.retry = retry;
        self
    }

    /// Variant injecting deterministic transient faults (builder style;
    /// testing the retry path). Part of the journal fingerprint.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.campaign.fault = plan;
        self
    }

    /// Variant with deterministic *watchdog-expiry* injection (builder
    /// style): a pure `(seed, key, attempt)` plan that records an
    /// attempt as [`JobFailure::TimedOut`] without running it — the
    /// test seam for the watchdog-vs-retry interaction. Like the
    /// watchdog itself it is **excluded** from the journal fingerprint:
    /// an expiry is an environmental event and never changes what a
    /// completed job computes, so the retried job runs with its
    /// *original* seed and the recovered output is byte-identical to a
    /// run that never timed out.
    #[must_use]
    pub fn with_timeout_fault(mut self, plan: Option<FaultPlan>) -> Self {
        self.campaign.timeout_fault = plan;
        self
    }

    /// Variant with a wall-clock watchdog per job attempt, in
    /// milliseconds (builder style; `None` disables it). A watchdogged
    /// attempt runs on a helper thread outside the engine and never
    /// splices its tail.
    ///
    /// Deliberately **excluded** from the journal fingerprint: the
    /// watchdog only decides how long the host waits, never what a
    /// completed job computes, so resuming with a longer watchdog to
    /// recover previously timed-out jobs is legitimate.
    #[must_use]
    pub fn with_watchdog(mut self, millis: Option<u64>) -> Self {
        self.campaign.watchdog_millis = millis;
        self
    }

    /// Variant with a strict store durability policy (builder style).
    /// `false` (the default) warns and counts a failed append but lets
    /// the job's outcome stand: finishing beats aborting a multi-hour
    /// sweep over a full disk. `true` converts a failed append into a
    /// [`JobFailure::Transient`] for that job — the write-ahead
    /// guarantee is then absolute: no outcome is ever reported that the
    /// store cannot replay. Excluded from the journal fingerprint for
    /// the same reason as the watchdog: it decides how an
    /// *environmental* I/O failure is surfaced, never what a completed
    /// job computes.
    #[must_use]
    pub fn with_journal_strict(mut self, strict: bool) -> Self {
        self.campaign.journal_strict = strict;
        self
    }

    /// The fingerprint a campaign journal written by this engine
    /// carries: the retry policy, the fault plan, the cycle budget
    /// (which caps the simulated work per job) and the platform
    /// description (which decides the simulated machine). The default
    /// platform contributes nothing, so journals written before
    /// platforms were pluggable resume unchanged.
    pub fn journal_fingerprint(&self) -> u64 {
        let c = &self.campaign;
        let mut h = Fnv::new();
        h.write_str_delimited("mbta-campaign/v1");
        let desc = self.platform();
        if !desc.is_default() {
            h.write_str_delimited("platform");
            h.write_u64(desc.fingerprint());
        }
        h.write_u64(u64::from(c.retry.max_attempts));
        match c.fault {
            Some(p) => {
                h.write_u8(1);
                h.write_u64(u64::from(p.rate_permille));
                h.write_u64(p.seed);
            }
            None => {
                h.write_u8(0);
            }
        }
        match self.cycle_budget() {
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

    /// Attaches `store` as this engine's durable memo, replacing any
    /// earlier one: from now on every job attempt the engine executes
    /// is appended to it. Nothing is read back — pair with
    /// [`Store::create`] or [`Store::with_sink`] (the fallible-writer
    /// seam); the caller owns namespace and fingerprint consistency.
    pub fn attach_store(&self, store: Store) {
        *lock(&self.campaign.store) = Some(Arc::new(store));
    }

    /// Opens the record log at `path` under `namespace` and
    /// `config_fp` (see [`Store::open`]) and attaches it. Every intact
    /// successful record primes the memo: isolation profiles, and
    /// co-run outcomes under their job keys. Failure records are not
    /// primed — those jobs re-execute, deterministically reproducing
    /// the original outcome (or recovering, if e.g. the watchdog is now
    /// longer). Values in the older profile-store form (`<key16hex> `
    /// before the record) prime too.
    ///
    /// # Errors
    ///
    /// All recovery errors of [`Store::open`].
    pub fn open_store(
        &self,
        path: &Path,
        namespace: &str,
        config_fp: u64,
    ) -> Result<StoreRecovery, JournalError> {
        let (store, records, report) =
            Store::open_with(path, namespace, config_fp, |v| parse_memo_value(&v))?;
        self.prime_all(
            records
                .into_iter()
                .filter_map(|(key, outcome)| Some((key, outcome?))),
        );
        self.attach_store(store);
        Ok(report)
    }

    /// Starts a **fresh** campaign journal at `path` (truncating any
    /// previous file) and attaches it.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors.
    pub fn journal(&self, path: &Path) -> Result<(), JournalError> {
        let store = Store::create(path, CAMPAIGN_NAMESPACE, self.journal_fingerprint())?;
        self.attach_store(store);
        Ok(())
    }

    /// Resumes the campaign journal at `path` ([`Self::open_store`]
    /// under the campaign namespace and [`Self::journal_fingerprint`]),
    /// truncating a torn trailing record with a warning in the
    /// [`StoreRecovery`].
    ///
    /// # Errors
    ///
    /// [`JournalError::ConfigMismatch`] when the journal belongs to a
    /// differently configured campaign, plus all recovery errors of
    /// [`Store::open`]. Journals written under the legacy
    /// `mbta-journal v1` header resume too.
    pub fn resume(&self, path: &Path) -> Result<StoreRecovery, JournalError> {
        self.open_store(path, CAMPAIGN_NAMESPACE, self.journal_fingerprint())
    }

    /// Whether a durable memo is attached.
    pub fn has_store(&self) -> bool {
        self.campaign.store().is_some()
    }

    /// The partial-result manifest: memoized-job count plus every job
    /// that stayed failed, in stable key order.
    pub fn manifest(&self) -> CampaignManifest {
        CampaignManifest {
            completed: self.memoized(),
            unrecovered: lock(&self.campaign.failed).values().cloned().collect(),
        }
    }

    /// Runs one job to its final outcome: attempts under the fault
    /// plans and the watchdog, retries, one store record per attempt
    /// (appended here, as the job completes, outside every memo lock)
    /// and manifest bookkeeping. `key` is the job's key when the batch
    /// keyed it.
    pub(crate) fn run_job(
        &self,
        job: &SimJob,
        key: Option<u64>,
        mode: &Mode,
        store: Option<&Store>,
    ) -> Ran {
        let max_attempts = self.campaign.retry.max_attempts.max(1);
        let mut attempt = 0;
        let mut reseeds = 0;
        loop {
            let mut ran = self.attempt(job, key, attempt, reseeds, mode);
            if let (Some(store), Some(key)) = (store, key) {
                if let Some(failure) = self.append(store, key, attempt, &ran.result) {
                    ran = Ran::failed(failure);
                }
            }
            let failure = match &ran.result {
                Ok(_) => {
                    if let Some(key) = key {
                        lock(&self.campaign.failed).remove(&key);
                    }
                    return ran;
                }
                Err(failure) => failure,
            };
            let class = classify(failure);
            if attempt + 1 < max_attempts && class.is_transient() {
                if class == (FailureClass::Transient { reseed: true }) {
                    reseeds += 1;
                }
                self.campaign.retried.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                continue;
            }
            let key = key.unwrap_or_else(|| self.job_key(job));
            lock(&self.campaign.failed).insert(
                key,
                ManifestEntry {
                    key,
                    label: describe(job),
                    attempts: attempt + 1,
                    kind: failure_kind(failure).to_string(),
                    failure: failure.to_string(),
                },
            );
            return ran;
        }
    }

    /// Executes one attempt of `job`, with fault injection and the
    /// watchdog applied. `reseeds` counts the *re-measuring* retries so
    /// far — the value folded into the seed; same-seed retries (after a
    /// timeout) advance `attempt` without advancing it.
    fn attempt(
        &self,
        job: &SimJob,
        key: Option<u64>,
        attempt: u32,
        reseeds: u32,
        mode: &Mode,
    ) -> Ran {
        let c = &self.campaign;
        if let Some(key) = key {
            if c.fault.is_some_and(|p| p.injects(key, attempt)) {
                c.injected.fetch_add(1, Ordering::Relaxed);
                return Ran::failed(JobFailure::Transient {
                    detail: format!("injected dropped counter read (attempt {attempt})"),
                });
            }
            if c.timeout_fault.is_some_and(|p| p.injects(key, attempt)) {
                c.timed_out.fetch_add(1, Ordering::Relaxed);
                return Ran::failed(JobFailure::TimedOut {
                    millis: c.watchdog_millis.unwrap_or(0),
                });
            }
        }
        self.count_run();
        let reseeded;
        let (job, mode) = if reseeds == 0 {
            (job, mode)
        } else {
            reseeded = job_for_attempt(job, reseeds);
            (&reseeded, &Mode::Plain)
        };
        let Some(millis) = c.watchdog_millis else {
            return self.execute_caught(job, mode);
        };
        let result = run_with_watchdog(
            job,
            self.cycle_budget(),
            self.sim_engine(),
            self.block_memo(),
            self.platform().clone(),
            millis,
        );
        if matches!(result, Err(JobFailure::TimedOut { .. })) {
            c.timed_out.fetch_add(1, Ordering::Relaxed);
        }
        Ran::full(result)
    }

    /// Appends one attempt's record. Returns the failure that should
    /// replace the job's result under the strict durability policy,
    /// `None` when the outcome stands.
    fn append(
        &self,
        store: &Store,
        key: u64,
        attempt: u32,
        result: &Result<SimOutcome, JobFailure>,
    ) -> Option<JobFailure> {
        let Err(e) = store.put(key, &render_record(attempt, result)) else {
            return None;
        };
        self.campaign.journal_errors.fetch_add(1, Ordering::Relaxed);
        let message = format!("journal append failed at {}: {e}", store.path().display());
        match self.telemetry() {
            // The channel dedups by code: a full disk warns
            // once, not once per record.
            Some(t) => t.warn("journal.append_failed", message.clone()),
            None => eprintln!("warning: {message}"),
        }
        // Lenient (default): durability is lost but the campaign's
        // results are still correct. Strict: an outcome the store
        // cannot replay must not be reported as completed.
        self.campaign
            .journal_strict
            .then_some(JobFailure::Transient { detail: message })
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
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

/// The job a *re-measuring* retry executes: the retry count folds into
/// every task seed through SplitMix64 ([`crate::retry::fold_seed`]) — a
/// fresh, deterministic re-measurement. Count 0 is the original job, so
/// unfaulted campaigns — and campaigns whose only failures were
/// environmental timeouts — are byte-identical to plain engine runs.
fn job_for_attempt(job: &SimJob, reseeds: u32) -> SimJob {
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
            // The statistics snapshot is discarded, so attribution is
            // never recorded.
            execute_job_with_stats(&owned, cycle_budget, sim_engine, block_memo, false, &desc).0
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
        // A never-firing fault plan keys every job, as a campaign does.
        let campaign = ExecEngine::new(2).with_fault_plan(Some(FaultPlan {
            rate_permille: 0,
            seed: 1,
        }));
        let got = ccnts(&campaign.run_batch_detailed(&batch()));
        assert_eq!(got, reference);
        assert!(campaign.manifest().is_complete());
    }

    #[test]
    fn journal_resume_replays_without_resimulating() {
        let path = tmp("resume");
        let reference = {
            let engine = ExecEngine::new(2);
            engine.journal(&path).unwrap();
            ccnts(&engine.run_batch_detailed(&batch()))
        };
        let engine = ExecEngine::new(2);
        let report = engine.resume(&path).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.records >= batch().len());
        let got = ccnts(&engine.run_batch_detailed(&batch()));
        assert_eq!(got, reference);
        let stats = engine.report();
        assert_eq!(stats.simulations_run, 0, "everything came from the journal");
        assert_eq!(stats.cache_hits as usize, batch().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_retry_and_recover() {
        // 40%: with 4 attempts per job the chance of a job exhausting
        // its budget is ~2.6% per job; the seed below is chosen so this
        // particular batch fully recovers.
        let faulted = || {
            ExecEngine::new(2)
                .with_retry(RetryPolicy { max_attempts: 4 })
                .with_fault_plan(Some(FaultPlan {
                    rate_permille: 400,
                    seed: 11,
                }))
        };
        let campaign = faulted();
        let results = campaign.run_batch_detailed(&batch());
        let stats = campaign.report();
        assert!(stats.injected_faults > 0, "plan never fired");
        assert_eq!(stats.retried, stats.injected_faults);
        assert!(
            results.iter().all(Result::is_ok),
            "every job recovered: {:?}",
            campaign.manifest().render()
        );
        // Same config, same seed → identical stats and outcomes.
        let campaign2 = faulted();
        let results2 = campaign2.run_batch_detailed(&batch());
        assert_eq!(ccnts(&results), ccnts(&results2));
        assert_eq!(campaign2.report().injected_faults, stats.injected_faults);
    }

    #[test]
    fn always_faulting_jobs_land_in_the_manifest() {
        let campaign = ExecEngine::new(2)
            .with_retry(RetryPolicy { max_attempts: 2 })
            .with_fault_plan(Some(FaultPlan {
                rate_permille: 1000,
                seed: 1,
            }));
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
        let campaign = ExecEngine::new(2).with_watchdog(Some(0));
        let jobs = batch();
        let results = campaign.run_batch_detailed(&jobs);
        assert_eq!(results.len(), jobs.len());
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(JobFailure::TimedOut { .. }))));
        let manifest = campaign.manifest();
        assert_eq!(manifest.unrecovered.len(), 7);
        assert!(manifest.unrecovered.iter().all(|e| e.kind == "timeout"));
        assert!(campaign.report().timed_out >= 7);

        // A generous watchdog lets the same campaign succeed and must
        // reproduce the engine's results exactly.
        let engine2 = ExecEngine::new(2);
        let reference = ccnts(&engine2.run_batch_detailed(&jobs));
        let generous = ExecEngine::new(2).with_watchdog(Some(60_000));
        let got = ccnts(&generous.run_batch_detailed(&jobs));
        assert_eq!(got, reference);
        assert!(generous.manifest().is_complete());
        // Watchdogged profiles land in the engine's memo.
        assert!(generous.cached_profiles() >= 4);
    }

    #[test]
    fn resume_after_timeouts_recovers_with_a_longer_watchdog() {
        let path = tmp("watchdog-resume");
        let jobs = batch();
        {
            let engine = ExecEngine::new(2).with_watchdog(Some(0));
            engine.journal(&path).unwrap();
            let results = engine.run_batch_detailed(&jobs);
            assert!(results.iter().all(Result::is_err));
        }
        // The watchdog is not part of the config fingerprint, so the
        // journal opens fine with a longer one and the jobs recover.
        let engine = ExecEngine::new(2).with_watchdog(Some(60_000));
        engine.resume(&path).unwrap();
        let results = engine.run_batch_detailed(&jobs);
        assert!(results.iter().all(Result::is_ok));
        assert!(engine.manifest().is_complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_fingerprint_separates_campaigns() {
        let path = tmp("fingerprint");
        ExecEngine::new(1).journal(&path).unwrap();
        let different = ExecEngine::new(1).with_retry(RetryPolicy { max_attempts: 9 });
        let err = different.resume(&path).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }), "{err}");
        // A different watchdog alone is NOT a different campaign.
        let longer = ExecEngine::new(1).with_watchdog(Some(123));
        assert!(longer.resume(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_with_duplicates_executes_each_key_once() {
        let campaign = ExecEngine::new(2).with_fault_plan(Some(FaultPlan {
            rate_permille: 0,
            seed: 1,
        }));
        let job = SimJob::Isolation {
            spec: control_loop(DeploymentScenario::Scenario1, CoreId(1), 42),
            core: CoreId(1),
        };
        let five = vec![job; 5];
        let results = campaign.run_batch_detailed(&five);
        let values = ccnts(&results);
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            campaign.report().simulations_run,
            1,
            "four of five were aliases"
        );
    }
}
