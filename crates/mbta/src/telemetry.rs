//! The harness-side telemetry recorder: wiring between the hot paths
//! (engine, campaign, solver, simulator statistics) and the pure
//! [`obs`] primitives.
//!
//! A [`Telemetry`] value is shared by everything that observes one run:
//! the [`crate::ExecEngine`] records per-job spans and simulator
//! statistics as batches merge, the solver layer records branch & bound
//! node counts, and every formerly ad-hoc stderr diagnostic goes
//! through the deduplicated warning channel. At the end of the run
//! [`Telemetry::to_stream`] assembles the deterministic [`obs::Stream`]
//! and [`Telemetry::flush`] renders it to the `--telemetry` sink.
//!
//! # Determinism
//!
//! Every mutation is commutative or keyed:
//!
//! * job spans are keyed by [`crate::job_key`] and first-write-wins, so
//!   concurrent workers and repeated batches produce one span per job,
//!   emitted in key order;
//! * metric registries merge additively ([`obs::Registry`] is
//!   commutative), and the *set* of executed jobs is itself
//!   deterministic — the engine's plan phase is sequential;
//! * solver records are appended from the single-threaded evaluation
//!   loop, in call order.
//!
//! Wall-clock time, worker counts and the timing kernel go only into
//! the `det:false` profile record, so the deterministic subset of the
//! rendered stream is byte-identical at any `--jobs` and on either
//! engine.

use crate::exec::{EngineReport, SimJob};
use obs::{span_id, MatrixRec, SpanRec, Stream, Warning};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use tc27x_sim::attribution::{AGGRESSOR_COLS, SCHED_COL};
use tc27x_sim::{AttributionMatrix, CoreId, Operation, SimStats, Target};

pub use obs::{Format, SinkSpec, Val};

/// Telemetry schema version, bumped whenever record shapes change.
/// v2: `matrix`/`table` record kinds (contention attribution ledger).
pub const SCHEMA_VERSION: u64 = 2;

/// The Chrome-trace track (`tid`) solver spans render on, clear of the
/// per-core simulation tracks (cores are 0–2 on the TC27x).
const SOLVER_TRACK: u32 = 7;

/// One recorded simulation job, keyed by [`crate::job_key`].
#[derive(Clone, Debug)]
struct JobRec {
    name: String,
    kind: &'static str,
    track: u32,
    cycles: u64,
}

/// One recorded ILP solve, in evaluation order.
#[derive(Clone, Debug)]
struct SolveRec {
    label: String,
    nodes: u64,
    fallback: bool,
}

#[derive(Debug, Default)]
struct Inner {
    meta: Vec<(String, Val)>,
    jobs: BTreeMap<u64, JobRec>,
    /// Per-job attribution ledgers, keyed like `jobs` and first-write-
    /// wins: folding the values in ascending key order is deterministic
    /// at any worker count even without relying on merge commutativity.
    attribution: BTreeMap<u64, AttributionMatrix>,
    solves: Vec<SolveRec>,
    det: obs::Registry,
    nondet: obs::Registry,
    warnings: BTreeMap<String, Warning>,
    profile: Vec<(String, Val)>,
}

/// The shared telemetry recorder of one run. See the [module
/// docs](self) for the determinism contract.
#[derive(Debug)]
pub struct Telemetry {
    command: String,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a folded attribution ledger as deterministic `matrix`
/// records, in name order: per-victim grant counts and other-core
/// interference by access class, per-(slave, victim) worst single-grant
/// waits, and the full `victim × aggressor` wait matrix whose cells sum
/// to the slaves' `queue_delay` (the conservation invariant the CI
/// attribution stage replays).
pub fn attribution_matrices(m: &AttributionMatrix) -> Vec<MatrixRec> {
    let core = |i: usize| format!("c{i}");
    let class_cols: Vec<String> = Operation::all().iter().map(ToString::to_string).collect();
    let core_rows: Vec<String> = (0..CoreId::COUNT).map(core).collect();
    let pair_rows: Vec<String> = Target::all()
        .iter()
        .flat_map(|t| (0..CoreId::COUNT).map(move |v| format!("{}/{}", t.name(), core(v))))
        .collect();
    let per_class = |f: &dyn Fn(CoreId, Operation) -> u64| -> Vec<u64> {
        CoreId::all()
            .iter()
            .flat_map(|&v| Operation::all().map(|c| f(v, c)))
            .collect()
    };
    vec![
        MatrixRec {
            name: "attribution.grants".to_string(),
            rows: core_rows.clone(),
            cols: class_cols.clone(),
            cells: per_class(&|v, c| m.class_grants_total(v, c)),
        },
        MatrixRec {
            name: "attribution.interference".to_string(),
            rows: core_rows.clone(),
            cols: class_cols,
            cells: per_class(&|v, c| m.interference_total(v, c)),
        },
        MatrixRec {
            name: "attribution.max_wait".to_string(),
            rows: Target::all().iter().map(|t| t.name().to_string()).collect(),
            cols: core_rows,
            cells: Target::all()
                .iter()
                .flat_map(|&t| CoreId::all().map(move |v| m.max_wait(t, v)))
                .collect(),
        },
        MatrixRec {
            name: "attribution.wait".to_string(),
            rows: pair_rows,
            cols: (0..AGGRESSOR_COLS)
                .map(|a| {
                    if a == SCHED_COL {
                        "sched".to_string()
                    } else {
                        core(a)
                    }
                })
                .collect(),
            cells: Target::all()
                .iter()
                .flat_map(|&t| CoreId::all().map(move |v| m.row(t, v)))
                .flatten()
                .collect(),
        },
    ]
}

/// Renders a folded attribution ledger as a standalone JSONL stream of
/// `matrix` records — the `--attribution FILE` sink. Deterministic:
/// byte-identical for any worker count and timing kernel.
pub fn render_attribution_jsonl(m: &AttributionMatrix) -> String {
    let mut stream = Stream::new();
    stream.matrices = attribution_matrices(m);
    stream.render_jsonl()
}

impl Telemetry {
    /// A recorder for the named command (e.g. `sweep sc2`). The command
    /// becomes the root span and the `meta` record's identity.
    pub fn new(command: impl Into<String>) -> Self {
        Telemetry {
            command: command.into(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Appends a run-invariant `meta` field. Must never carry the
    /// worker count, the timing kernel or wall-clock time — those go to
    /// [`profile`](Self::profile).
    pub fn meta(&self, key: impl Into<String>, value: Val) {
        lock(&self.inner).meta.push((key.into(), value));
    }

    /// Appends a field to the non-deterministic `profile` record (the
    /// only legitimate home for wall-clock time, `--jobs` and the
    /// engine choice).
    pub fn profile(&self, key: impl Into<String>, value: Val) {
        lock(&self.inner).profile.push((key.into(), value));
    }

    /// Records one executed simulation job: a first-write-wins span
    /// keyed by `key` plus additive metric merges. `cycles` is the
    /// job's logical duration (CCNT for isolations, observed app cycles
    /// for co-runs); `stats` carries the post-run simulator statistics
    /// when the execution path collected them.
    ///
    /// Per-slave SRI queueing metrics are deterministic (grants are
    /// bit-identical across engines and worker counts); event-kernel
    /// statistics are engine-dependent and land in the
    /// non-deterministic registry.
    pub fn record_job(&self, key: u64, job: &SimJob, cycles: u64, stats: Option<&SimStats>) {
        let (name, kind, track) = match job {
            SimJob::Isolation { spec, core } => (
                format!("iso:{}@{}", spec.name, core.0),
                "iso",
                u32::from(core.0),
            ),
            SimJob::Corun {
                app,
                app_core,
                load,
                ..
            } => (
                format!("corun:{}+{}", app.name, load.name),
                "corun",
                u32::from(app_core.0),
            ),
            SimJob::Poison => ("poison".to_string(), "poison", 0),
        };
        let mut inner = lock(&self.inner);
        inner.det.add("exec.jobs_recorded", 1);
        inner.jobs.entry(key).or_insert(JobRec {
            name,
            kind,
            track,
            cycles,
        });
        if let Some(s) = stats {
            if !s.attribution.is_zero() {
                inner.attribution.entry(key).or_insert(s.attribution);
            }
            for target in Target::all() {
                let slave = s.slave(target);
                let label = target.name();
                inner.det.add(&format!("sri.{label}.served"), slave.served);
                inner
                    .det
                    .observe_hist(&format!("sri.{label}.queue_delay"), &slave.delay_hist);
            }
            inner.nondet.add("kernel.ff_jumps", s.kernel.ff_jumps);
            inner
                .nondet
                .observe_hist("kernel.ff_gap", &s.kernel.gap_hist);
            inner
                .nondet
                .observe_hist("kernel.claims_depth", &s.kernel.depth_hist);
            // Block-memo statistics are, like ff_jumps, a property of
            // how the event kernel got to the (bit-identical) result —
            // zero under the tick stepper or with the memo disabled —
            // so they live in the non-deterministic registry too.
            inner.nondet.add("kernel.memo_hits", s.kernel.memo_hits);
            inner
                .nondet
                .add("kernel.memo_records", s.kernel.memo_records);
            inner
                .nondet
                .add("kernel.memo_invalidations", s.kernel.memo_invalidations);
            inner
                .nondet
                .add("kernel.memo_evictions", s.kernel.memo_evictions);
            inner
                .nondet
                .add("kernel.memo_warp_cycles", s.kernel.memo_warp_cycles);
            inner.nondet.add("kernel.loop_warps", s.kernel.loop_warps);
            inner
                .nondet
                .add("kernel.loop_warp_cycles", s.kernel.loop_warp_cycles);
        }
    }

    /// Records one failed job execution (deterministic on the engine
    /// path: simulation errors and panics are pure functions of the
    /// job).
    pub fn record_job_failure(&self) {
        lock(&self.inner).det.add("exec.failed_jobs", 1);
    }

    /// Records one ILP solve: `nodes` branch & bound nodes explored,
    /// `fallback` when the bound degraded to fTC. Called from the
    /// single-threaded evaluation loop, so call order is deterministic.
    pub fn record_solve(&self, label: impl Into<String>, nodes: u64, fallback: bool) {
        let mut inner = lock(&self.inner);
        inner.det.add("ilp.solves", 1);
        if fallback {
            inner.det.add("ilp.fallback_ftc", 1);
        }
        inner.det.observe("ilp.nodes", nodes);
        inner.solves.push(SolveRec {
            label: label.into(),
            nodes,
            fallback,
        });
    }

    /// Folds a campaign engine's counters in: memo hits (`replayed`),
    /// executed attempts and retry counts are deterministic for a given
    /// journal state; watchdog expiries and journal I/O errors are
    /// host-dependent and recorded as non-deterministic.
    pub fn record_campaign(&self, stats: &EngineReport) {
        let mut inner = lock(&self.inner);
        inner.det.add("campaign.replayed", stats.cache_hits);
        inner.det.add("campaign.executed", stats.simulations_run);
        inner.det.add("campaign.retried", stats.retried);
        inner
            .det
            .add("campaign.injected_faults", stats.injected_faults);
        inner.nondet.add("campaign.timed_out", stats.timed_out);
        inner
            .nondet
            .add("campaign.journal_errors", stats.journal_errors);
    }

    /// Folds the engine report in: cache and simulation counts are
    /// deterministic; the spec-hash count depends on how concurrent
    /// lookups interleave, the solo-tail counts on whether the engine
    /// observes per-job statistics, and worker count and wall-clock go
    /// to the profile record.
    pub fn record_engine(&self, report: &EngineReport) {
        let mut inner = lock(&self.inner);
        inner.det.add("exec.cache_hits", report.cache_hits);
        inner.det.add("exec.cache_misses", report.cache_misses);
        inner
            .det
            .add("exec.simulations_run", report.simulations_run);
        inner.nondet.add("exec.spec_hashes", report.spec_hashes);
        inner
            .nondet
            .add("exec.tail_recordings", report.tail_recordings);
        inner.nondet.add("exec.tail_splices", report.tail_splices);
        inner
            .profile
            .push(("jobs".to_string(), Val::U64(report.jobs as u64)));
        inner
            .profile
            .push(("wall_seconds".to_string(), Val::F64(report.wall_seconds)));
    }

    /// Records a warning, deduplicated by `code`, and prints
    /// `warning: {message}` to stderr on the **first** occurrence only.
    /// This is the consolidated channel for every formerly ad-hoc
    /// stderr diagnostic.
    pub fn warn(&self, code: &str, message: impl Into<String>) {
        let message = message.into();
        if self.warn_quiet(code, message.clone()) {
            eprintln!("warning: {message}");
        }
    }

    /// Records a warning without printing (for diagnostics whose stderr
    /// rendering the caller owns, e.g. the fallback-rate report line).
    /// Returns `true` when this was the code's first occurrence.
    pub fn warn_quiet(&self, code: &str, message: impl Into<String>) -> bool {
        let mut inner = lock(&self.inner);
        match inner.warnings.get_mut(code) {
            Some(w) => {
                w.count += 1;
                false
            }
            None => {
                inner.warnings.insert(
                    code.to_string(),
                    Warning {
                        code: code.to_string(),
                        message: message.into(),
                        count: 1,
                    },
                );
                true
            }
        }
    }

    /// The run's folded attribution ledger: per-job matrices merged in
    /// ascending job-key order. All-zero when no recorded job carried
    /// one (attribution off, or no contention observed).
    pub fn attribution(&self) -> AttributionMatrix {
        let inner = lock(&self.inner);
        let mut total = AttributionMatrix::default();
        for m in inner.attribution.values() {
            total.merge(m);
        }
        total
    }

    /// The value of a deterministic counter (0 when never recorded).
    pub fn det_counter(&self, name: &str) -> u64 {
        lock(&self.inner).det.counter(name).unwrap_or(0)
    }

    /// Adds `delta` to a **non-deterministic** counter — the channel
    /// for load- and timing-dependent operational metrics (queue
    /// sheds, replays served, client disconnects) that must never leak
    /// into the deterministic subset.
    pub fn count(&self, name: &str, delta: u64) {
        lock(&self.inner).nondet.add(name, delta);
    }

    /// The value of a non-deterministic counter (0 when never
    /// recorded).
    pub fn nondet_counter(&self, name: &str) -> u64 {
        lock(&self.inner).nondet.counter(name).unwrap_or(0)
    }

    /// Number of deduplicated warning codes recorded so far.
    pub fn warning_count(&self) -> usize {
        lock(&self.inner).warnings.len()
    }

    /// Snapshot of every recorded warning (code order), counts
    /// included — the one-shot CLI uses this to print a repeat-count
    /// summary at exit.
    pub fn warnings(&self) -> Vec<Warning> {
        lock(&self.inner).warnings.values().cloned().collect()
    }

    /// Assembles the deterministic [`Stream`]: the `meta` record, a
    /// root span covering the run, one span per recorded job (key
    /// order, per-track cumulative logical starts), one span per solve
    /// on the solver track, and the metric registries.
    pub fn to_stream(&self) -> Stream {
        let inner = lock(&self.inner);
        let mut stream = Stream::new();
        stream.meta = vec![
            ("command".to_string(), Val::str(self.command.clone())),
            ("schema".to_string(), Val::U64(SCHEMA_VERSION)),
            (
                "harness_version".to_string(),
                Val::str(env!("CARGO_PKG_VERSION")),
            ),
        ];
        stream.meta.extend(inner.meta.iter().cloned());

        let root = span_id(0, &self.command, 0);
        let total_cycles: u64 = inner
            .jobs
            .values()
            .fold(0, |acc, j| acc.saturating_add(j.cycles));
        stream.spans.push(
            SpanRec::new(root, 0, self.command.clone(), 0, 0, total_cycles)
                .with_arg("kind", Val::str("run")),
        );
        // Jobs in key order; each track's spans are laid out end to end
        // so Chrome-trace timestamps stay monotonic per track.
        let mut cursor: BTreeMap<u32, u64> = BTreeMap::new();
        for (key, job) in &inner.jobs {
            let start = cursor.entry(job.track).or_insert(0);
            stream.spans.push(
                SpanRec::new(
                    span_id(root, &job.name, *key),
                    root,
                    job.name.clone(),
                    job.track,
                    *start,
                    job.cycles,
                )
                .with_arg("kind", Val::str(job.kind))
                .with_arg("key", Val::str(format!("{key:016x}"))),
            );
            *start = start.saturating_add(job.cycles.max(1));
        }
        let mut solve_cursor = 0u64;
        for (i, s) in inner.solves.iter().enumerate() {
            stream.spans.push(
                SpanRec::new(
                    span_id(root, &s.label, i as u64),
                    root,
                    s.label.clone(),
                    SOLVER_TRACK,
                    solve_cursor,
                    s.nodes,
                )
                .with_arg("kind", Val::str("solve"))
                .with_arg("fallback", Val::Bool(s.fallback)),
            );
            solve_cursor = solve_cursor.saturating_add(s.nodes.max(1));
        }

        let mut attr = AttributionMatrix::default();
        for m in inner.attribution.values() {
            attr.merge(m);
        }
        if !attr.is_zero() {
            stream.matrices = attribution_matrices(&attr);
        }

        stream.det = inner.det.clone();
        stream.nondet = inner.nondet.clone();
        stream.warnings = inner.warnings.values().cloned().collect();
        stream.profile = inner.profile.clone();
        stream
    }

    /// Renders the stream in the given format.
    pub fn render(&self, format: Format) -> String {
        let stream = self.to_stream();
        match format {
            Format::Jsonl => stream.render_jsonl(),
            Format::Chrome => stream.render_chrome(),
            Format::Summary => stream.render_summary(),
        }
    }

    /// Renders to the sink: a file at `spec.path`, or stderr when the
    /// path is `-`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the sink.
    pub fn flush(&self, spec: &SinkSpec) -> std::io::Result<()> {
        let rendered = self.render(spec.format);
        if spec.path == "-" {
            let mut err = std::io::stderr().lock();
            err.write_all(rendered.as_bytes())?;
            err.flush()
        } else {
            std::fs::write(&spec.path, rendered)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::CoreId;
    use workloads::control_loop;

    fn iso_job(seed: u64) -> SimJob {
        let mut spec = control_loop(tc27x_sim::DeploymentScenario::Scenario1, CoreId(1), 42);
        spec.seed = seed;
        SimJob::Isolation {
            spec,
            core: CoreId(1),
        }
    }

    #[test]
    fn job_spans_are_first_write_wins_and_key_ordered() {
        let t = Telemetry::new("test");
        t.record_job(9, &iso_job(2), 200, None);
        t.record_job(3, &iso_job(1), 100, None);
        t.record_job(9, &iso_job(2), 999, None); // duplicate key: ignored
        let stream = t.to_stream();
        // Root + two job spans.
        assert_eq!(stream.spans.len(), 3);
        assert_eq!(stream.spans[1].dur, 100, "key 3 first");
        assert_eq!(stream.spans[2].dur, 200, "duplicate kept the original");
        assert_eq!(stream.spans[0].dur, 300, "root covers the total");
        assert_eq!(t.det_counter("exec.jobs_recorded"), 3);
    }

    #[test]
    fn record_order_does_not_change_the_stream() {
        let record = |order: &[u64]| {
            let t = Telemetry::new("test");
            for &k in order {
                t.record_job(k, &iso_job(k), 10 * k, None);
                t.record_solve("solve:x", 50, false);
            }
            t.to_stream()
        };
        let a = record(&[1, 2, 3]);
        let b = record(&[3, 1, 2]);
        assert_eq!(a.render_jsonl(), b.render_jsonl());
    }

    #[test]
    fn sri_stats_are_det_and_kernel_stats_nondet() {
        let mut stats = SimStats::default();
        stats.slaves[Target::Lmu.index()].served = 4;
        stats.slaves[Target::Lmu.index()].delay_hist.observe(11);
        stats.kernel.ff_jumps = 2;
        stats.kernel.gap_hist.observe(40);
        stats.kernel.memo_hits = 7;
        stats.kernel.memo_records = 3;
        stats.kernel.memo_warp_cycles = 90;
        stats.kernel.loop_warp_cycles = 70;
        let t = Telemetry::new("test");
        t.record_job(1, &iso_job(1), 100, Some(&stats));
        let stream = t.to_stream();
        assert_eq!(stream.det.counter("sri.lmu.served"), Some(4));
        assert_eq!(
            stream.det.hist("sri.lmu.queue_delay").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(stream.nondet.counter("kernel.ff_jumps"), Some(2));
        assert!(stream.det.counter("kernel.ff_jumps").is_none());
        assert_eq!(stream.nondet.counter("kernel.memo_hits"), Some(7));
        assert_eq!(stream.nondet.counter("kernel.memo_records"), Some(3));
        assert_eq!(stream.nondet.counter("kernel.memo_warp_cycles"), Some(90));
        assert_eq!(stream.nondet.counter("kernel.loop_warp_cycles"), Some(70));
        assert!(
            stream.det.counter("kernel.memo_hits").is_none(),
            "memo stats are kernel-dependent, never part of the det subset"
        );
    }

    #[test]
    fn attribution_folds_in_key_order_and_renders_matrices() {
        let mut a = SimStats::default();
        a.attribution.charge(3, 0, 1, Operation::Data, 11);
        a.attribution.note_grant(3, 0, Operation::Data, 11);
        let mut b = SimStats::default();
        b.attribution.charge(0, 0, 2, Operation::Code, 16);
        b.attribution.note_grant(0, 0, Operation::Code, 16);
        let record = |order: &[(u64, &SimStats)]| {
            let t = Telemetry::new("test");
            for &(k, s) in order {
                t.record_job(k, &iso_job(k), 100, Some(s));
            }
            t
        };
        let fwd = record(&[(1, &a), (2, &b)]);
        let rev = record(&[(2, &b), (1, &a)]);
        assert_eq!(fwd.attribution(), rev.attribution());
        assert_eq!(
            fwd.to_stream().render_jsonl(),
            rev.to_stream().render_jsonl()
        );
        let stream = fwd.to_stream();
        let names: Vec<&str> = stream.matrices.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "attribution.grants",
                "attribution.interference",
                "attribution.max_wait",
                "attribution.wait"
            ]
        );
        let wait = stream.matrices.last().unwrap();
        assert_eq!(wait.rows.len() * wait.cols.len(), wait.cells.len());
        assert_eq!(wait.cells.iter().sum::<u64>(), 27, "conservation: 11 + 16");
        // No attribution recorded: no matrix records at all.
        let off = Telemetry::new("test");
        off.record_job(1, &iso_job(1), 100, Some(&SimStats::default()));
        assert!(off.to_stream().matrices.is_empty());
        assert!(off.attribution().is_zero());
    }

    #[test]
    fn warnings_dedup_by_code() {
        let t = Telemetry::new("test");
        assert!(t.warn_quiet("x.y", "first message"));
        assert!(!t.warn_quiet("x.y", "second message"));
        t.warn_quiet("a.b", "other");
        assert_eq!(t.warning_count(), 2);
        let stream = t.to_stream();
        assert_eq!(stream.warnings.len(), 2);
        assert_eq!(stream.warnings[0].code, "a.b", "code order");
        assert_eq!(stream.warnings[1].count, 2);
        assert_eq!(stream.warnings[1].message, "first message");
    }

    #[test]
    fn solves_and_fallbacks_are_counted() {
        let t = Telemetry::new("test");
        t.record_solve("solve:ilp:a-vs-b", 1000, false);
        t.record_solve("solve:ilp:a-vs-c", 500_000, true);
        assert_eq!(t.det_counter("ilp.solves"), 2);
        assert_eq!(t.det_counter("ilp.fallback_ftc"), 1);
        let stream = t.to_stream();
        let solver_spans: Vec<_> = stream
            .spans
            .iter()
            .filter(|s| s.track == SOLVER_TRACK)
            .collect();
        assert_eq!(solver_spans.len(), 2);
        assert_eq!(solver_spans[1].start, 1000, "cumulative node timeline");
    }

    #[test]
    fn profile_fields_never_reach_det_records() {
        let t = Telemetry::new("test");
        t.record_engine(&EngineReport {
            jobs: 4,
            simulations_run: 2,
            cache_hits: 1,
            cache_misses: 2,
            wall_seconds: 0.5,
            spec_hashes: 3,
            tail_recordings: 1,
            tail_splices: 2,
            ..EngineReport::default()
        });
        let jsonl = t.render(Format::Jsonl);
        for line in jsonl.lines().filter(|l| l.contains("\"det\":true")) {
            assert!(
                !line.contains("wall"),
                "det record leaks wall clock: {line}"
            );
            assert!(!line.contains("\"jobs\""), "det record leaks jobs: {line}");
            assert!(
                !line.contains("spec_hashes"),
                "det record leaks the hash count: {line}"
            );
            assert!(
                !line.contains("tail_"),
                "det record leaks a tail count: {line}"
            );
        }
        assert!(jsonl.contains("\"wall_seconds\":0.5"));
        assert_eq!(t.nondet_counter("exec.spec_hashes"), 3);
        assert_eq!(t.nondet_counter("exec.tail_recordings"), 1);
        assert_eq!(t.nondet_counter("exec.tail_splices"), 2);
    }

    #[test]
    fn chrome_render_parses_and_flush_writes_files() {
        let t = Telemetry::new("flush-test");
        t.record_job(1, &iso_job(1), 100, None);
        let doc = t.render(Format::Chrome);
        assert!(obs::json::parse(&doc).is_ok());
        let mut path = std::env::temp_dir();
        path.push(format!("mbta-telemetry-{}.jsonl", std::process::id()));
        let spec = SinkSpec {
            path: path.display().to_string(),
            format: Format::Jsonl,
        };
        t.flush(&spec).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, t.render(Format::Jsonl));
        std::fs::remove_file(&path).ok();
    }
}
