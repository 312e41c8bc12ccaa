//! The flag layer every binary shares.
//!
//! Each binary hands its argument vector (program name stripped) to
//! this module once: [`CommonArgs::take`] removes the shared flags,
//! the binary removes its own with [`take_flag`], [`take_value`] and
//! [`take_parsed`], and [`reject_rest`] turns whatever is left — a
//! typo such as `--platfrom`, a stray positional — into an error
//! instead of a silently ignored word. Every error is a readable
//! `String`.
//!
//! The shared flags are listed, with their help, in [`FLAGS_HELP`].
//!
//! From the parsed flags, [`CommonArgs::engine_with`] builds the
//! experiment engine and [`CommonArgs::campaign`] attaches its
//! crash-safe campaign journal.

use crate::{ExecEngine, SinkSpec, Telemetry};
use platform::PlatformDesc;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use tc27x_sim::Engine;

/// Help for the shared flags, printed under each binary's own usage.
pub const FLAGS_HELP: &str = "\
SHARED OPTIONS:
    --jobs N                        worker threads for the experiment engine
                                    (at least 1; results are identical for
                                    any N)
    --engine tick|event             simulator timing kernel (default: event).
                                    `event` skips provably quiescent cycles;
                                    `tick` is the reference per-cycle stepper.
                                    The two are bit-identical
    --no-block-memo                 disable the event kernel's basic-block
                                    memo (bit-identical, for debugging)
    --ilp-budget N                  branch-and-bound node budget for the ILP
                                    solver (at least 1); on exhaustion the
                                    evaluator degrades to the sound fTC bound
    --platform NAME                 simulated machine (default: tc27x, the
                                    paper's TC277). Unlike every other flag
                                    this one changes results: core placement,
                                    slave topology and arbitration follow the
                                    named description and the models derive
                                    their tables from it. Built-ins: tc27x,
                                    tc27x-tdma, ahb2
    --journal FILE                  record every completed simulation to a
                                    crash-safe write-ahead journal
    --resume FILE                   replay a journal, re-executing only the
                                    missing jobs; output is byte-identical to
                                    an uninterrupted run
    --watchdog-ms N                 wall-clock watchdog per simulation job;
                                    livelocked jobs are journalled as timed
                                    out instead of hanging the campaign
    --telemetry FILE[:FORMAT]       record structured spans, metrics and
                                    deduplicated warnings, flushed on exit as
                                    jsonl (default), chrome (trace_event JSON
                                    for chrome://tracing) or summary; FILE `-`
                                    writes to stderr. The deterministic subset
                                    is byte-identical for any --jobs/--engine
    --attribution FILE              record per-grant contention attribution on
                                    every simulation and flush the folded
                                    (slave, victim, aggressor) wait matrices to
                                    FILE as JSONL matrix records on exit.
                                    Observation-only
";

/// Removes a boolean flag from `args`, reporting whether it was present.
pub fn take_flag(args: &mut Vec<String>, key: &str) -> bool {
    match args.iter().position(|a| a == key) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Removes a `key value` pair from `args`, returning the value.
///
/// # Errors
///
/// `key` is present without a value after it.
pub fn take_value(args: &mut Vec<String>, key: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{key} requires a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// [`take_value`], parsed with [`FromStr`].
///
/// # Errors
///
/// A missing value, or one that does not parse; the message names the
/// flag, the value and the parser's complaint.
pub fn take_parsed<T>(args: &mut Vec<String>, key: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    take_value(args, key)?
        .map(|v| v.parse().map_err(|e| format!("invalid {key} `{v}`: {e}")))
        .transpose()
}

/// [`take_parsed`] for a count that must be at least 1 (`--jobs`,
/// `--ilp-budget`).
///
/// # Errors
///
/// A missing, non-numeric or zero value.
pub fn take_positive<T>(args: &mut Vec<String>, key: &str) -> Result<Option<T>, String>
where
    T: FromStr + Default + PartialEq,
    T::Err: Display,
{
    match take_parsed::<T>(args, key)? {
        Some(n) if n == T::default() => Err(format!("{key} must be at least 1")),
        n => Ok(n),
    }
}

/// Removes `--jobs N` from `args`: a worker count of at least 1,
/// `default` when absent.
///
/// # Errors
///
/// A missing, non-numeric or zero value.
pub fn take_jobs(args: &mut Vec<String>, default: usize) -> Result<usize, String> {
    Ok(take_positive(args, "--jobs")?.unwrap_or(default))
}

/// Fails on the first argument no parser took.
///
/// # Errors
///
/// `unknown argument `…``, naming it.
pub fn reject_rest(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(stray) => Err(format!("unknown argument `{stray}`")),
        None => Ok(()),
    }
}

/// The machine's available parallelism (at least 1): the `--jobs`
/// default of the CLI and the artefact binaries.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The shared flags, parsed once (help: [`FLAGS_HELP`]).
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Worker threads (`--jobs N`).
    pub jobs: usize,
    /// Simulator timing kernel (`--engine tick|event`, default event).
    /// The kernels are bit-identical, so every table and figure is
    /// unaffected — the flag only trades wall-clock speed.
    pub sim_engine: Engine,
    /// Basic-block memoization in the event kernel (`--no-block-memo`
    /// disables it). Memoized and unmemoized runs are bit-identical.
    pub block_memo: bool,
    /// ILP node budget for the fault-tolerant evaluator
    /// (`--ilp-budget N`); the model default when `None`.
    pub ilp_budget: Option<u64>,
    /// Write a fresh campaign journal to this path (`--journal FILE`).
    pub journal: Option<PathBuf>,
    /// Resume a campaign from this journal (`--resume FILE`).
    pub resume: Option<PathBuf>,
    /// Per-job wall-clock watchdog (`--watchdog-ms N`).
    pub watchdog_millis: Option<u64>,
    /// Telemetry sink (`--telemetry FILE[:FORMAT]`; `-` is stderr).
    pub telemetry: Option<SinkSpec>,
    /// Attribution sink (`--attribution FILE`): record per-grant
    /// contention attribution on every simulation and flush the folded
    /// matrices as JSONL on exit. Observation-only.
    pub attribution: Option<PathBuf>,
    /// The simulated machine (`--platform NAME`, default `tc27x`).
    /// Unlike the other flags this *changes results*: core placement,
    /// slave topology and arbitration follow the description, and every
    /// journal key and memo fingerprint binds it.
    pub platform: PlatformDesc,
}

impl CommonArgs {
    /// Removes the shared flags from `args`, leaving the binary's own.
    /// `--jobs` defaults to `default_jobs`.
    ///
    /// # Errors
    ///
    /// A malformed value, or `--journal` together with `--resume`
    /// (resume already appends to the journal it reads).
    pub fn take(args: &mut Vec<String>, default_jobs: usize) -> Result<CommonArgs, String> {
        let common = CommonArgs {
            jobs: take_jobs(args, default_jobs)?,
            sim_engine: take_parsed(args, "--engine")?.unwrap_or_default(),
            block_memo: !take_flag(args, "--no-block-memo"),
            ilp_budget: take_positive(args, "--ilp-budget")?,
            journal: take_value(args, "--journal")?.map(PathBuf::from),
            resume: take_value(args, "--resume")?.map(PathBuf::from),
            watchdog_millis: take_parsed(args, "--watchdog-ms")?,
            telemetry: take_parsed(args, "--telemetry")?,
            attribution: take_value(args, "--attribution")?.map(PathBuf::from),
            platform: take_platform(args)?,
        };
        if common.journal.is_some() && common.resume.is_some() {
            return Err(
                "--journal and --resume are mutually exclusive (resume appends in place)".into(),
            );
        }
        Ok(common)
    }

    /// [`CommonArgs::take`] for a binary whose own flags are already
    /// taken: `--jobs` defaults to [`available_jobs`], and anything left
    /// over is an error.
    ///
    /// # Errors
    ///
    /// As [`CommonArgs::take`], plus [`reject_rest`].
    pub fn parse(mut args: Vec<String>) -> Result<CommonArgs, String> {
        let common = CommonArgs::take(&mut args, available_jobs())?;
        reject_rest(&args)?;
        Ok(common)
    }

    /// Creates the telemetry recorder for the named command when
    /// `--telemetry` was given, `None` otherwise. The recorder is an
    /// `Arc` because the engine shares it with the binary's own
    /// recording calls.
    pub fn recorder(&self, command: &str) -> Option<Arc<Telemetry>> {
        self.telemetry
            .as_ref()
            .map(|_| Arc::new(Telemetry::new(command)))
    }

    /// Builds the experiment engine these flags describe, with the
    /// telemetry recorder attached when one is given. The engine keeps
    /// the default retry policy, injects no faults and honours
    /// `--watchdog-ms`.
    pub fn engine_with(&self, telemetry: Option<&Arc<Telemetry>>) -> ExecEngine {
        let engine = ExecEngine::new(self.jobs)
            .with_sim_engine(self.sim_engine)
            .with_block_memo(self.block_memo)
            .with_attribution(self.attribution.is_some())
            .with_platform(self.platform.clone())
            .with_watchdog(self.watchdog_millis);
        match telemetry {
            Some(t) => engine.with_telemetry(Arc::clone(t)),
            None => engine,
        }
    }

    /// Attaches the campaign journal the flags ask for to `engine`:
    /// a fresh one for `--journal`, a recovered one for `--resume`
    /// (its records prime the engine's memo). Returns whether a journal
    /// was attached; a plain in-memory run attaches none. Resume
    /// recovery is narrated on stderr; a torn trailing record is always
    /// reported, through the recorder's deduplicated warning channel
    /// when there is one.
    ///
    /// # Errors
    ///
    /// Journal creation and recovery errors, as readable messages.
    pub fn campaign(
        &self,
        engine: &ExecEngine,
        telemetry: Option<&Telemetry>,
    ) -> Result<bool, String> {
        if let Some(path) = &self.journal {
            engine
                .journal(path)
                .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
            eprintln!("journal: recording to {}", path.display());
            return Ok(true);
        }
        let Some(path) = &self.resume else {
            return Ok(false);
        };
        let report = engine
            .resume(path)
            .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
        eprintln!(
            "resume: {} record(s) recovered from {}",
            report.records,
            path.display()
        );
        if report.truncated_bytes > 0 {
            let message = format!(
                "{} byte(s) of a torn trailing record truncated from {}",
                report.truncated_bytes,
                path.display()
            );
            match telemetry {
                Some(t) => t.warn("journal.torn", message),
                None => eprintln!("warning: {message}"),
            }
        }
        Ok(true)
    }

    /// Renders the recorder to the `--telemetry` sink. A no-op when the
    /// flag or the recorder is absent.
    ///
    /// # Errors
    ///
    /// A readable message when writing the sink fails.
    pub fn flush_telemetry(&self, telemetry: Option<&Telemetry>) -> Result<(), String> {
        if let (Some(spec), Some(t)) = (&self.telemetry, telemetry) {
            t.flush(spec)
                .map_err(|e| format!("cannot write telemetry to {}: {e}", spec.path))?;
        }
        Ok(())
    }

    /// Writes the folded attribution matrices to the `--attribution`
    /// sink. A no-op when the flag is absent; the matrices ride on
    /// recorded job statistics, so the engine must carry `telemetry`.
    ///
    /// # Errors
    ///
    /// A readable message when writing the sink fails.
    pub fn flush_attribution(&self, telemetry: Option<&Telemetry>) -> Result<(), String> {
        if let (Some(path), Some(t)) = (&self.attribution, telemetry) {
            let rendered = crate::telemetry::render_attribution_jsonl(&t.attribution());
            std::fs::write(path, rendered)
                .map_err(|e| format!("cannot write attribution to {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Removes `--platform NAME` from `args`; the default platform when
/// absent.
///
/// # Errors
///
/// A missing or unknown name ([`PlatformDesc::by_name`]).
pub fn take_platform(args: &mut Vec<String>) -> Result<PlatformDesc, String> {
    match take_value(args, "--platform")? {
        Some(name) => PlatformDesc::by_name(&name),
        None => Ok(platform::default_platform().clone()),
    }
}

/// Prints a journaled engine's campaign stats and, when jobs stayed
/// unrecovered, its partial-result manifest to stderr, folding the
/// stats into the recorder when one is given. Returns `false` when the
/// campaign finished degraded: the caller should exit non-zero without
/// discarding the completed results. A plain run with every job
/// completed prints nothing.
pub fn report_campaign(engine: &ExecEngine, telemetry: Option<&Telemetry>) -> bool {
    let manifest = engine.manifest();
    if engine.has_store() {
        let stats = engine.report();
        if let Some(t) = telemetry {
            t.record_campaign(&stats);
        }
        eprintln!(
            "campaign: {} replayed, {} executed, {} retried, {} fault(s) injected, {} timeout(s)",
            stats.cache_hits,
            stats.simulations_run,
            stats.retried,
            stats.injected_faults,
            stats.timed_out
        );
    }
    if !manifest.is_complete() {
        eprint!("{}", manifest.render());
    }
    manifest.is_complete()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::DeploymentScenario;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn common(s: &str) -> Result<CommonArgs, String> {
        CommonArgs::parse(argv(s))
    }

    /// Every malformed input any binary can receive through the shared
    /// layer, with a fragment its error must contain.
    #[test]
    fn malformed_input_is_rejected() {
        let cases: &[(&str, &str)] = &[
            ("--jobs", "--jobs requires a value"),
            ("--jobs 0", "--jobs must be at least 1"),
            ("--jobs many", "invalid --jobs `many`"),
            ("--ilp-budget", "--ilp-budget requires a value"),
            ("--ilp-budget 0", "--ilp-budget must be at least 1"),
            ("--ilp-budget lots", "invalid --ilp-budget `lots`"),
            ("--engine", "--engine requires a value"),
            ("--engine warp", "warp"),
            ("--platform", "--platform requires a value"),
            ("--platform vax", "known platforms: tc27x, tc27x-tdma, ahb2"),
            ("--journal a --resume b", "mutually exclusive"),
            ("--journal", "--journal requires a value"),
            ("--resume", "--resume requires a value"),
            ("--watchdog-ms", "--watchdog-ms requires a value"),
            ("--watchdog-ms soon", "invalid --watchdog-ms `soon`"),
            ("--telemetry", "--telemetry requires a value"),
            ("--telemetry :chrome", "invalid --telemetry"),
            ("--attribution", "--attribution requires a value"),
            ("--platfrom ahb2", "unknown argument `--platfrom`"),
            ("--bogus", "unknown argument `--bogus`"),
            ("--jobs 2 --jobs 3", "unknown argument `--jobs`"),
            ("stray", "unknown argument `stray`"),
        ];
        for (input, fragment) in cases {
            let err = common(input).expect_err(input);
            assert!(err.contains(fragment), "`{input}`: {err}");
        }
    }

    /// The binaries' own values go through the same helpers: a sweep's
    /// unknown scenario and a daemon's zero worker count are errors,
    /// never a silent default.
    #[test]
    fn binary_specific_values_are_rejected() {
        let mut args = argv("--scenario sc3");
        let err = take_parsed::<DeploymentScenario>(&mut args, "--scenario").unwrap_err();
        assert!(err.contains("unknown scenario `sc3`"), "{err}");
        // `contention-serve` and `dse-supervisor` default to two
        // workers but refuse zero.
        let err = take_jobs(&mut argv("--jobs 0"), 2).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
        assert_eq!(take_jobs(&mut Vec::new(), 2), Ok(2));
    }

    #[test]
    fn flags_parse_anywhere_and_leave_the_rest() {
        let mut args = argv(
            "bound --jobs 3 --scenario sc1 --ilp-budget 9 --engine tick --no-block-memo \
             --journal j.log --watchdog-ms 250 --telemetry out.json:chrome \
             --attribution attr.jsonl --platform tc27x-tdma --level high",
        );
        let c = CommonArgs::take(&mut args, 1).unwrap();
        assert_eq!(args, argv("bound --scenario sc1 --level high"));
        assert_eq!(c.jobs, 3);
        assert_eq!(c.ilp_budget, Some(9));
        assert_eq!(c.sim_engine, Engine::Tick);
        assert!(!c.block_memo);
        assert_eq!(c.journal, Some(PathBuf::from("j.log")));
        assert_eq!(c.resume, None);
        assert_eq!(c.watchdog_millis, Some(250));
        let spec = c.telemetry.clone().unwrap();
        assert_eq!(
            (spec.path.as_str(), spec.format),
            ("out.json", crate::Format::Chrome)
        );
        assert_eq!(c.attribution, Some(PathBuf::from("attr.jsonl")));
        assert_eq!(c.platform.name, "tc27x-tdma");

        let engine = c.engine_with(c.recorder("test").as_ref());
        assert_eq!(engine.jobs(), 3);
        assert_eq!(engine.sim_engine(), Engine::Tick);
        assert!(!engine.block_memo());
        assert!(engine.attribution());
        assert!(engine.telemetry().is_some());
        assert_eq!(engine.platform().name, "tc27x-tdma");
    }

    #[test]
    fn help_covers_every_shared_flag() {
        for flag in [
            "--jobs",
            "--engine",
            "--no-block-memo",
            "--ilp-budget",
            "--platform",
            "--journal",
            "--resume",
            "--watchdog-ms",
            "--telemetry",
            "--attribution",
        ] {
            assert!(FLAGS_HELP.contains(flag), "{flag}");
        }
        for name in PlatformDesc::names() {
            assert!(FLAGS_HELP.contains(name), "{name}");
        }
    }

    #[test]
    fn defaults() {
        let c = common("").unwrap();
        assert!(c.jobs >= 1);
        assert_eq!(c.sim_engine, Engine::Event);
        assert!(c.block_memo);
        assert_eq!(c.ilp_budget, None);
        assert!(c.platform.is_default());
        assert!(c.recorder("x").is_none());
        assert!(c.flush_telemetry(None).is_ok(), "no sink is a no-op");
        assert!(c.flush_attribution(None).is_ok());
        let engine = c.engine_with(None);
        assert!(engine.block_memo() && !engine.attribution());
        assert!(!c.campaign(&engine, None).unwrap());
        assert!(report_campaign(&engine, None));
    }

    #[test]
    fn campaign_journals_then_resumes() {
        let path = std::env::temp_dir().join(format!("mbta-args-{}", std::process::id()));
        let journaled = common(&format!("--jobs 1 --journal {}", path.display())).unwrap();
        let engine = journaled.engine_with(None);
        assert!(journaled.campaign(&engine, None).unwrap());
        assert!(report_campaign(&engine, None), "empty campaign complete");
        drop(engine);

        let resumed = common(&format!("--jobs 1 --resume {}", path.display())).unwrap();
        let engine = resumed.engine_with(None);
        let telemetry = Telemetry::new("roundtrip");
        assert!(resumed.campaign(&engine, Some(&telemetry)).unwrap());
        assert!(report_campaign(&engine, Some(&telemetry)));
        assert_eq!(telemetry.det_counter("campaign.executed"), 0);
        std::fs::remove_file(&path).ok();
    }
}
