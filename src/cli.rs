//! Command-line interface of the `aurix-contention` binary.
//!
//! Hand-rolled argument parsing (no extra dependencies): subcommands
//! mirror the paper's artefacts plus a one-shot bound query. Figure 4
//! itself is the `figure4` binary of `contention-bench`.
//!
//! ```text
//! aurix-contention calibrate
//! aurix-contention bound --scenario sc1 --level high [--model ilp|ftc|fsb]
//! aurix-contention trace [--scenario sc1] [--limit 40]
//! ```
//!
//! Every subcommand accepts the shared flags of [`mbta::args`]
//! (`--jobs`, `--engine`, `--platform`, `--ilp-budget`, the crash-safe
//! campaign flags and the telemetry and attribution sinks), anywhere on
//! the command line. Two flags are the CLI's own: `--strict` rejects
//! counter profiles that violate a platform invariant, and `--repair`
//! (the default) clamps them and warns. When `--ilp-budget` runs out,
//! `bound --model ilp` degrades to the sound fTC bound and tags the
//! output `fallback=ftc`.
//!
//! The telemetry recorder is always attached: it is the consolidated
//! warning channel, so repaired profiles, truncated traces and torn
//! journals are deduplicated, and `--telemetry` flushes the stream.

use contention::{
    ContentionModel, EvalOptions, Evaluator, FsbModel, FtcModel, ObservedContention, Platform,
    TightnessReport, ValidationPolicy, Validator, WcetEstimate,
};
use mbta::args::{
    available_jobs, reject_rest, report_campaign, take_flag, take_parsed, CommonArgs,
};
use mbta::{ExecEngine, Telemetry};
use std::str::FromStr;
use std::sync::Arc;
use tc27x_sim::{CoreId, DeploymentScenario, Engine, Operation, SimConfig, System, Target};
use workloads::LoadLevel;

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run the Table 2 calibration campaign.
    Calibrate,
    /// Compute one WCET bound.
    Bound {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender load level.
        level: LoadLevel,
        /// Model selector.
        model: ModelChoice,
    },
    /// Dump an execution trace of the app in isolation.
    Trace {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Maximum number of events printed.
        limit: usize,
    },
    /// Emit an isolation-profile record (CSV) for exchange.
    Profile {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender level; the application when `None`.
        level: Option<LoadLevel>,
    },
    /// Attribute co-run wait cycles to aggressor cores and audit the
    /// model bounds' tightness against the observation.
    ContentionAttr {
        /// Restrict to one scenario (sc1 and sc2 when `None`).
        scenario: Option<DeploymentScenario>,
        /// Contender load level (default: high).
        level: LoadLevel,
    },
    /// Print usage.
    Help,
}

impl Command {
    /// Stable label naming the subcommand in telemetry meta records.
    pub fn label(&self) -> &'static str {
        match self {
            Command::Calibrate => "calibrate",
            Command::Bound { .. } => "bound",
            Command::Trace { .. } => "trace",
            Command::Profile { .. } => "profile",
            Command::ContentionAttr { .. } => "contention-attr",
            Command::Help => "help",
        }
    }
}

/// Which model `bound` evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelChoice {
    /// The ILP-PTAC model (scenario-tailored).
    Ilp,
    /// The fully time-composable closed form.
    Ftc,
    /// The FSB (single-bus) reduction.
    Fsb,
}

impl FromStr for ModelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ilp" | "ilp-ptac" => Ok(ModelChoice::Ilp),
            "ftc" => Ok(ModelChoice::Ftc),
            "fsb" => Ok(ModelChoice::Fsb),
            other => Err(format!(
                "unknown model `{other}` (expected ilp, ftc or fsb)"
            )),
        }
    }
}

/// Errors from argument parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError(message)
    }
}

/// Settings of the fault-tolerant evaluation pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PipelineSettings {
    /// How profile-invariant violations are treated (`--strict` /
    /// `--repair`; default: repair).
    pub policy: ValidationPolicy,
    /// Branch-and-bound node budget override for the ILP solver; the
    /// model default when `None`.
    pub ilp_budget: Option<u64>,
    /// Simulator timing kernel of the inline (non-engine) runs.
    pub engine: Engine,
}

/// A fully parsed invocation: the subcommand, the CLI's validation
/// policy and the shared flags.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// The subcommand to run.
    pub command: Command,
    /// `--strict` or `--repair` (the default).
    pub policy: ValidationPolicy,
    /// The shared flags ([`mbta::args`]).
    pub common: CommonArgs,
}

impl Invocation {
    /// The evaluation-pipeline settings the flags describe.
    pub fn settings(&self) -> PipelineSettings {
        PipelineSettings {
            policy: self.policy,
            ilp_budget: self.common.ilp_budget,
            engine: self.common.sim_engine,
        }
    }
}

/// Parses an argument vector (without the program name): the CLI's
/// `--strict`/`--repair` and the shared flags, anywhere, then the
/// subcommand and its options.
///
/// # Errors
///
/// [`ParseError`] on unknown subcommands, options or values.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, ParseError> {
    let mut rest = args.to_vec();
    let strict = take_flag(&mut rest, "--strict");
    let repair = take_flag(&mut rest, "--repair");
    if strict && repair {
        return Err(ParseError(
            "--strict and --repair are mutually exclusive".into(),
        ));
    }
    let policy = if strict {
        ValidationPolicy::Strict
    } else {
        ValidationPolicy::Repair
    };
    let common = CommonArgs::take(&mut rest, available_jobs())?;
    Ok(Invocation {
        command: parse(&rest)?,
        policy,
        common,
    })
}

/// Parses a subcommand and its options (no shared flags).
///
/// # Errors
///
/// [`ParseError`] on unknown subcommands, options or values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let args = &mut rest.to_vec();
    let required = |what: &str| ParseError(format!("{sub} requires {what}"));
    let command = match sub.as_str() {
        "calibrate" => Command::Calibrate,
        "bound" => Command::Bound {
            scenario: take_parsed(args, "--scenario")?.ok_or_else(|| required("--scenario"))?,
            level: take_parsed(args, "--level")?.ok_or_else(|| required("--level"))?,
            model: take_parsed(args, "--model")?.unwrap_or(ModelChoice::Ilp),
        },
        "trace" => Command::Trace {
            scenario: take_parsed(args, "--scenario")?.unwrap_or(DeploymentScenario::Scenario1),
            limit: take_parsed(args, "--limit")?.unwrap_or(40),
        },
        "profile" => Command::Profile {
            scenario: take_parsed(args, "--scenario")?.unwrap_or(DeploymentScenario::Scenario1),
            level: take_parsed(args, "--level")?,
        },
        "contention-attr" => Command::ContentionAttr {
            scenario: take_parsed(args, "--scenario")?,
            level: take_parsed(args, "--level")?.unwrap_or(LoadLevel::High),
        },
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown subcommand `{other}`"))),
    };
    reject_rest(args)?;
    Ok(command)
}

/// Usage text: the subcommands and the CLI's own flags. The shared
/// flags' help, [`mbta::args::FLAGS_HELP`], follows it wherever it is
/// printed.
pub const USAGE: &str = "\
aurix-contention — multicore contention WCET bounds for the AURIX TC27x

USAGE:
    aurix-contention <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    calibrate                       run the Table 2 calibration campaign
    bound    --scenario S --level L [--model M]
                                    one WCET bound (S: sc1|sc2|low;
                                    L: high|medium|low; M: ilp|ftc|fsb)
    trace    [--scenario S] [--limit N]
                                    dump an isolation execution trace
    profile  [--scenario S] [--level L]
                                    emit an isolation-profile CSV record
    contention-attr [--scenario S] [--level L]
                                    attribute co-run wait cycles to aggressor
                                    cores and audit model-bound tightness
                                    (observed vs budget, per access class and
                                    slave; default: sc1 and sc2 at high load)
    help                            this text

    Figure 4 has its own binary in contention-bench.

OPTIONS:
    --strict                        reject counter profiles that violate a
                                    platform invariant
    --repair                        clamp inconsistent profiles and warn
                                    (default)
";

/// Executes a parsed invocation: builds the experiment engine from the
/// shared flags, attaches a crash-safe campaign journal when
/// `--journal`/`--resume` ask for one, and runs the subcommand on it.
/// An incomplete campaign (jobs left unrecovered after retries and
/// watchdog) prints its partial-result manifest to stderr and fails.
///
/// # Errors
///
/// Propagates simulation/model/journal errors as boxed errors.
pub fn run_invocation(inv: Invocation) -> Result<(), Box<dyn std::error::Error>> {
    let settings = inv.settings();
    let common = inv.common;
    // The recorder is always attached: it is the consolidated warning
    // channel, so repaired-profile and trace-truncated diagnostics are
    // deduplicated (first occurrence printed, repeats counted) even in
    // plain one-shot runs. The stream is only flushed to disk when
    // `--telemetry` names a sink.
    let telemetry: Arc<Telemetry> = Arc::new(Telemetry::new(inv.command.label()));
    let attribute = matches!(inv.command, Command::ContentionAttr { .. });
    let engine = common
        .engine_with(Some(&telemetry))
        .with_attribution(common.attribution.is_some() || attribute);
    common.campaign(&engine, Some(&telemetry))?;
    let result = run_with_telemetry(&engine, inv.command, settings, Some(&telemetry));
    let complete = report_campaign(&engine, Some(&telemetry));
    if common.telemetry.is_some() {
        telemetry.record_engine(&engine.report());
    }
    let flushed = common
        .flush_telemetry(Some(&telemetry))
        .and(common.flush_attribution(Some(&telemetry)));
    // Dedup summary: the first occurrence of each warning was printed
    // as it happened; repeats were only counted. Surface the totals so
    // a 10k-job sweep reports each distinct warning once, with a count.
    for w in telemetry.warnings() {
        if w.count > 1 {
            eprintln!("warning: {} ({} occurrences in total)", w.message, w.count);
        }
    }
    result?;
    flushed?;
    if !complete {
        return Err("campaign finished degraded: jobs unrecovered (see manifest above)".into());
    }
    Ok(())
}

/// Reports a repaired-profile diagnostic: through the deduplicated
/// warning channel when a recorder is attached, as a plain stderr line
/// otherwise (both render the same `warning:` line on first sight).
fn warn_repaired(telemetry: Option<&Telemetry>, detail: &str) {
    match telemetry {
        Some(t) => t.warn("profile.repaired", format!("repaired profile: {detail}")),
        None => eprintln!("warning: repaired profile: {detail}"),
    }
}

/// Executes a parsed command, writing human-readable output to stdout.
/// All simulations go through `engine` — plain or journaled — so
/// repeated profiles are served from the memo cache (or journal
/// replay). Profile validation
/// and the ILP solve budget follow `settings`. An optional telemetry
/// recorder collects ILP solve records and the stderr diagnostics
/// (repaired profiles, truncated traces).
///
/// # Errors
///
/// Propagates simulation/model errors as boxed errors.
pub fn run_with_telemetry(
    engine: &ExecEngine,
    cmd: Command,
    settings: PipelineSettings,
    telemetry: Option<&Telemetry>,
) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            print!("{USAGE}{}", mbta::args::FLAGS_HELP);
            Ok(())
        }
        Command::Calibrate => {
            let cal = mbta::calibrate_with(engine)?;
            let p = cal.into_platform();
            println!("calibrated Table 2 constants:");
            for (t, o, v) in cal.latency.iter() {
                if p.paths().is_feasible(t, o) {
                    println!(
                        "  l^{{{t},{o}}} = {v}  cs^{{{t},{o}}} = {}",
                        cal.stall.get(t, o)
                    );
                }
            }
            println!("  lmu dirty-miss latency = {}", cal.lmu_dirty_latency);
            Ok(())
        }
        Command::Bound {
            scenario,
            level,
            model,
        } => {
            let desc = engine.platform();
            let platform = Platform::from_desc(desc);
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            let app = engine.isolation(
                &workloads::control_loop_on(desc, scenario, app_core, 42),
                app_core,
            )?;
            let load = engine.isolation(
                &workloads::contender_on(desc, scenario, level, load_core, 7),
                load_core,
            )?;
            match model {
                ModelChoice::Ilp => {
                    // The fault-tolerant pipeline: validate under the
                    // configured policy, solve the ILP exactly within
                    // its node budget, degrade to fTC when it runs out.
                    let mut options = EvalOptions::for_scenario(mbta::constraints_for(scenario));
                    options.policy = settings.policy;
                    if let Some(budget) = settings.ilp_budget {
                        options.ilp.node_budget = budget;
                    }
                    let evaluated = Evaluator::new(&platform, options).bound(&app, &load)?;
                    for report in &evaluated.reports {
                        if !report.is_clean() {
                            warn_repaired(telemetry, &report.detail());
                        }
                    }
                    if let Some(t) = telemetry {
                        t.record_solve(
                            format!("solve:{scenario}-{level}"),
                            evaluated.nodes_explored,
                            evaluated.source.is_fallback(),
                        );
                    }
                    let est = WcetEstimate {
                        isolation_cycles: app.counters().ccnt,
                        contention_cycles: evaluated.bound.delta_cycles,
                    };
                    println!("{est} [{}]", evaluated.source.tag());
                }
                ModelChoice::Ftc | ModelChoice::Fsb => {
                    let validator = Validator::new(&platform, settings.policy);
                    let (app, report_a) = validator.apply(&app)?;
                    let (load, report_b) = validator.apply(&load)?;
                    for report in [&report_a, &report_b] {
                        if !report.is_clean() {
                            warn_repaired(telemetry, &report.detail());
                        }
                    }
                    let est: WcetEstimate = match model {
                        ModelChoice::Ftc => {
                            FtcModel::new(&platform).wcet_estimate(&app, &[&load])?
                        }
                        _ => FsbModel::new(&platform).wcet_estimate(&app, &[&load])?,
                    };
                    println!("{est}");
                }
            }
            Ok(())
        }
        Command::Profile { scenario, level } => {
            let desc = engine.platform();
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            let profile = match level {
                None => engine.isolation(
                    &workloads::control_loop_on(desc, scenario, app_core, 42),
                    app_core,
                )?,
                Some(l) => engine.isolation(
                    &workloads::contender_on(desc, scenario, l, load_core, 7),
                    load_core,
                )?,
            };
            println!("{}", profile.to_record());
            Ok(())
        }
        Command::ContentionAttr { scenario, level } => {
            let desc = engine.platform();
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            let scenarios = match scenario {
                Some(s) => vec![s],
                None => vec![DeploymentScenario::Scenario1, DeploymentScenario::Scenario2],
            };
            println!(
                "contention attribution — platform {}, app c{} vs {level} contender c{}",
                desc.name, app_core.0, load_core.0
            );
            for s in scenarios {
                let app_spec = workloads::control_loop_on(desc, s, app_core, 42);
                let load_spec = workloads::contender_on(desc, s, level, load_core, 7);
                // The isolation profile feeds the Eq. 2–4 access bounds
                // (memoized / journaled through the engine as usual).
                let profile = engine.isolation(&app_spec, app_core)?;
                // The attributed co-run itself runs inline: the ledger
                // must stay per-scenario, not folded across the batch.
                let cfg = SimConfig::from_platform(desc)
                    .with_engine(settings.engine)
                    .with_attribution(true);
                let mut sys = System::with_config(cfg);
                sys.load(app_core, &app_spec)?;
                sys.load(load_core, &load_spec)?;
                let out = sys.run_until(app_core)?;
                let corun_cycles = out.counters(app_core).ccnt;
                let stats = sys.stats();
                let m = &stats.attribution;
                if let Some(t) = telemetry {
                    let job = mbta::SimJob::Corun {
                        app: app_spec.clone(),
                        app_core,
                        load: load_spec.clone(),
                        load_core,
                    };
                    t.record_job(
                        mbta::job_key_on(&job, desc),
                        &job,
                        corun_cycles,
                        Some(&stats),
                    );
                }
                println!();
                println!(
                    "{s}: isolation {} cycles, co-run {} cycles",
                    profile.counters().ccnt,
                    corun_cycles
                );
                println!("  wait matrix [cycles a victim lost at each slave, by cause]");
                print!("  {:<10}", "slave/vic");
                for a in 0..CoreId::COUNT {
                    print!(" {:>8}", format!("c{a}"));
                }
                println!(" {:>8}", "sched");
                for t in Target::all() {
                    if !desc.slave(t.index()).present {
                        continue;
                    }
                    for v in CoreId::all() {
                        let row = m.row(t, v);
                        print!("  {:<10}", format!("{t}/c{}", v.0));
                        for cell in row {
                            print!(" {cell:>8}");
                        }
                        println!();
                    }
                }
                let mut observed = ObservedContention {
                    contenders: 1,
                    ..Default::default()
                };
                for class in Operation::all() {
                    observed.interference[class.index()] = m.interference_total(app_core, class);
                    observed.grants[class.index()] = m.class_grants_total(app_core, class);
                }
                for t in Target::all() {
                    observed.max_wait[t.index()] = m.max_wait(t, app_core);
                }
                let report =
                    TightnessReport::audit(desc, &profile, &observed, format!("{s}/{level}"));
                println!("{report}");
            }
            Ok(())
        }
        Command::Trace { scenario, limit } => {
            let desc = engine.platform();
            let app_core = CoreId(desc.app_core as u8);
            let cfg = SimConfig::from_platform(desc)
                .with_trace_capacity(limit.max(1))
                .with_engine(settings.engine);
            let mut sys = System::with_config(cfg);
            sys.load(
                app_core,
                &workloads::control_loop_on(desc, scenario, app_core, 42),
            )?;
            let out = sys.run()?;
            if out.trace_dropped(app_core) > 0 {
                let message = format!(
                    "trace truncated — {} event(s) were dropped after the \
                     {}-event buffer filled; raise --limit to capture them",
                    out.trace_dropped(app_core),
                    limit.max(1)
                );
                match telemetry {
                    Some(t) => t.warn("trace.dropped", message),
                    None => eprintln!("warning: {message}"),
                }
            }
            let trace = sys.trace(app_core);
            for r in trace.records().iter().take(limit) {
                println!("{r}");
            }
            if trace.dropped() > 0 {
                println!("... {} further events not recorded", trace.dropped());
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    //! The subcommand grammar and the CLI's wiring of the shared flags.
    //! What each shared flag accepts and rejects is tested once, in
    //! `mbta::args`.

    use super::*;
    use std::path::PathBuf;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn inv(s: &str) -> Invocation {
        parse_invocation(&argv(s)).unwrap()
    }

    fn rejects(s: &str) -> String {
        parse_invocation(&argv(s)).unwrap_err().to_string()
    }

    #[test]
    fn parses_calibrate_and_help() {
        assert_eq!(parse(&argv("calibrate")).unwrap(), Command::Calibrate);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_bound_with_defaults() {
        let cmd = parse(&argv("bound --scenario sc1 --level high")).unwrap();
        assert_eq!(
            cmd,
            Command::Bound {
                scenario: DeploymentScenario::Scenario1,
                level: LoadLevel::High,
                model: ModelChoice::Ilp,
            }
        );
        let cmd = parse(&argv("bound --scenario low --level m --model fsb")).unwrap();
        assert_eq!(
            cmd,
            Command::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Medium,
                model: ModelChoice::Fsb,
            }
        );
    }

    #[test]
    fn parses_trace_defaults() {
        assert_eq!(
            parse(&argv("trace")).unwrap(),
            Command::Trace {
                scenario: DeploymentScenario::Scenario1,
                limit: 40
            }
        );
        assert_eq!(
            parse(&argv("trace --scenario sc2 --limit 7")).unwrap(),
            Command::Trace {
                scenario: DeploymentScenario::Scenario2,
                limit: 7
            }
        );
    }

    #[test]
    fn parses_profile() {
        assert_eq!(
            parse(&argv("profile")).unwrap(),
            Command::Profile {
                scenario: DeploymentScenario::Scenario1,
                level: None
            }
        );
        assert_eq!(
            parse(&argv("profile --scenario sc2 --level high")).unwrap(),
            Command::Profile {
                scenario: DeploymentScenario::Scenario2,
                level: Some(LoadLevel::High)
            }
        );
    }

    #[test]
    fn parses_contention_attr() {
        assert_eq!(
            parse(&argv("contention-attr")).unwrap(),
            Command::ContentionAttr {
                scenario: None,
                level: LoadLevel::High
            }
        );
        assert_eq!(
            parse(&argv("contention-attr --scenario sc2 --level low")).unwrap(),
            Command::ContentionAttr {
                scenario: Some(DeploymentScenario::Scenario2),
                level: LoadLevel::Low
            }
        );
        assert!(parse(&argv("contention-attr --scenario nope")).is_err());
        assert!(parse(&argv("contention-attr --level nope")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "frobnicate",
            "figure4",
            "bound --scenario sc1",
            "bound --scenario nope --level high",
            "bound --scenario sc1 --level nope",
            "bound --scenario sc1 --level h --model nope",
            "trace --limit abc",
            "trace --scenario",
            "calibrate --scenario sc1",
            "calibrate extra",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
        assert!(rejects("bound --scenario sc1 --level high --platfrom ahb2").contains("--platfrom"));
    }

    /// Shared flags are taken anywhere around the subcommand.
    #[test]
    fn parses_global_jobs_flag() {
        assert_eq!(
            inv("--jobs 2 bound --scenario sc1 --level high")
                .common
                .jobs,
            2
        );
        assert_eq!(
            inv("bound --scenario sc1 --jobs 8 --level high")
                .common
                .jobs,
            8
        );
        assert!(inv("calibrate").common.jobs >= 1);
    }

    #[test]
    fn rejects_bad_jobs_values() {
        assert!(rejects("calibrate --jobs 0").contains("at least 1"));
    }

    #[test]
    fn parses_pipeline_flags() {
        let i = inv("bound --scenario sc1 --ilp-budget 1 --level high");
        assert_eq!(
            i.settings(),
            PipelineSettings {
                policy: ValidationPolicy::Repair,
                ilp_budget: Some(1),
                engine: Engine::Event,
            }
        );
        assert_eq!(inv("--strict calibrate").policy, ValidationPolicy::Strict);
        assert_eq!(inv("calibrate --repair").policy, ValidationPolicy::Repair);
    }

    #[test]
    fn rejects_bad_pipeline_flags() {
        assert!(rejects("calibrate --strict --repair").contains("mutually exclusive"));
        assert!(rejects("calibrate --ilp-budget 0").contains("at least 1"));
    }

    #[test]
    fn parses_engine_flag() {
        assert_eq!(
            inv("--engine tick calibrate").settings().engine,
            Engine::Tick
        );
        assert!(!inv("calibrate --no-block-memo").common.block_memo);
    }

    #[test]
    fn rejects_bad_engine_values() {
        assert!(rejects("calibrate --engine warp").contains("warp"));
    }

    #[test]
    fn parses_campaign_flags() {
        let i = inv("trace --resume fig4.journal --watchdog-ms 5000 --scenario sc2");
        assert_eq!(i.common.resume, Some(PathBuf::from("fig4.journal")));
        assert_eq!(i.common.watchdog_millis, Some(5000));
        assert_eq!(
            i.command,
            Command::Trace {
                scenario: DeploymentScenario::Scenario2,
                limit: 40
            }
        );
    }

    #[test]
    fn rejects_bad_campaign_flags() {
        assert!(rejects("calibrate --journal a --resume b").contains("mutually exclusive"));
    }

    #[test]
    fn parses_telemetry_flag() {
        let spec = inv("trace --telemetry out.json:chrome")
            .common
            .telemetry
            .unwrap();
        assert_eq!(
            (spec.path.as_str(), spec.format),
            ("out.json", mbta::Format::Chrome)
        );
    }

    #[test]
    fn rejects_bad_telemetry_flags() {
        assert!(rejects("calibrate --telemetry :chrome").contains("--telemetry"));
    }

    #[test]
    fn parses_platform_flag() {
        let i = inv("--platform tc27x-tdma trace --limit 3");
        assert_eq!(i.common.platform.name, "tc27x-tdma");
        assert!(rejects("calibrate --platform vax").contains("known platforms"));
    }

    #[test]
    fn parses_attribution_flag() {
        let i = inv("--attribution attr.jsonl calibrate");
        assert_eq!(i.common.attribution, Some(PathBuf::from("attr.jsonl")));
    }

    /// End-to-end through `run_invocation`: a journaled calibrate run
    /// followed by a resumed one, both exercising the campaign plumbing
    /// behind the global flags.
    #[test]
    fn run_invocation_journals_and_resumes() {
        let mut path = std::env::temp_dir();
        path.push(format!("aurix-cli-journal-{}", std::process::id()));
        let journal_args = argv(&format!("--jobs 1 --journal {} calibrate", path.display()));
        run_invocation(parse_invocation(&journal_args).unwrap()).unwrap();
        assert!(path.exists(), "journal file must be written");

        let resume_args = argv(&format!("--jobs 1 --resume {} calibrate", path.display()));
        run_invocation(parse_invocation(&resume_args).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        let text = format!("{USAGE}{}", mbta::args::FLAGS_HELP);
        for sub in [
            "calibrate",
            "bound",
            "trace",
            "profile",
            "contention-attr",
            "--strict",
            "--repair",
            "--jobs",
            "--platform",
        ] {
            assert!(text.contains(sub), "{sub}");
        }
        assert!(!USAGE.contains("figure4"), "Figure 4 is a bench binary");
    }

    /// End-to-end: `contention-attr` prints the wait matrix and a
    /// tightness report with no violations, and `--attribution` flushes
    /// matrix records.
    #[test]
    fn run_invocation_audits_tightness_and_flushes_attribution() {
        let mut path = std::env::temp_dir();
        path.push(format!("aurix-cli-attr-{}.jsonl", std::process::id()));
        let args = argv(&format!(
            "--jobs 1 --attribution {} contention-attr --scenario sc1",
            path.display()
        ));
        run_invocation(parse_invocation(&args).unwrap()).unwrap();
        let stream = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            stream.contains("\"k\":\"matrix\""),
            "matrix records: {stream}"
        );
        assert!(stream.contains("attribution.wait"));
        assert!(stream.contains("attribution.interference"));
    }

    /// End-to-end: `--telemetry` writes a JSONL stream whose
    /// deterministic records carry the subcommand and the exec metrics,
    /// and whose only `det:false` record is the profile.
    #[test]
    fn run_invocation_flushes_a_telemetry_stream() {
        let mut path = std::env::temp_dir();
        path.push(format!("aurix-cli-telemetry-{}.jsonl", std::process::id()));
        let args = argv(&format!(
            "--jobs 1 --telemetry {} bound --scenario sc1 --level high",
            path.display()
        ));
        run_invocation(parse_invocation(&args).unwrap()).unwrap();
        let stream = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(stream.contains("\"k\":\"meta\""), "meta record present");
        assert!(stream.contains("\"command\":\"bound\""), "subcommand named");
        assert!(stream.contains("ilp.solves"), "solve counter recorded");
        assert!(stream.contains("\"k\":\"span\""), "job spans recorded");
        let nondet: Vec<&str> = stream
            .lines()
            .filter(|l| l.contains("\"det\":false"))
            .collect();
        assert!(
            nondet.iter().all(|l| !l.contains("\"k\":\"span\"")),
            "spans are deterministic"
        );
        assert!(
            stream
                .lines()
                .filter(|l| l.contains("wall_seconds"))
                .all(|l| l.contains("\"det\":false")),
            "wall-clock only in nondet records"
        );
    }
}
