//! The bound-pair workloads: one op is one sweep row.
//!
//! Each op builds its jobs as the sweep does (app isolation, contender
//! isolation, co-run — the app profile is a memo hit after set-up; the
//! app is `control_loop_on` the cell's platform, which is the sweep's
//! `control_loop` wherever the platform has a second flash bank), runs them through `ExecEngine::run_batch`, evaluates fTC,
//! ILP-PTAC, ideal and FSB through `ContentionModel::wcet_estimate`,
//! and asks `Evaluator::bound` for the budgeted answer, as the sweep's
//! fallback report does.
//!
//! `pairs-sim` spends its time in the simulator, `pairs-ilp` in the ILP.
//! Intensities are stratified over 0–1000‰ (seeded jitter, seeded
//! order) so every seed runs the same cost mix; the golden intensities
//! (0–1000 step 100) ride along on the cells with a committed golden
//! sweep and must reproduce it byte for byte.

use crate::{
    apportion, fastest, latency_metrics, metrics_from, peak_rss_mb, ratio, shuffle, trace_overhead,
    traced_op, Failures, Report, RunConfig, Workload, END_TO_END, PER_LAYER, SETUPS,
};
use contention::{
    ContentionModel, EvalOptions, Evaluator, FsbModel, FtcModel, IdealModel, IlpPtacModel,
    IsolationProfile, Platform,
};
use contention_bench::scaled_contender;
use mbta::{constraints_for, ExecEngine, SimJob, SimOutcome};
use platform::PlatformDesc;
use std::time::Instant;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{CoreId, DeploymentScenario, TaskSpec};

const GOLDEN_SC1: &str = include_str!("../../crates/bench/tests/golden/sweep_sc1.csv");
const GOLDEN_SC2: &str = include_str!("../../crates/bench/tests/golden/sweep_sc2.csv");
const GOLDEN_SC2_TDMA: &str = include_str!("../../crates/bench/tests/golden/sweep_sc2_tdma.csv");

/// One (platform, scenario) cell of a pairs workload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    /// Builtin platform name.
    pub(crate) platform: &'static str,
    /// Deployment scenario of the app and the ILP constraints.
    pub(crate) scenario: DeploymentScenario,
    /// The committed golden sweep of this cell, if any.
    pub(crate) golden: Option<&'static str>,
}

/// The cells of a pairs workload; ops go round-robin over them.
pub(crate) fn cells(workload: Workload) -> Vec<Cell> {
    let cell = |platform, scenario, golden| Cell {
        platform,
        scenario,
        golden,
    };
    match workload {
        Workload::PairsSim => vec![
            cell("tc27x", DeploymentScenario::Scenario1, Some(GOLDEN_SC1)),
            cell("tc27x-tdma", DeploymentScenario::Scenario1, None),
            cell("ahb2", DeploymentScenario::Scenario1, None),
            cell("ahb2", DeploymentScenario::Scenario2, None),
        ],
        Workload::PairsIlp => vec![
            cell("tc27x", DeploymentScenario::Scenario2, Some(GOLDEN_SC2)),
            cell(
                "tc27x-tdma",
                DeploymentScenario::Scenario2,
                Some(GOLDEN_SC2_TDMA),
            ),
        ],
        Workload::ServeMixed => Vec::new(),
    }
}

/// The golden intensities (permille).
fn golden_intensities() -> Vec<u32> {
    (0..=1_000).step_by(100).collect()
}

/// The op sequence: `(cell, intensity‰)` pairs, round-robin over the
/// cells. Per cell, the golden intensities (when the cell has a golden)
/// plus one intensity per stratum of the 990 non-golden values 1–999,
/// in seeded order. With `jitter` the intensity is a seeded draw inside
/// its stratum; without, it is the stratum's midpoint, so the set of
/// ops is the same on every seed and only their order changes.
pub(crate) fn schedule(cells: &[Cell], ops: usize, seed: u64, jitter: bool) -> Vec<(usize, u32)> {
    let shares = apportion(ops, &vec![1; cells.len()]);
    let mut per_cell: Vec<Vec<u32>> = Vec::with_capacity(cells.len());
    for (c, (cell, &n)) in cells.iter().zip(&shares).enumerate() {
        let mut rng = SplitMix64::new(seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut seq: Vec<u32> = if cell.golden.is_some() {
            let mut golden = golden_intensities();
            shuffle(&mut golden, &mut rng);
            golden.truncate(n);
            golden
        } else {
            Vec::new()
        };
        let strata = (n - seq.len()) as u64;
        for j in 0..strata {
            let offset = if jitter { rng.below(990) } else { 495 };
            let k = ((j * 990 + offset) / strata) % 990;
            seq.push((k + k / 99 + 1) as u32);
        }
        shuffle(&mut seq, &mut rng);
        per_cell.push(seq);
    }
    let rounds = shares.iter().copied().max().unwrap_or(0);
    let mut out = Vec::with_capacity(ops);
    for r in 0..rounds {
        for (c, seq) in per_cell.iter().enumerate() {
            if let Some(&intensity) = seq.get(r) {
                out.push((c, intensity));
            }
        }
    }
    out
}

/// Everything one op computes, in cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairRow {
    /// Cell index.
    pub cell: usize,
    /// Contender intensity, permille.
    pub intensity: u32,
    /// App isolation cycles.
    pub iso: u64,
    /// Contender isolation cycles (CCNT).
    pub load_ccnt: u64,
    /// Observed app cycles in the co-run.
    pub observed: u64,
    /// fTC bound cycles.
    pub ftc: u64,
    /// ILP-PTAC bound cycles (the sweep CSV's path).
    pub ilp: u64,
    /// Ideal-model bound cycles.
    pub ideal: u64,
    /// FSB-model bound cycles.
    pub fsb: u64,
    /// The evaluator's bound cycles.
    pub eval: u64,
    /// Whether the evaluator fell back to fTC.
    pub fallback: bool,
    /// Branch & bound nodes the evaluator explored.
    pub nodes: u64,
}

impl PairRow {
    fn ratio(&self, cycles: u64) -> f64 {
        if self.iso == 0 {
            1.0
        } else {
            cycles as f64 / self.iso as f64
        }
    }

    /// The row as the sweep CSV prints it.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            self.intensity,
            self.ratio(self.ftc),
            self.ratio(self.ilp),
            self.ratio(self.ideal),
            self.ratio(self.fsb),
            self.ratio(self.observed),
        )
    }

    /// Folds every computed value into `h`.
    fn digest_into(&self, h: &mut obs::Fnv) {
        for v in [
            self.cell as u64,
            self.intensity as u64,
            self.iso,
            self.load_ccnt,
            self.observed,
            self.ftc,
            self.ilp,
            self.ideal,
            self.fsb,
            self.eval,
            self.fallback as u64,
            self.nodes,
        ] {
            h.write_u64(v);
        }
    }
}

/// Checks one row: every reported bound dominates the observed co-run,
/// and at a golden intensity the row equals the golden sweep's.
///
/// # Errors
///
/// A description of the first violation.
pub fn check_row(row: &PairRow, golden: Option<&str>) -> Result<(), String> {
    for (model, bound) in [
        ("fTC", row.ftc),
        ("ILP-PTAC", row.ilp),
        ("evaluator", row.eval),
    ] {
        if row.observed > bound {
            return Err(format!(
                "cell {} at {}‰: observed {} cycles > {model} bound {bound}",
                row.cell, row.intensity, row.observed
            ));
        }
    }
    if let Some(golden) = golden {
        let prefix = format!("{},", row.intensity);
        if let Some(line) = golden.lines().skip(1).find(|l| l.starts_with(&prefix)) {
            let got = row.csv_row();
            if got != line {
                return Err(format!(
                    "cell {} at {}‰: row `{got}` differs from golden `{line}`",
                    row.cell, row.intensity
                ));
            }
        }
    }
    Ok(())
}

/// The app of one cell, profiled at set-up.
struct App {
    engine: usize,
    spec: TaskSpec,
    core: CoreId,
    load_core: CoreId,
    profile: IsolationProfile,
}

/// Engines (one per platform) and the profiled apps (one per cell).
struct Setup {
    engines: Vec<ExecEngine>,
    apps: Vec<App>,
}

fn setup(cells: &[Cell]) -> Result<Setup, String> {
    let mut names: Vec<&str> = Vec::new();
    let mut engines = Vec::new();
    let mut apps = Vec::with_capacity(cells.len());
    for cell in cells {
        let engine = match names.iter().position(|&n| n == cell.platform) {
            Some(i) => i,
            None => {
                let desc = PlatformDesc::builtin(cell.platform)
                    .ok_or_else(|| format!("unknown platform `{}`", cell.platform))?;
                names.push(cell.platform);
                engines.push(ExecEngine::new(1).with_platform(desc));
                engines.len() - 1
            }
        };
        let desc = engines[engine].platform();
        let (core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
        let spec = workloads::control_loop_on(desc, cell.scenario, core, 42);
        let profile = engines[engine]
            .isolation(&spec, core)
            .map_err(|e| format!("app isolation on {}: {e}", cell.platform))?;
        apps.push(App {
            engine,
            spec,
            core,
            load_core,
            profile,
        });
    }
    Ok(Setup { engines, apps })
}

/// The models of one cell.
struct Models<'p> {
    ftc: FtcModel<'p>,
    ilp: IlpPtacModel<'p>,
    ideal: IdealModel<'p>,
    fsb: FsbModel<'p>,
    evaluator: Evaluator<'p>,
}

impl<'p> Models<'p> {
    fn new(platform: &'p Platform, scenario: DeploymentScenario) -> Models<'p> {
        Models {
            ftc: FtcModel::new(platform),
            ilp: IlpPtacModel::new(platform, constraints_for(scenario)),
            ideal: IdealModel::new(platform),
            fsb: FsbModel::new(platform),
            evaluator: Evaluator::new(
                platform,
                EvalOptions::for_scenario(constraints_for(scenario)),
            ),
        }
    }
}

/// Host seconds per layer, summed over traced ops.
#[derive(Clone, Copy, Debug, Default)]
struct LayerTimes {
    busy: f64,
    ilp: f64,
    eval: f64,
    closed_form: f64,
}

/// Starts a layer span when tracing.
fn span(trace: bool) -> Option<Instant> {
    trace.then(Instant::now)
}

/// Seconds since `start` (0 when untraced).
fn end(start: Option<Instant>) -> f64 {
    start.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

fn pair_op(
    engine: &ExecEngine,
    app: &App,
    models: &Models<'_>,
    cell: usize,
    intensity: u32,
    trace: Option<&mut LayerTimes>,
) -> Result<PairRow, String> {
    let on = trace.is_some();
    let load_spec = scaled_contender(app.load_core, intensity);
    let batch = [
        SimJob::Isolation {
            spec: app.spec.clone(),
            core: app.core,
        },
        SimJob::Isolation {
            spec: load_spec.clone(),
            core: app.load_core,
        },
        SimJob::Corun {
            app: app.spec.clone(),
            app_core: app.core,
            load: load_spec,
            load_core: app.load_core,
        },
    ];
    let t = span(on);
    let outcomes = engine.run_batch(&batch).map_err(|e| e.to_string())?;
    let busy = end(t);
    let (a, load, observed) = match outcomes.as_slice() {
        [SimOutcome::Isolation(a), SimOutcome::Isolation(load), SimOutcome::Corun(observed)] => {
            (a, load, *observed)
        }
        _ => return Err("run_batch returned outcomes of the wrong kind".to_string()),
    };
    if a != &app.profile {
        return Err("app profile changed after set-up".to_string());
    }
    let model_err = |e: contention::ModelError| e.to_string();

    let t = span(on);
    let ftc = models.ftc.wcet_estimate(a, &[load]).map_err(model_err)?;
    let ideal = models.ideal.wcet_estimate(a, &[load]).map_err(model_err)?;
    let fsb = models.fsb.wcet_estimate(a, &[load]).map_err(model_err)?;
    let closed_form = end(t);

    let t = span(on);
    let ilp = models.ilp.wcet_estimate(a, &[load]).map_err(model_err)?;
    let ilp_s = end(t);

    let t = span(on);
    let evaluated = models.evaluator.bound(a, load).map_err(model_err)?;
    let eval_s = end(t);

    if let Some(times) = trace {
        times.busy += busy;
        times.closed_form += closed_form;
        times.ilp += ilp_s;
        times.eval += eval_s;
    }
    let iso = a.counters().ccnt;
    Ok(PairRow {
        cell,
        intensity,
        iso,
        load_ccnt: load.counters().ccnt,
        observed,
        ftc: ftc.bound_cycles(),
        ilp: ilp.bound_cycles(),
        ideal: ideal.bound_cycles(),
        fsb: fsb.bound_cycles(),
        eval: iso + evaluated.bound.delta_cycles,
        fallback: evaluated.source.is_fallback(),
        nodes: evaluated.nodes_explored,
    })
}

/// Runs `pairs-sim` or `pairs-ilp`.
///
/// # Errors
///
/// A set-up failure.
pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    let cells = cells(config.workload);
    // The ILP cells' fallbacks flip erratically with intensity, so
    // `pairs-ilp` keeps one op set for every seed (see `schedule`).
    let jitter = config.workload == Workload::PairsSim;
    let ops = schedule(&cells, config.ops, config.seed, jitter);

    // The set-up the ops run on comes first; the other timed set-ups are
    // spread between the ops, so the fastest of them (`setup_s`) is
    // taken from the whole run. Their engines are dropped unused.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let timed_setup = |times: &mut Vec<f64>| -> Result<Setup, String> {
        let t0 = Instant::now();
        let s = setup(&cells)?;
        times.push(t0.elapsed().as_secs_f64());
        Ok(s)
    };
    let Setup { engines, apps } = timed_setup(&mut setup_times)?;
    let extra_setups_at: Vec<usize> = (1..SETUPS).map(|j| j * ops.len() / SETUPS).collect();
    let platforms: Vec<Platform> = apps
        .iter()
        .map(|app| Platform::from_desc(engines[app.engine].platform()))
        .collect();
    let models: Vec<Models<'_>> = platforms
        .iter()
        .zip(&cells)
        .map(|(p, cell)| Models::new(p, cell.scenario))
        .collect();

    let mut failures = Failures::default();
    let mut digest = obs::Fnv::new();
    let mut latencies = Vec::with_capacity(ops.len());
    let mut traced = Vec::with_capacity(ops.len());
    let mut times = LayerTimes::default();
    let (mut traced_op_s, mut ratio_sum, mut fallbacks) = (0.0, 0.0, 0u64);
    let (mut cycles, mut nodes, mut rows) = (0u64, 0u64, 0u64);

    for (k, &(cell, intensity)) in ops.iter().enumerate() {
        for _ in extra_setups_at.iter().filter(|&&at| at == k) {
            timed_setup(&mut setup_times)?;
        }
        let trace_this = traced_op(config.trace, k, cells.len());
        let app = &apps[cell];
        let t0 = Instant::now();
        let row = pair_op(
            &engines[app.engine],
            app,
            &models[cell],
            cell,
            intensity,
            trace_this.then_some(&mut times),
        );
        let op_s = t0.elapsed().as_secs_f64();
        latencies.push(op_s * 1e3);
        traced.push(trace_this);
        if trace_this {
            traced_op_s += op_s;
        }
        match row.and_then(|row| check_row(&row, cells[cell].golden).map(|()| row)) {
            Ok(row) => {
                row.digest_into(&mut digest);
                ratio_sum += row.ratio(row.ilp);
                fallbacks += row.fallback as u64;
                cycles += row.load_ccnt + row.observed;
                nodes += row.nodes;
                rows += 1;
            }
            Err(e) => {
                digest.write_str("failed");
                failures.push(e);
            }
        }
    }

    let metrics = if config.trace {
        let report = engines.iter().fold((0u64, 0u64), |(h, m), e| {
            let r = e.report();
            (h + r.cache_hits, m + r.cache_misses)
        });
        let n_traced = traced.iter().filter(|&&t| t).count() as f64;
        let layers = times.busy + times.ilp + times.eval + times.closed_form;
        metrics_from(
            &PER_LAYER,
            &[
                ("tc27x-sim.busy_ms", ratio(times.busy * 1e3, n_traced)),
                ("tc27x-sim.cycles", ratio(cycles as f64, rows as f64)),
                (
                    "tc27x-sim.host_ns_per_cycle",
                    ratio(
                        times.busy * 1e9 / n_traced.max(1.0),
                        cycles as f64 / (rows as f64).max(1.0),
                    ),
                ),
                (
                    "mbta.cache_hit_share",
                    ratio(report.0 as f64, (report.0 + report.1) as f64),
                ),
                ("core.ilp_ms", ratio(times.ilp * 1e3, n_traced)),
                ("core.eval_ms", ratio(times.eval * 1e3, n_traced)),
                (
                    "core.closed_form_us",
                    ratio(times.closed_form * 1e6, n_traced),
                ),
                ("ilp.nodes", ratio(nodes as f64, rows as f64)),
                ("residual_share", 1.0 - ratio(layers, traced_op_s)),
                ("trace_overhead", trace_overhead(&latencies, &traced)),
            ],
        )
    } else {
        // A window is two rounds over the cells: every cell twice.
        let (p50, tail, rate) = latency_metrics(&latencies, 2 * cells.len(), 1);
        metrics_from(
            &END_TO_END,
            &[
                ("setup_s", fastest(&setup_times)),
                ("op_p50_ms", p50),
                ("op_tail_ms", tail),
                ("ops_per_s", rate),
                ("peak_rss_mb", peak_rss_mb()),
                ("bound_ratio_mean", ratio(ratio_sum, rows as f64)),
                ("ilp_share", ratio((rows - fallbacks) as f64, rows as f64)),
            ],
        )
    };
    Ok(Report {
        attempted: ops.len() as u64,
        failed: failures.count(),
        failures: failures.into_messages(),
        digest: digest.finish(),
        metrics,
    })
}
