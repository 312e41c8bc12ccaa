//! # `perfbench` — the repository benchmark
//!
//! One command runs one of three seeded, closed-loop workloads and
//! prints its end-to-end metrics (or, with `--trace 1`, its per-layer
//! metrics) as the last line of stdout:
//!
//! | Workload | One op | Dominant layer |
//! |----------|--------|----------------|
//! | `pairs-sim` | one sweep row: contender isolation + co-run, four models, the evaluator | simulator (`ExecEngine::run_batch`) |
//! | `pairs-ilp` | the same op on Scenario 2 of `tc27x`/`tc27x-tdma` | ILP (`wcet_estimate` + `Evaluator::bound`) |
//! | `serve-mixed` | one request round trip to an in-process daemon | query engine + response store |
//!
//! Every op's output is checked (soundness, golden sweep rows, an
//! in-process oracle for served bodies); a mismatch counts as a failed
//! op. All deterministic outputs fold into an FNV-1a digest, so a
//! speed-only change can show that nothing it computes moved.
//!
//! The op count of a run is fixed by `--seconds` (each workload has a
//! nominal op rate), never by the clock: the same seed and seconds give
//! the same ops, the same deterministic metrics and the same digest.
//!
//! The host's speed swings by a third or more for seconds at a time when
//! neighbours compete for its cores and caches, and the slower state is
//! the usual one. So the median and the throughput are read from the
//! slow end of the run (see [`contended`]): a quiet stretch does not
//! pull them down, and a change to the code moves them all the same.
//! `setup_s` is the fastest of 21 set-ups.

#![forbid(unsafe_code)]

pub mod pairs;
pub mod serve_mixed;

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bound pairs whose time goes to the simulator.
    PairsSim,
    /// Bound pairs whose time goes to the ILP.
    PairsIlp,
    /// A mixed request stream against the serve daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload the command runs. `BENCHMARK.json` lists
    /// `pairs-sim` and `serve-mixed`; `pairs-ilp` is left out of it
    /// because the host's swings spread its figures too wide for the
    /// regression bounds (see the README).
    pub const ALL: [Workload; 3] = [Workload::PairsSim, Workload::PairsIlp, Workload::ServeMixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairsSim => "pairs-sim",
            Workload::PairsIlp => "pairs-ilp",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops per second of `--seconds`. For the pairs workloads this is the
    /// untraced throughput measured on a contended 2-vCPU x86-64 host
    /// (about 41 and 4.1 ops/s), so the timed phase takes about
    /// `--seconds` there. The serve stream's rate is set below its
    /// measured ~95 requests/s, because its run also replays the stream
    /// on the oracle. `--seconds` fixes the op count, not the duration:
    /// a faster host finishes the same ops sooner.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::PairsSim => 40,
            Workload::PairsIlp => 4,
            Workload::ServeMixed => 80,
        }
    }
}

/// Set-ups per run; `setup_s` is the fastest of them. A set-up is a
/// few to tens of milliseconds of one-shot work, so one slowed by the
/// host says little; the fastest of 21 repeats best from run to run.
pub(crate) const SETUPS: usize = 21;

/// The share of a run's windows, the slowest, that `op_p50_ms` and
/// `ops_per_s` are read from.
pub(crate) const SLOW_SHARE: f64 = 0.1;

/// What one run executes.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Number of timed ops.
    pub ops: usize,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("bound_ratio_mean", "ratio"),
    ("ilp_share", "share"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("tc27x-sim.busy_ms", "ms"),
    ("tc27x-sim.cycles", "count"),
    ("tc27x-sim.host_ns_per_cycle", "ns"),
    ("mbta.cache_hit_share", "share"),
    ("core.ilp_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.closed_form_us", "us"),
    ("ilp.nodes", "count"),
    ("serve.answer_ms.low", "ms"),
    ("serve.answer_ms.sc1", "ms"),
    ("serve.answer_ms.sc2", "ms"),
    ("mbta.store_put_ms", "ms"),
    ("mbta.store_replay_s", "s"),
    ("serve.overhead_ms", "ms"),
    ("serve.hit_share", "share"),
    ("serve.shed", "count"),
    ("residual_share", "share"),
    ("trace_overhead", "share"),
];

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed: an error, a soundness violation or an output
    /// mismatch.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// FNV-1a digest of every op's deterministic output.
    pub digest: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Renders the result object that ends the output.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Builds a metric list in the order of `table`, taking values from
/// `values` (missing names read 0).
pub(crate) fn metrics_from(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (no op could run); op failures are counted in the
/// report instead.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    if config.ops == 0 {
        return Err("a run needs at least one op".to_string());
    }
    match config.workload {
        Workload::PairsSim | Workload::PairsIlp => pairs::run(config),
        Workload::ServeMixed => serve_mixed::run(config),
    }
}

/// Collects failures: counts all, keeps the first few messages.
#[derive(Clone, Debug, Default)]
pub(crate) struct Failures {
    count: u64,
    messages: Vec<String>,
}

impl Failures {
    /// Records one failed op.
    pub(crate) fn push(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Failed ops so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The kept messages.
    pub(crate) fn into_messages(self) -> Vec<String> {
        self.messages
    }
}

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99/p95/p90/p80 with at least ten samples above its
/// nearest rank at `n` samples (p80 when none qualifies).
pub(crate) fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 80.0]
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(80.0)
}

/// The latencies of the slowest tenth ([`SLOW_SHARE`]) of a run's
/// windows. `latencies` are in op order and cut into consecutive windows
/// of `window` ops, each with the same op mix (one or more rounds over
/// the cells; a stratified block of the request deck). A window's cost
/// is the sum of its latencies. A partial last window is left out; a
/// run shorter than one window is one window.
///
/// The host's slow state turns up in nearly every run of twenty seconds,
/// the quiet one only in some, so the slowest windows are the figure
/// that repeats from run to run.
pub(crate) fn contended(latencies: &[f64], window: usize) -> Vec<f64> {
    let mut windows: Vec<&[f64]> = latencies.chunks_exact(window.max(1)).collect();
    if windows.is_empty() {
        windows.push(latencies);
    }
    let cost = |w: &[f64]| w.iter().sum::<f64>();
    windows.sort_by(|a, b| cost(b).total_cmp(&cost(a)));
    let keep = ((windows.len() as f64 * SLOW_SHARE).ceil() as usize).max(1);
    windows[..keep].concat()
}

/// The latency metrics of a closed-loop run with `clients` concurrent
/// ops: `(op_p50_ms, op_tail_ms, ops_per_s)`. The median and the
/// throughput come from the slowest windows ([`contended`]); the
/// throughput is Little's law over them, `clients ÷ mean latency`. The
/// tail is over every op: it is made of slow-state ops already.
pub(crate) fn latency_metrics(
    latencies_ms: &[f64],
    window: usize,
    clients: usize,
) -> (f64, f64, f64) {
    let mut all = latencies_ms.to_vec();
    all.sort_by(f64::total_cmp);
    let mut slow = contended(latencies_ms, window);
    slow.sort_by(f64::total_cmp);
    let mean_s = slow.iter().sum::<f64>() / 1e3 / slow.len().max(1) as f64;
    (
        percentile(&slow, 50.0),
        percentile(&all, tail_percentile(all.len())),
        ratio(clients as f64, mean_s),
    )
}

/// Median of a sample (0 when empty).
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The smallest of a sample (0 when empty): the figure `setup_s`
/// reports.
pub(crate) fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether op `index` of a traced run is traced: traced and untraced
/// rounds of `round` ops alternate, so `trace_overhead` compares two
/// halves of the same op mix.
pub(crate) fn traced_op(trace: bool, index: usize, round: usize) -> bool {
    trace && (index / round.max(1)).is_multiple_of(2)
}

/// `traced p50 / untraced p50 − 1` over a traced run's op latencies.
pub(crate) fn trace_overhead(latencies: &[f64], traced: &[bool]) -> f64 {
    let pick = |want: bool| -> Vec<f64> {
        latencies
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(&l, _)| l)
            .collect()
    };
    ratio(median(&pick(true)), median(&pick(false))) - 1.0
}

/// A seeded Fisher–Yates shuffle.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut tc27x_sim::rng::SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Splits `total` items over `weights` in proportion, largest
/// remainders first, so the parts always sum to `total`.
pub(crate) fn apportion(total: usize, weights: &[u32]) -> Vec<usize> {
    let sum: u64 = weights.iter().map(|&w| w as u64).sum();
    if sum == 0 {
        return vec![0; weights.len()];
    }
    let mut parts: Vec<usize> = weights
        .iter()
        .map(|&w| (total as u64 * w as u64 / sum) as usize)
        .collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((total as u64 * weights[i] as u64) % sum));
    let mut left = total - parts.iter().sum::<usize>();
    for i in order {
        if left == 0 {
            break;
        }
        parts[i] += 1;
        left -= 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2_000), 99.0);
        assert_eq!(tail_percentile(400), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(150), 90.0);
        assert_eq!(tail_percentile(20), 80.0);
    }

    #[test]
    fn contended_keeps_the_slowest_tenth_of_windows() {
        let lat = [1.0, 1.0, 5.0, 5.0, 1.0, 1.0, 2.0, 2.0, 1.0];
        assert_eq!(contended(&lat, 2), vec![5.0, 5.0]);
        assert_eq!(contended(&lat[..3], 4), lat[..3].to_vec());
        let (p50, tail, rate) = latency_metrics(&lat, 2, 2);
        assert_eq!((p50, tail), (5.0, 5.0));
        assert!((rate - 400.0).abs() < 1e-9);
    }

    #[test]
    fn apportion_sums_to_total() {
        assert_eq!(apportion(10, &[1, 1, 1]).iter().sum::<usize>(), 10);
        assert_eq!(apportion(100, &[20, 30, 50]), vec![20, 30, 50]);
    }

    #[test]
    fn json_numbers_are_finite_and_keep_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789), "0.123456789");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
