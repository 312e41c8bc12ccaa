//! Perf-regression gate — diffs measured speedup ratios against
//! committed floors, and measured bench medians against absolute
//! ceilings.
//!
//! ```text
//! perf_gate [<baseline.json>] [<measured.json>] [<models.json>]
//! ```
//!
//! The baseline (default `BENCH_baseline.json`, committed at the repo
//! root) carries a `floors` object mapping ratio names to the minimum
//! acceptable tick-over-event speedup, plus a `meta.config_fingerprint`
//! pinning the engine configuration the floors were blessed against.
//! The measured file (default `BENCH_sim.json`, written by the
//! `sim_throughput` bench) carries the machine-readable `ratios`
//! member. Every floor must have a measured ratio at or above it; a
//! missing ratio is itself a failure, so silently dropping a benchmark
//! from the suite cannot pass the gate.
//!
//! The baseline may also carry a `ceilings_ms` object mapping bench
//! names to the largest acceptable median wall-clock time in
//! milliseconds. Those are checked against the `benchmarks` array of
//! the models file (default `BENCH_models.json`, written by the
//! `models` bench); a missing bench or an unreadable models file fails
//! the gate the same way a missing ratio does. A ratio floor catches an
//! engine that lost ground against its reference; a ceiling catches a
//! layer that got slower in absolute terms, such as the exact-ILP solve.
//!
//! The gate never stops at the first problem: every failing ratio is
//! collected and the full list reported at the end, together with a
//! re-bless hint when the baseline itself is the thing that is out of
//! date (missing file, or a config fingerprint that no longer matches
//! the measured engine).
//!
//! Floors are deliberately conservative relative to typical measured
//! ratios: shared CI runners are noisy, and the gate exists to catch
//! structural regressions (an engine suddenly slower than the reference
//! stepper, the memo losing its co-run advantage), not single-digit
//! percentage drift.

use obs::json::{parse, Json};
use std::process::ExitCode;

fn load_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

/// Loads a JSON document and extracts one named object member as
/// `(key, f64)` pairs, in file order.
fn load_member(path: &str, member: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = load_doc(path)?;
    let obj = doc
        .get(member)
        .ok_or_else(|| format!("{path}: missing \"{member}\" object"))?;
    number_pairs(path, member, obj)
}

/// The `(key, f64)` pairs of an object member, in file order.
fn number_pairs(path: &str, member: &str, obj: &Json) -> Result<Vec<(String, f64)>, String> {
    let Json::Obj(pairs) = obj else {
        return Err(format!("{path}: \"{member}\" is not an object"));
    };
    pairs
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|f| (k.clone(), f))
                .ok_or_else(|| format!("{path}: {member}.{k} is not a number"))
        })
        .collect()
}

/// The optional `ceilings_ms` member of the baseline (empty if absent).
fn load_ceilings(path: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = load_doc(path)?;
    match doc.get("ceilings_ms") {
        Some(obj) => number_pairs(path, "ceilings_ms", obj),
        None => Ok(Vec::new()),
    }
}

/// The median wall-clock time of every bench in a `BENCH_<group>.json`
/// file, in milliseconds.
fn load_medians_ms(path: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = load_doc(path)?;
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing \"benchmarks\" array"))?;
    benches
        .iter()
        .map(|b| {
            let name = b.get("name").and_then(Json::as_str);
            let median = b.get("median_ns").and_then(Json::as_f64);
            match (name, median) {
                (Some(n), Some(ns)) => Ok((n.to_string(), ns / 1e6)),
                _ => Err(format!("{path}: bench entry without name or median_ns")),
            }
        })
        .collect()
}

/// Checks every ceiling against the measured medians, printing one row
/// per ceiling and appending each violation to `failures`.
fn check_ceilings(ceilings: &[(String, f64)], models_path: &str, failures: &mut Vec<String>) {
    let medians = match load_medians_ms(models_path) {
        Ok(m) => m,
        Err(e) => {
            failures.push(format!("ceilings unchecked: {e}"));
            return;
        }
    };
    println!("perf gate: {models_path} vs ceilings_ms");
    println!("{:<32} {:>9} {:>9}  verdict", "bench", "ceiling", "median");
    for (name, ceiling) in ceilings {
        match medians.iter().find(|(k, _)| k == name) {
            Some((_, measured)) if measured <= ceiling => {
                println!("{name:<32} {ceiling:>9.3} {measured:>9.3}  ok");
            }
            Some((_, measured)) => {
                println!("{name:<32} {ceiling:>9.3} {measured:>9.3}  ABOVE CEILING");
                failures.push(format!(
                    "{name} (ceiling {ceiling:.3} ms, measured {measured:.3} ms)"
                ));
            }
            None => {
                println!("{name:<32} {ceiling:>9.3} {:>9}  MISSING", "-");
                failures.push(format!("{name} (missing from {models_path})"));
            }
        }
    }
}

/// Reads `meta.config_fingerprint` if the document carries one.
fn load_fingerprint(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse(&text).ok()?;
    doc.get("meta")?
        .get("config_fingerprint")?
        .as_str()
        .map(String::from)
}

const REBLESS_HINT: &str = "hint: if this change is intentional, re-bless BENCH_baseline.json: \
     copy the new ratios from BENCH_sim.json into \"floors\" (backed off for runner noise) and \
     update meta.config_fingerprint to the measured value; a bench above its \"ceilings_ms\" \
     entry got slower in absolute terms, so look for the regression before raising the ceiling";

fn run(baseline_path: &str, measured_path: &str, models_path: &str) -> Result<bool, String> {
    let floors = match load_member(baseline_path, "floors") {
        Ok(f) => f,
        Err(e) => {
            return Err(format!(
                "{e}\nhint: no usable baseline — create {baseline_path} with a \"floors\" object \
                 (seed it from the ratios in {measured_path}) and a meta.config_fingerprint, \
                 then commit it (\"re-bless\")"
            ));
        }
    };
    if floors.is_empty() {
        return Err(format!("{baseline_path}: \"floors\" object is empty"));
    }
    let ceilings = load_ceilings(baseline_path)?;
    let ratios = load_member(measured_path, "ratios")?;

    println!("perf gate: {measured_path} vs floors in {baseline_path}");
    println!("{:<32} {:>9} {:>9}  verdict", "ratio", "floor", "measured");
    let mut failures: Vec<String> = Vec::new();
    for (name, floor) in &floors {
        match ratios.iter().find(|(k, _)| k == name) {
            Some((_, measured)) if measured >= floor => {
                println!("{name:<32} {floor:>9.3} {measured:>9.3}  ok");
            }
            Some((_, measured)) => {
                println!("{name:<32} {floor:>9.3} {measured:>9.3}  BELOW FLOOR");
                failures.push(format!(
                    "{name} (floor {floor:.3}, measured {measured:.3}, delta {:+.3})",
                    measured - floor
                ));
            }
            None => {
                println!("{name:<32} {floor:>9.3} {:>9}  MISSING", "-");
                failures.push(format!("{name} (missing from {measured_path})"));
            }
        }
    }

    if !ceilings.is_empty() {
        check_ceilings(&ceilings, models_path, &mut failures);
    }

    // Staleness check: floors blessed against one engine configuration
    // are meaningless against another.
    let mut stale = false;
    match (
        load_fingerprint(baseline_path),
        load_fingerprint(measured_path),
    ) {
        (Some(base_fp), Some(meas_fp)) if base_fp != meas_fp => {
            stale = true;
            failures.push(format!(
                "config fingerprint mismatch: baseline blessed against {base_fp}, measured engine \
                 is {meas_fp}"
            ));
        }
        (None, Some(meas_fp)) => {
            // Old-format baseline: not a failure, but say how to fix.
            println!(
                "note: {baseline_path} carries no meta.config_fingerprint — add \
                 \"meta\": {{\"config_fingerprint\": \"{meas_fp}\"}} on the next re-bless"
            );
        }
        _ => {}
    }

    if failures.is_empty() {
        Ok(true)
    } else {
        eprintln!(
            "perf gate: {} failure(s):\n  - {}",
            failures.len(),
            failures.join("\n  - ")
        );
        if stale {
            eprintln!(
                "hint: the baseline fingerprint is stale — the engine configuration changed since \
                 the floors were blessed; re-bless BENCH_baseline.json against the new \
                 BENCH_sim.json if the change is intentional"
            );
        } else {
            eprintln!("{REBLESS_HINT}");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = args.first().map_or("BENCH_baseline.json", String::as_str);
    let measured = args.get(1).map_or("BENCH_sim.json", String::as_str);
    let models = args.get(2).map_or("BENCH_models.json", String::as_str);
    match run(baseline, measured, models) {
        Ok(true) => {
            println!("perf gate: all floors and ceilings hold");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("perf gate: FAILED — see the failure list above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Baselines without `ceilings_ms` never read the models file.
    const NO_MODELS: &str = "/nonexistent/models.json";

    fn write_tmp(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, body).expect("write tmp");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn gate_passes_when_ratios_meet_floors() {
        let b = write_tmp(
            "perf_gate_base_ok.json",
            "{\"floors\": {\"a\": 1.5, \"b\": 0.9}}",
        );
        let m = write_tmp(
            "perf_gate_meas_ok.json",
            "{\"ratios\": {\"a\": 2.0, \"b\": 0.9, \"extra\": 0.1}}",
        );
        assert_eq!(run(&b, &m, NO_MODELS), Ok(true));
    }

    #[test]
    fn gate_fails_below_floor_and_on_missing_ratio() {
        let b = write_tmp(
            "perf_gate_base_fail.json",
            "{\"floors\": {\"a\": 1.5, \"gone\": 1.0}}",
        );
        let m = write_tmp("perf_gate_meas_fail.json", "{\"ratios\": {\"a\": 1.4}}");
        assert_eq!(run(&b, &m, NO_MODELS), Ok(false));
    }

    #[test]
    fn gate_rejects_malformed_inputs() {
        let empty = write_tmp("perf_gate_empty.json", "{\"floors\": {}}");
        let m = write_tmp("perf_gate_meas_any.json", "{\"ratios\": {\"a\": 1.0}}");
        assert!(run(&empty, &m, NO_MODELS).is_err());
        let noobj = write_tmp("perf_gate_noobj.json", "{\"floors\": 3}");
        assert!(run(&noobj, &m, NO_MODELS).is_err());
        assert!(run("/nonexistent/base.json", &m, NO_MODELS).is_err());
    }

    #[test]
    fn missing_baseline_error_carries_rebless_hint() {
        let m = write_tmp("perf_gate_meas_hint.json", "{\"ratios\": {\"a\": 1.0}}");
        let err = run("/nonexistent/base.json", &m, NO_MODELS).unwrap_err();
        assert!(err.contains("re-bless"), "{err}");
    }

    #[test]
    fn matching_fingerprints_pass_and_mismatch_fails() {
        let b = write_tmp(
            "perf_gate_base_fp.json",
            "{\"meta\": {\"config_fingerprint\": \"aaaa\"}, \"floors\": {\"a\": 1.0}}",
        );
        let m_ok = write_tmp(
            "perf_gate_meas_fp_ok.json",
            "{\"meta\": {\"config_fingerprint\": \"aaaa\"}, \"ratios\": {\"a\": 2.0}}",
        );
        assert_eq!(run(&b, &m_ok, NO_MODELS), Ok(true));
        let m_stale = write_tmp(
            "perf_gate_meas_fp_stale.json",
            "{\"meta\": {\"config_fingerprint\": \"bbbb\"}, \"ratios\": {\"a\": 2.0}}",
        );
        assert_eq!(run(&b, &m_stale, NO_MODELS), Ok(false));
    }

    #[test]
    fn all_failures_are_collected_not_just_the_first() {
        let b = write_tmp(
            "perf_gate_base_multi.json",
            "{\"floors\": {\"a\": 1.5, \"b\": 2.0, \"c\": 1.0}}",
        );
        let m = write_tmp(
            "perf_gate_meas_multi.json",
            "{\"ratios\": {\"a\": 1.0, \"c\": 0.5}}",
        );
        // a below floor, b missing, c below floor — all three must fail
        // (exercised via the boolean; the list itself goes to stderr).
        assert_eq!(run(&b, &m, NO_MODELS), Ok(false));
    }

    #[test]
    fn ceilings_bound_the_measured_medians() {
        let b = write_tmp(
            "perf_gate_base_ceil.json",
            "{\"floors\": {\"a\": 1.0}, \"ceilings_ms\": {\"solve\": 25.0}}",
        );
        let m = write_tmp("perf_gate_meas_ceil.json", "{\"ratios\": {\"a\": 2.0}}");
        let models = |name: &str, median_ns: u64| {
            write_tmp(
                name,
                &format!(
                    "{{\"group\": \"models\", \"benchmarks\": [{{\"name\": \"solve\", \
                     \"median_ns\": {median_ns}, \"min_ns\": 1, \"max_ns\": 1, \"samples\": 1, \
                     \"iters_per_sample\": 1, \"elements\": 128}}]}}"
                ),
            )
        };
        let fast = models("perf_gate_models_fast.json", 5_000_000);
        assert_eq!(run(&b, &m, &fast), Ok(true));
        // A revert to a ~100 ms solve trips the 25 ms ceiling.
        let slow = models("perf_gate_models_slow.json", 100_000_000);
        assert_eq!(run(&b, &m, &slow), Ok(false));
        // A bench that vanished, or no models file at all, fails too.
        let other = write_tmp(
            "perf_gate_models_other.json",
            "{\"benchmarks\": [{\"name\": \"other\", \"median_ns\": 1}]}",
        );
        assert_eq!(run(&b, &m, &other), Ok(false));
        assert_eq!(run(&b, &m, NO_MODELS), Ok(false));
    }

    #[test]
    fn malformed_ceilings_are_rejected() {
        let b = write_tmp(
            "perf_gate_base_badceil.json",
            "{\"floors\": {\"a\": 1.0}, \"ceilings_ms\": {\"solve\": \"fast\"}}",
        );
        let m = write_tmp("perf_gate_meas_badceil.json", "{\"ratios\": {\"a\": 2.0}}");
        assert!(run(&b, &m, NO_MODELS).is_err());
    }
}
