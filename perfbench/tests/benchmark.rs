//! The benchmark's own tests: metric names and units, determinism of
//! the deterministic outputs, and the output checkers.

use perfbench::pairs::{check_row, PairRow};
use perfbench::serve_mixed::check_response;
use perfbench::{run, Report, RunConfig, Workload, END_TO_END, PER_LAYER};

fn short(workload: Workload, seed: u64, trace: bool) -> Report {
    let ops = match workload {
        Workload::PairsSim => 8,
        Workload::PairsIlp => 2,
        Workload::ServeMixed => 24,
    };
    let report = run(&RunConfig {
        workload,
        seed,
        ops,
        trace,
    })
    .expect("set-up succeeds");
    assert_eq!(report.failed, 0, "{:?}", report.failures);
    assert_eq!(report.attempted, ops as u64);
    report
}

fn names_and_units(report: &Report) -> Vec<(&'static str, &'static str)> {
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_metric_is_printed_by_name_and_unit() {
    for workload in Workload::ALL {
        let report = short(workload, 3, false);
        assert_eq!(names_and_units(&report), END_TO_END.to_vec());
        let json = report.to_json();
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": "))
                    && json.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from {json}"
            );
        }
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        assert!(report.metric("op_p50_ms").is_some_and(|v| v > 0.0));

        let traced = short(workload, 3, true);
        assert_eq!(names_and_units(&traced), PER_LAYER.to_vec());
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(obs::json::Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = match doc.get("workloads") {
        Some(obs::json::Json::Arr(items)) => items
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()).map(str::to_string))
            .collect(),
        _ => panic!("BENCHMARK.json has no workloads"),
    };
    assert!(!workloads.is_empty());
    for name in &workloads {
        assert!(Workload::parse(name).is_some(), "unknown workload `{name}`");
    }
}

#[test]
fn one_seed_repeats_deterministic_metrics_and_digest() {
    for workload in Workload::ALL {
        let a = short(workload, 7, false);
        let b = short(workload, 7, false);
        assert_eq!(a.digest, b.digest, "{} digest moved", workload.name());
        for name in ["bound_ratio_mean", "ilp_share"] {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
        let c = short(workload, 8, false);
        assert_ne!(a.digest, c.digest, "{} ignores the seed", workload.name());
    }
    for workload in [Workload::PairsSim, Workload::PairsIlp] {
        let a = short(workload, 7, true);
        let b = short(workload, 7, true);
        assert_eq!(a.digest, b.digest);
        for name in ["tc27x-sim.cycles", "ilp.nodes"] {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
    }
}

fn row(observed: u64, bound: u64) -> PairRow {
    PairRow {
        cell: 0,
        intensity: 0,
        iso: 10_000,
        load_ccnt: 5_000,
        observed,
        ftc: bound,
        ilp: bound,
        ideal: bound,
        fsb: bound,
        eval: bound,
        fallback: false,
        nodes: 1,
    }
}

#[test]
fn checker_fails_a_bound_below_the_observed_cycles() {
    assert!(check_row(&row(10_000, 10_000), None).is_ok());
    assert!(check_row(&row(10_001, 10_000), None).is_err());
    let mut under = row(10_500, 12_000);
    under.ilp = 10_499;
    assert!(
        check_row(&under, None).is_err(),
        "one unsound model fails the op"
    );
}

#[test]
fn checker_fails_a_row_that_differs_from_the_golden() {
    let golden = "intensity_permille,ftc_ratio,ilp_ratio,ideal_ratio,fsb_ratio,observed_ratio\n\
                  0,1.0000,1.0000,1.0000,1.0000,1.0000\n";
    assert!(check_row(&row(10_000, 10_000), Some(golden)).is_ok());
    assert!(check_row(&row(10_000, 10_010), Some(golden)).is_err());
}

#[test]
fn checker_fails_an_altered_response_body() {
    let body = r#"{"id":"q1","tenant":"c1","status":"ok","kind":"bound","ratio":1.25}"#.to_string();
    assert!(check_response(1, &Ok(body.clone()), &Ok(body.clone())).is_ok());
    let altered = body.replace("1.25", "1.24");
    assert!(check_response(1, &Ok(altered), &Ok(body.clone())).is_err());
    assert!(check_response(1, &Err("reset".into()), &Ok(body)).is_err());
}
