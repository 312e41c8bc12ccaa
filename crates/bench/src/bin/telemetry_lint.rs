//! Schema lint for telemetry sinks — the CI gate behind the
//! determinism contract.
//!
//! ```text
//! telemetry_lint <file.jsonl> [--deny-warn] [--det-diff <other.jsonl>]
//! telemetry_lint --chrome <trace.json>
//! ```
//!
//! JSONL mode validates every record: it must parse, carry a known `k`
//! kind and a boolean `det`, and — the load-bearing check — a
//! `det:true` record must not contain wall-clock time, worker counts or
//! the timing-kernel choice anywhere in it (those belong exclusively to
//! the `det:false` profile record). `--deny-warn` additionally fails on
//! any `warn` record, so a golden CI run proves itself warning-free.
//! `--det-diff <other>` asserts the two files' deterministic subsets
//! are byte-identical — the cross-`--jobs` / cross-engine contract.
//!
//! Chrome mode validates a `trace_event` export: one JSON document with
//! a `traceEvents` array whose span events have the complete-span
//! phase, and per-track monotonically non-decreasing timestamps.

use obs::json::{parse, Json};

/// Record kinds the JSONL schema admits.
const KINDS: &[&str] = &[
    "meta", "span", "counter", "hist", "matrix", "table", "warn", "profile",
];

/// Keys that must never appear (at any depth) in a deterministic
/// record: they encode host/run conditions, not logical results.
const NONDET_ONLY_KEYS: &[&str] = &["wall_seconds", "jobs", "engine"];

/// Recursively searches `v` for any forbidden key.
fn find_forbidden(v: &Json) -> Option<&'static str> {
    match v {
        Json::Obj(pairs) => pairs.iter().find_map(|(k, inner)| {
            NONDET_ONLY_KEYS
                .iter()
                .find(|f| *f == k)
                .copied()
                .or_else(|| find_forbidden(inner))
        }),
        Json::Arr(items) => items.iter().find_map(find_forbidden),
        _ => None,
    }
}

/// Lints one JSONL document; returns the deterministic subset (for
/// `--det-diff`) or the first violation as an error message.
fn lint_jsonl(content: &str, deny_warn: bool) -> Result<String, String> {
    let mut det_subset = String::new();
    let mut records = 0usize;
    for (lineno, line) in content.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: blank line inside a JSONL stream"));
        }
        let v = parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let kind = v
            .get("k")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing string field `k`"))?;
        if !KINDS.contains(&kind) {
            return Err(format!("line {n}: unknown record kind `{kind}`"));
        }
        let det = v
            .get("det")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("line {n}: missing boolean field `det`"))?;
        if kind == "profile" && det {
            return Err(format!("line {n}: profile records must be det:false"));
        }
        if det {
            if let Some(key) = find_forbidden(&v) {
                return Err(format!(
                    "line {n}: deterministic record carries `{key}` \
                     (host/run data belongs to the profile record)"
                ));
            }
            det_subset.push_str(line);
            det_subset.push('\n');
        }
        if deny_warn && kind == "warn" {
            return Err(format!("line {n}: warning record present: {line}"));
        }
        records += 1;
    }
    if records == 0 {
        return Err("empty telemetry stream".to_string());
    }
    Ok(det_subset)
}

/// Validates a Chrome `trace_event` document.
fn lint_chrome(content: &str) -> Result<usize, String> {
    let v = parse(content).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut last_ts: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph != "X" {
            continue;
        }
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing `tid`"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing `ts`"))?;
        if e.get("dur").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i}: missing `dur`"));
        }
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing `name`"));
        }
        if last_ts.get(&tid).is_some_and(|&prev| ts < prev) {
            return Err(format!("event {i}: track {tid} timestamps went backwards"));
        }
        last_ts.insert(tid, ts);
        spans += 1;
    }
    if spans == 0 {
        return Err("trace contains no span events".to_string());
    }
    Ok(spans)
}

fn run(args: &[String]) -> Result<String, String> {
    let chrome = args.iter().any(|a| a == "--chrome");
    let deny_warn = args.iter().any(|a| a == "--deny-warn");
    let det_diff = match args.iter().position(|a| a == "--det-diff") {
        Some(i) => Some(
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or("--det-diff requires a path")?,
        ),
        None => None,
    };
    let path = args
        .iter()
        .skip(1)
        .zip(args.iter())
        .filter(|(v, prev)| !v.starts_with("--") && *prev != "--det-diff")
        .map(|(v, _)| v)
        .next()
        .ok_or("usage: telemetry_lint [--chrome] <file> [--deny-warn] [--det-diff <other>]")?;
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    if chrome {
        let spans = lint_chrome(&content)?;
        return Ok(format!("{path}: valid Chrome trace, {spans} span event(s)"));
    }

    let det = lint_jsonl(&content, deny_warn)?;
    if let Some(other) = det_diff {
        let other_content =
            std::fs::read_to_string(other).map_err(|e| format!("cannot read {other}: {e}"))?;
        let other_det = lint_jsonl(&other_content, deny_warn)?;
        if det != other_det {
            let diverging = det
                .lines()
                .zip(other_det.lines())
                .position(|(a, b)| a != b)
                .map(|i| format!("first divergence at det record {}", i + 1))
                .unwrap_or_else(|| "det subsets differ in length".to_string());
            return Err(format!(
                "deterministic subsets of {path} and {other} differ ({diverging})"
            ));
        }
        return Ok(format!(
            "{path}: schema OK; det subset identical to {other} ({} record(s))",
            det.lines().count()
        ));
    }
    Ok(format!(
        "{path}: schema OK ({} det record(s))",
        det.lines().count()
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(summary) => println!("{summary}"),
        Err(message) => {
            eprintln!("telemetry_lint: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_stream_and_rejects_leaks() {
        let good = concat!(
            "{\"k\":\"meta\",\"det\":true,\"command\":\"x\"}\n",
            "{\"k\":\"span\",\"det\":true,\"id\":\"a\",\"ts\":0,\"dur\":5}\n",
            "{\"k\":\"profile\",\"det\":false,\"jobs\":4,\"wall_seconds\":0.1}\n",
        );
        let det = lint_jsonl(good, true).unwrap();
        assert_eq!(det.lines().count(), 2, "profile excluded from det subset");

        let leak = "{\"k\":\"counter\",\"det\":true,\"wall_seconds\":1.0}\n";
        assert!(lint_jsonl(leak, false)
            .unwrap_err()
            .contains("wall_seconds"));

        let nested_leak = "{\"k\":\"span\",\"det\":true,\"args\":{\"jobs\":2}}\n";
        assert!(lint_jsonl(nested_leak, false).is_err());

        let det_profile = "{\"k\":\"profile\",\"det\":true}\n";
        assert!(lint_jsonl(det_profile, false).is_err());

        let unknown = "{\"k\":\"mystery\",\"det\":true}\n";
        assert!(lint_jsonl(unknown, false).is_err());

        let warn = "{\"k\":\"warn\",\"det\":true,\"code\":\"x\",\"count\":1}\n";
        assert!(lint_jsonl(warn, false).is_ok());
        assert!(lint_jsonl(warn, true).is_err());

        let matrix = "{\"k\":\"matrix\",\"det\":true,\"name\":\"attribution.wait\",\
                      \"rows\":[\"lmu/c0\"],\"cols\":[\"c1\"],\"cells\":[11]}\n";
        assert!(lint_jsonl(matrix, true).is_ok());
        let table = "{\"k\":\"table\",\"det\":true,\"name\":\"tightness.sc1\",\
                     \"cols\":[\"bound\"],\"rows\":[[3200]]}\n";
        assert!(lint_jsonl(table, true).is_ok());
    }

    #[test]
    fn chrome_lint_checks_structure_and_monotonicity() {
        let good = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"x"}},
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":5,"name":"a","args":{}},
            {"ph":"X","pid":1,"tid":1,"ts":5,"dur":3,"name":"b","args":{}}
        ],"displayTimeUnit":"ms"}"#;
        assert_eq!(lint_chrome(good).unwrap(), 2);

        let backwards = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":9,"dur":5,"name":"a"},
            {"ph":"X","pid":1,"tid":1,"ts":2,"dur":3,"name":"b"}
        ]}"#;
        assert!(lint_chrome(backwards).unwrap_err().contains("backwards"));

        assert!(lint_chrome("{}").is_err());
        assert!(lint_chrome(r#"{"traceEvents":[]}"#).is_err());
    }

    #[test]
    fn real_streams_pass_the_lint() {
        let t = mbta::Telemetry::new("lint-self-test");
        t.record_solve("solve:a", 10, false);
        // A job with attribution stats, so the stream carries matrix
        // records through the lint.
        let mut stats = tc27x_sim::SimStats::default();
        stats.attribution.charge(
            tc27x_sim::Target::Lmu.index(),
            0,
            1,
            tc27x_sim::Operation::Data,
            11,
        );
        let job = mbta::SimJob::Isolation {
            spec: workloads::control_loop(
                tc27x_sim::DeploymentScenario::Scenario1,
                tc27x_sim::CoreId(0),
                1,
            ),
            core: tc27x_sim::CoreId(0),
        };
        t.record_job(7, &job, 100, Some(&stats));
        t.record_engine(&mbta::EngineReport {
            jobs: 2,
            simulations_run: 1,
            cache_hits: 0,
            cache_misses: 1,
            wall_seconds: 0.25,
            spec_hashes: 1,
            tail_recordings: 0,
            tail_splices: 0,
            ..mbta::EngineReport::default()
        });
        let jsonl = t.render(mbta::Format::Jsonl);
        lint_jsonl(&jsonl, true).unwrap();
        let chrome = t.render(mbta::Format::Chrome);
        lint_chrome(&chrome).unwrap();
    }
}
