//! Shard-level fault injection against an undisturbed oracle.
//!
//! Each test wires a seeded [`dse::ShardChaos`] plan into the worker
//! processes and checks the supervisor either recovers to the oracle's
//! exact curve bytes, or — when a shard is made permanently hostile —
//! degrades loudly: partial status, explicit coverage manifest, and a
//! distinct exit code from the supervisor binary.

use dse::{supervise, DseConfig, ShardChaos, SupervisorConfig};
use mbta::Backoff;
use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> DseConfig {
    DseConfig {
        seed: 7,
        utils: 5,
        sets: 6,
        tasks: 3,
        ..Default::default()
    }
}

fn sup(cfg: DseConfig, dir: PathBuf, shards: u32) -> SupervisorConfig {
    let mut sup = SupervisorConfig::new(cfg, dir, PathBuf::from(env!("CARGO_BIN_EXE_dse-worker")));
    sup.shards = shards;
    sup.jobs = shards;
    // Retries should not dawdle in tests.
    sup.backoff = Backoff {
        base_millis: 0,
        ..Default::default()
    };
    sup
}

/// The undisturbed run's curves. `tag` names its state dir: the tests
/// run concurrently, and a shared dir would be wiped under a running
/// oracle by the next test's `scratch`.
fn oracle_curves(cfg: &DseConfig, shards: u32, tag: &str) -> String {
    let report = supervise(&sup(cfg.clone(), scratch(&format!("oracle_{tag}")), shards)).unwrap();
    assert!(report.coverage.is_complete());
    report.curves_text
}

#[test]
fn seeded_kills_and_torn_tails_recover_to_oracle_bytes() {
    let cfg = small_cfg();
    let oracle = oracle_curves(&cfg, 2, "kill");

    let mut sup = sup(cfg, scratch("kill"), 2);
    sup.retry.max_attempts = 10;
    sup.chaos = Some(ShardChaos {
        seed: 11,
        kill_permille: 60,
        stall_permille: 0,
        tear_permille: 700,
        only_shard: None,
    });
    let report = supervise(&sup).unwrap();
    assert!(report.coverage.is_complete(), "{}", report.manifest_text);
    assert_eq!(report.curves_text, oracle);
    let total_attempts: u32 = report.outcomes.iter().map(|o| o.attempts).sum();
    assert!(
        total_attempts > 2,
        "chaos plan drew no kills (attempts {total_attempts}); pick a livelier seed"
    );
}

#[test]
fn stalled_worker_trips_watchdog_and_recovers() {
    let cfg = small_cfg();
    let oracle = oracle_curves(&cfg, 2, "stall");

    let mut sup = sup(cfg, scratch("stall"), 2);
    sup.retry.max_attempts = 10;
    sup.watchdog_millis = 700;
    sup.chaos = Some(ShardChaos {
        seed: 1,
        kill_permille: 0,
        stall_permille: 40,
        tear_permille: 0,
        only_shard: None,
    });
    let report = supervise(&sup).unwrap();
    assert!(report.coverage.is_complete(), "{}", report.manifest_text);
    assert_eq!(report.curves_text, oracle);
    let total_attempts: u32 = report.outcomes.iter().map(|o| o.attempts).sum();
    assert!(
        total_attempts > 2,
        "chaos plan drew no stalls (attempts {total_attempts}); pick a livelier seed"
    );
}

#[test]
fn exhausted_shard_degrades_to_loud_partial() {
    let cfg = small_cfg();
    let mut sup = sup(cfg, scratch("exhaust"), 2);
    sup.retry.max_attempts = 2;
    sup.chaos = Some(ShardChaos {
        seed: 1,
        kill_permille: 1000,
        stall_permille: 0,
        tear_permille: 0,
        only_shard: Some(1),
    });
    let report = supervise(&sup).unwrap();
    assert!(report.partial);
    assert_eq!(report.coverage.failed, vec![1]);
    assert_eq!(report.coverage.completed, vec![0]);
    assert!(report.coverage.fraction() < 1.0);
    assert!(
        report
            .manifest_text
            .contains("shard 0001 FAILED attempts 2"),
        "{}",
        report.manifest_text
    );
    assert!(report.manifest_text.contains("# status partial"));
    // Uncovered levels must render as "-", never as fake zeros.
    assert!(report.curves_text.contains('-') || report.coverage.covered_points > 0);
}

#[test]
fn supervisor_binary_exits_3_on_partial_coverage() {
    let dir = scratch("exit3");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dse-supervisor"))
        .args(["--state-dir", dir.to_str().unwrap()])
        .args(["--shards", "2", "--jobs", "2"])
        .args(["--seed", "7", "--utils", "5", "--sets", "6", "--tasks", "3"])
        .args(["--max-attempts", "2", "--backoff-ms", "0"])
        .args([
            "--chaos-seed",
            "1",
            "--chaos-kill",
            "1000",
            "--chaos-shard",
            "1",
        ])
        .args(["--worker-bin", env!("CARGO_BIN_EXE_dse-worker")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    // The progress summary rides on stderr, never on the artifact
    // stream: deterministic rows first, wall-clock timing after.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run summary (deterministic)"), "{err}");
    assert!(err.contains("shard 0001:"), "{err}");
    assert!(err.contains("FAILED"), "{err}");
    assert!(err.contains("coverage:"), "{err}");
    assert!(err.contains("retries:"), "{err}");
    assert!(err.contains("points/s"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("points/s"),
        "wall rate on stdout: {stdout}"
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
    assert!(manifest.contains("# status partial"), "{manifest}");
    assert!(manifest.contains("FAILED"), "{manifest}");
    assert!(dir.join("curves.txt").exists());
}

#[test]
fn duplicate_and_stale_records_do_not_change_the_merge() {
    let cfg = small_cfg();
    let oracle = oracle_curves(&cfg, 2, "dup");

    let dir = scratch("dup");
    let report = supervise(&sup(cfg.clone(), dir.clone(), 2)).unwrap();
    assert_eq!(report.curves_text, oracle);

    // Simulate a worker that died after re-emitting an old record:
    // duplicate the last journal line of shard 0 and drop its done
    // marker so the resume path has to re-validate the shard.
    let store = dir.join("shard-0000.store");
    let text = std::fs::read_to_string(&store).unwrap();
    let last = text.lines().last().unwrap().to_string();
    std::fs::write(&store, format!("{text}{last}\n")).unwrap();
    std::fs::remove_file(dir.join("shard-0000.done")).unwrap();

    let mut resumed = sup(cfg, dir, 2);
    resumed.resume = true;
    let report = supervise(&resumed).unwrap();
    assert!(report.coverage.is_complete(), "{}", report.manifest_text);
    assert_eq!(
        report.curves_text, oracle,
        "a duplicated (stale) record must not perturb the merge"
    );
}
