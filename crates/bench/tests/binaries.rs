//! The artefact binaries at their command-line surface: the models
//! follow the simulated platform, and malformed input is rejected
//! before anything runs.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs a binary in its own scratch directory (artefact runs write
/// `BENCH_engine.json` to their working directory, and the tests run
/// concurrently).
fn run(bin: &str, args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bench-bin-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn figure4_models_the_simulated_platform() {
    let out = run(
        env!("CARGO_BIN_EXE_figure4"),
        &[
            "--platform",
            "tc27x-tdma",
            "--scenario",
            "sc1",
            "--jobs",
            "2",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let high = stdout
        .lines()
        .find(|l| l.starts_with("| H-Load"))
        .expect("H-Load row");
    // TDMA slot alignment makes fTC 6.75x; the TC27x round-robin
    // tables would print 2.94x for the same simulation.
    assert!(high.contains("| 6.75x ("), "{high}");
    assert!(
        !stdout.contains("Scenario 2  —  isolation"),
        "--scenario selects one panel"
    );
}

#[test]
fn malformed_arguments_fail_before_running() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let cases: &[(&str, &[&str], &str)] = &[
        (sweep, &["--scenario", "sc3"], "unknown scenario `sc3`"),
        (
            sweep,
            &["--platfrom", "ahb2"],
            "unknown argument `--platfrom`",
        ),
        (
            sweep,
            &["--platform", "vax"],
            "known platforms: tc27x, tc27x-tdma, ahb2",
        ),
        (
            env!("CARGO_BIN_EXE_table3"),
            &["--bogus"],
            "unknown argument `--bogus`",
        ),
        (
            env!("CARGO_BIN_EXE_figure4"),
            &["--low-traffic"],
            "unknown argument `--low-traffic`",
        ),
    ];
    for (bin, args, fragment) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?} succeeded");
        assert!(stderr.contains(fragment), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    }
}

/// ahb2 has no second flash bank: every experiment must build its app
/// and contender on the engine's platform (`control_loop_on`,
/// `contender_on`), or the app's bank-2 code lands on an absent slave.
#[test]
fn ahb2_sweeps_and_table6_run() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    for scenario in ["sc1", "sc2"] {
        let out = run(
            sweep,
            &["--platform", "ahb2", "--scenario", scenario, "--jobs", "2"],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "sweep ahb2 {scenario}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), 12, "header + 11 rows: {stdout}");
    }
    let out = run(
        env!("CARGO_BIN_EXE_table6"),
        &["--platform", "ahb2", "--jobs", "2"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "table6 ahb2: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| Sc2 Core2 |"));
    // ahb2 runs the app on core 0 and the contender on core 1.
    assert!(
        stdout.contains("(application on core 0, H-Load contender on core 1)"),
        "{stdout}"
    );
}

#[test]
fn table6_names_the_tc27x_cores() {
    let out = run(env!("CARGO_BIN_EXE_table6"), &["--jobs", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout)
        .contains("(application on core 1, H-Load contender on core 2)"));
}

/// Table 2's probes address pf1 and the data flash, which ahb2 lacks:
/// the campaign is refused before any simulation, with one line that
/// names the platform and the absent slave.
#[test]
fn table2_refuses_a_platform_without_a_probed_slave() {
    let out = run(
        env!("CARGO_BIN_EXE_table2"),
        &["--platform", "ahb2", "--jobs", "2"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: platform ahb2 has no pf1 slave, which the Table 2 calibration campaign \
         probes\n"
    );
    assert!(out.stdout.is_empty(), "nothing printed before the refusal");
}
