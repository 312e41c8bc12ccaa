//! `ci.sh` exits with its stages' status: a stage that passes must not
//! be turned into a failure by the script's own `EXIT` trap.

use std::path::Path;
use std::process::{Command, Stdio};

fn ci_script() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci.sh");
    std::fs::read_to_string(path).unwrap()
}

/// The `cleanup` function exactly as `ci.sh` defines it.
fn cleanup_definition(script: &str) -> String {
    let start = script.find("cleanup() {").expect("ci.sh defines cleanup");
    let mut depth = 0;
    for (i, c) in script[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return script[start..=start + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced cleanup definition");
}

/// A stage that never made a smoke dir (`lint`, `test`, `perf`) ends
/// with an empty `SMOKE_DIR`; the trap must still leave status 0, and a
/// stage's own failure status must still come through.
#[test]
fn the_exit_trap_keeps_the_stage_status() {
    let cleanup = cleanup_definition(&ci_script());
    let status = |body: &str| {
        Command::new("bash")
            .arg("-c")
            .arg(format!(
                "set -euo pipefail\nSMOKE_DIR=\"\"\n{cleanup}\ntrap cleanup EXIT\n{body}"
            ))
            .stdout(Stdio::null())
            .status()
            .unwrap()
            .code()
    };
    assert_eq!(status("echo passed"), Some(0));
    assert_eq!(status("exit 3"), Some(3));
    let dir = std::env::temp_dir().join(format!("ci-trap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    assert_eq!(
        status(&format!("SMOKE_DIR={}; echo passed", dir.display())),
        Some(0)
    );
    assert!(!dir.exists(), "the trap removes the smoke dir");
}

/// The whole lint stage (rustfmt, clippy, source greps): slow, so run
/// it on demand with `--ignored`.
#[test]
#[ignore]
fn ci_lint_exits_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new("bash")
        .arg("ci.sh")
        .arg("lint")
        .current_dir(root)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CI stage 'lint' passed"), "{stdout}");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
}
