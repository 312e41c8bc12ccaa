//! `contention-serve` refuses malformed flags before it binds or
//! replays anything.

use std::process::Command;

#[test]
fn zero_jobs_and_unknown_flags_are_refused() {
    let dir = std::env::temp_dir().join(format!("serve-args-{}", std::process::id()));
    let cases: &[(&[&str], &str)] = &[
        (&["--jobs", "0"], "--jobs must be at least 1"),
        (&["--platfrom", "ahb2"], "unknown argument `--platfrom`"),
        (&["--platform", "vax"], "known platforms"),
    ];
    for (args, fragment) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_contention-serve"))
            .arg("--state")
            .arg(&dir)
            .arg("--unix")
            .arg(dir.join("serve.sock"))
            .args(*args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} started the daemon");
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
        assert!(!dir.exists(), "{args:?} touched the state dir");
    }
}
