//! `journal-inspect` — lenient record-by-record dump of `mbta::store`
//! record logs (campaign journals included) for chaos triage.
//!
//! ```text
//! journal-inspect [--summary] FILE...
//! ```
//!
//! For each file: a one-line verdict (format, line/intact counts,
//! torn-tail position or interior-corruption flag), then — with
//! `--summary` — a counts line (data-record count, CRC-ok ratio in
//! permille, torn-tail byte offset), otherwise one line per record
//! with byte offset, length, CRC status, key and body. Unlike
//! `Store::open`, which reads through the same scanner, this never
//! modifies the file and never stops at the first problem, so a file
//! the recovery path refuses can still be examined.
//!
//! Exit status: 0 when every file is clean, 1 when any file has a torn
//! tail or interior corruption, 2 on usage or I/O errors.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mbta::inspect::{inspect_path, render};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: journal-inspect [--summary] FILE...";

fn main() -> ExitCode {
    let mut summary = false;
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--summary" => summary = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut damaged = false;
    for path in &files {
        match inspect_path(path) {
            Ok(report) => {
                print!("{}", render(&report, summary));
                damaged |= report.interior_bad > 0 || report.torn_tail.is_some();
            }
            Err(e) => {
                eprintln!("journal-inspect: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    if damaged {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
