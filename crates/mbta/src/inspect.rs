//! Record-by-record inspection of journal and store files — the chaos
//! triage view.
//!
//! [`Store::open`](crate::Store::open) is deliberately opinionated: it
//! truncates torn tails and refuses interior corruption. When a
//! chaos run (or a real incident) leaves a suspicious file behind,
//! operators need the opposite — a **lenient, read-only dump** that
//! shows every line's checksum verdict, byte offset and length, and
//! where a torn tail starts, without modifying the file or stopping at
//! the first problem. That is what [`inspect_path`] provides and the
//! `journal-inspect` bin renders. Both read files through the same
//! scanner, so the verdicts here are the ones recovery acts on.

use crate::store::{parse_header, scan, LineState, CAMPAIGN_NAMESPACE};
use std::io;
use std::path::{Path, PathBuf};

/// Which on-disk format the header announces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A record log in the campaign namespace (either header).
    Journal,
    /// A record log in any other namespace.
    Store,
    /// No recognisable header (foreign or damaged file).
    Unknown,
}

impl FileKind {
    /// Display token.
    pub fn tag(self) -> &'static str {
        match self {
            FileKind::Journal => "journal",
            FileKind::Store => "store",
            FileKind::Unknown => "unknown",
        }
    }
}

/// One scanned line.
#[derive(Clone, Debug)]
pub struct RecordInfo {
    /// 1-based line number (line 1 is the header).
    pub line: usize,
    /// Byte offset of the line start within the file.
    pub offset: u64,
    /// Line length in bytes, trailing newline excluded.
    pub length: usize,
    /// Whether the line ended with a newline (a missing one on the
    /// final line is the signature of a torn append).
    pub terminated: bool,
    /// Whether the `<crc16hex> <body>` frame verified.
    pub crc_ok: bool,
    /// The record key parsed from the body's leading field (`None` for
    /// the header and for lines whose body is not a record).
    pub key: Option<u64>,
    /// The record body (checksum field stripped) when the frame
    /// verified, otherwise the raw line.
    pub body: String,
}

/// Where a torn tail starts, when the final line is damaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset at which recovery would truncate the file.
    pub offset: u64,
    /// Bytes from there to end-of-file.
    pub bytes: u64,
}

/// The full scan result of one file.
#[derive(Clone, Debug)]
pub struct InspectReport {
    /// The inspected path.
    pub path: PathBuf,
    /// Format announced by the header.
    pub kind: FileKind,
    /// Every line, in file order (header included).
    pub records: Vec<RecordInfo>,
    /// Lines whose checksum verified (header included).
    pub intact: usize,
    /// Lines whose checksum failed *before* the final line — interior
    /// corruption, which recovery refuses.
    pub interior_bad: usize,
    /// Damaged or unterminated final line — what recovery would
    /// truncate away.
    pub torn_tail: Option<TornTail>,
}

impl InspectReport {
    /// One-line verdict for the file.
    pub fn verdict(&self) -> String {
        let state = if self.interior_bad > 0 {
            "INTERIOR CORRUPTION (recovery would refuse this file)".to_string()
        } else if let Some(t) = self.torn_tail {
            format!(
                "torn tail at byte {} ({} byte(s); recovery would truncate)",
                t.offset, t.bytes
            )
        } else {
            "clean".to_string()
        };
        format!(
            "{}: {} · {} line(s), {} intact · {state}",
            self.path.display(),
            self.kind.tag(),
            self.records.len(),
            self.intact,
        )
    }

    /// One grep-stable counts line for `--summary` mode: data-record
    /// count (header excluded), CRC-ok ratio over every line, and the
    /// byte offset recovery would truncate at (`-` when the tail is
    /// whole).
    pub fn summary_line(&self) -> String {
        let lines = self.records.len();
        let crc_ok = self.records.iter().filter(|r| r.crc_ok).count();
        let permille = (crc_ok * 1000).checked_div(lines).unwrap_or(1000);
        let tail = match self.torn_tail {
            Some(t) => t.offset.to_string(),
            None => "-".to_string(),
        };
        format!(
            "  records {} · crc-ok {crc_ok}/{lines} ({permille} permille) · torn-tail offset {tail}",
            lines.saturating_sub(1),
        )
    }
}

/// Scans `path` without modifying it. Never fails on content — only on
/// I/O. An empty file yields an empty report of [`FileKind::Unknown`].
///
/// # Errors
///
/// Propagates file-read errors.
pub fn inspect_path(path: &Path) -> io::Result<InspectReport> {
    let raw = std::fs::read(path)?;
    let text = String::from_utf8_lossy(&raw);
    let lines: Vec<_> = scan(&text).collect();
    let kind = match lines.first().map(|l| l.frame.as_deref().map(parse_header)) {
        Some(Ok(Ok((CAMPAIGN_NAMESPACE, _)))) => FileKind::Journal,
        Some(Ok(Ok(_))) => FileKind::Store,
        _ => FileKind::Unknown,
    };
    let mut intact = 0usize;
    let mut interior_bad = 0usize;
    let mut torn_tail = None;
    let mut records = Vec::with_capacity(lines.len());
    for line in &lines {
        match line.state {
            LineState::Intact => intact += 1,
            LineState::Damaged => interior_bad += 1,
            LineState::TornTail => {
                torn_tail = Some(TornTail {
                    offset: line.offset,
                    bytes: raw.len() as u64 - line.offset,
                })
            }
        }
        let body = *line.frame.as_ref().unwrap_or(&line.text);
        let key = (line.number > 1)
            .then(|| body.split(' ').next())
            .flatten()
            .filter(|f| f.len() == 16)
            .and_then(|f| u64::from_str_radix(f, 16).ok());
        records.push(RecordInfo {
            line: line.number,
            offset: line.offset,
            length: line.text.len(),
            terminated: line.terminated,
            crc_ok: line.frame.is_ok(),
            key,
            body: body.to_string(),
        });
    }

    Ok(InspectReport {
        path: path.to_path_buf(),
        kind,
        records,
        intact,
        interior_bad,
        torn_tail,
    })
}

/// Renders a report the way the `journal-inspect` bin prints it: the
/// verdict line, then either the `--summary` counts line (record
/// count, CRC-ok ratio, torn-tail offset) or one line per record with
/// offset, length, CRC status, key and body.
pub fn render(report: &InspectReport, summary_only: bool) -> String {
    let mut out = report.verdict();
    out.push('\n');
    if summary_only {
        out.push_str(&report.summary_line());
        out.push('\n');
        return out;
    }
    for r in &report.records {
        let status = if r.crc_ok && r.terminated {
            "ok  "
        } else if !r.crc_ok {
            "BAD "
        } else {
            "TORN"
        };
        let key = match r.key {
            Some(k) => format!("{k:016x}"),
            None => "-".repeat(16),
        };
        out.push_str(&format!(
            "  line {:>4} @{:>8} len {:>5} crc {status} key {key}  {}\n",
            r.line, r.offset, r.length, r.body
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SimOutcome;
    use crate::journal::render_record;
    use crate::store::Store;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mbta-inspect-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A campaign journal at `path` with one co-run record per entry.
    fn write_journal(path: &Path, config_fp: u64, records: &[(u64, u32, u64)]) {
        let store = Store::create(path, CAMPAIGN_NAMESPACE, config_fp).unwrap();
        for &(key, attempt, cycles) in records {
            let value = render_record(attempt, &Ok(SimOutcome::Corun(cycles)));
            store.put(key, &value).unwrap();
        }
    }

    #[test]
    fn clean_journal_reports_every_record_intact() {
        let path = tmp("clean");
        write_journal(&path, 0xc0ffee, &[(0x11, 0, 10), (0x22, 1, 20)]);
        let report = inspect_path(&path).unwrap();
        assert_eq!(report.kind, FileKind::Journal);
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.intact, 3);
        assert_eq!(report.interior_bad, 0);
        assert_eq!(report.torn_tail, None);
        assert_eq!(report.records[1].key, Some(0x11));
        assert_eq!(report.records[2].key, Some(0x22));
        assert!(report.verdict().contains("clean"));
        let rendered = render(&report, false);
        assert!(rendered.contains("ok corun 10"), "{rendered}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_position_matches_recovery_truncation() {
        let path = tmp("torn");
        write_journal(&path, 7, &[(0x1, 0, 10), (0x2, 0, 20)]);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();

        let report = inspect_path(&path).unwrap();
        let torn = report.torn_tail.expect("tail must be reported torn");
        assert_eq!(report.interior_bad, 0);
        // The reported offset is exactly where recovery truncates.
        let (_, entries, recovery) = Store::open(&path, CAMPAIGN_NAMESPACE, 7).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(recovery.truncated_bytes, torn.bytes);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), torn.offset);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_flagged_not_fatal() {
        let path = tmp("interior");
        write_journal(&path, 7, &[(0x1, 0, 10), (0x2, 0, 20)]);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = bytes.iter().position(|&b| b == b'\n').unwrap() + 20;
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let report = inspect_path(&path).unwrap();
        assert_eq!(report.interior_bad, 1);
        assert!(report.verdict().contains("INTERIOR CORRUPTION"));
        assert!(render(&report, false).contains("BAD"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_mode_counts_records_crc_ratio_and_torn_offset() {
        let path = tmp("summary");
        write_journal(&path, 9, &[(0x1, 0, 10), (0x2, 0, 20)]);

        // Clean file: 2 data records, every line CRC-ok, no tail.
        let clean = render(&inspect_path(&path).unwrap(), true);
        assert_eq!(clean.lines().count(), 2, "verdict + counts: {clean}");
        assert!(
            clean.contains("records 2 · crc-ok 3/3 (1000 permille) · torn-tail offset -"),
            "{clean}"
        );
        assert!(!clean.contains("line 1"), "per-record dump leaked: {clean}");

        // Tear the tail and the counts line must name the truncation
        // offset recovery would use.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();
        let report = inspect_path(&path).unwrap();
        let torn = report.torn_tail.unwrap();
        let summary = render(&report, true);
        assert!(
            summary.contains(&format!("torn-tail offset {}", torn.offset)),
            "{summary}"
        );
        assert!(summary.contains("crc-ok 2/3 (666 permille)"), "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_files_are_recognised_and_keyed() {
        let path = tmp("store");
        let store = Store::create(&path, "inspect-test", 42).unwrap();
        store.put(0xabc, "hello world").unwrap();
        drop(store);
        let report = inspect_path(&path).unwrap();
        assert_eq!(report.kind, FileKind::Store);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[1].key, Some(0xabc));
        assert!(report.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_and_empty_files_do_not_error() {
        let path = tmp("foreign");
        std::fs::write(&path, "intensity_permille,ftc_ratio\n0,1.0\n").unwrap();
        let report = inspect_path(&path).unwrap();
        assert_eq!(report.kind, FileKind::Unknown);
        assert!(report.records.iter().all(|r| !r.crc_ok));
        std::fs::write(&path, "").unwrap();
        let report = inspect_path(&path).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.torn_tail, None);
        std::fs::remove_file(&path).ok();
    }
}
