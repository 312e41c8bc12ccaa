//! The write-ahead result journal: crash-safe persistence for campaign
//! outcomes.
//!
//! Every completed job of a journaled campaign — success or failure —
//! is appended to a plain-text, line-oriented journal file and fsync'd
//! before the campaign proceeds. Each line carries its own FNV-1a
//! checksum, so recovery can tell a good record from a torn or
//! corrupted one without trusting the file system. The format is
//! deliberately human-greppable: certification-oriented interference
//! methodologies ask for an auditable evidence trail for every
//! measurement, and a hex blob would defeat that purpose.
//!
//! # Record format
//!
//! ```text
//! <crc16hex> <body>\n
//! ```
//!
//! where `crc` is the FNV-1a hash of `body` ([`obs::Fnv`],
//! the same stable hasher that keys the engine's memo cache). Bodies:
//!
//! ```text
//! mbta-journal v1 cfg=<fp16hex>                          header (first line)
//! <key16hex> <attempt> ok corun <cycles>                 co-run success
//! <key16hex> <attempt> ok iso <c…×6> <ptac|-> <name>     isolation success
//! <key16hex> <attempt> fail <kind> <detail…>             failure
//! ```
//!
//! `key` is the job's stable FNV key ([`crate::job_key`]); `cfg` is the
//! campaign configuration fingerprint, so a journal can never silently
//! replay into a campaign with different retry/fault/budget settings.
//!
//! # Recovery guarantees
//!
//! * A record is only considered durable once its full line (including
//!   the trailing newline) is on disk — appends are a single `write`
//!   followed by `fsync`.
//! * On [`Journal::resume`], a **torn trailing record** (no newline, or
//!   a final line whose checksum fails) is truncated away with a
//!   warning counter in the [`RecoveryReport`] — never silently kept.
//! * Corruption anywhere *before* the final record is a hard
//!   [`JournalError::Corrupt`]: an interior flipped bit means the file
//!   is not an append-crash artefact and must not be trusted.

use crate::exec::{JobFailure, SimOutcome};
use contention::{DebugCounters, IsolationProfile, Operation, Target};
use obs::Fnv;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal format version tag (first-line magic).
const MAGIC: &str = "mbta-journal v1";

/// Where framed records land: a single durable append.
///
/// Production sinks are files — [`RecordSink::write_record`] maps to
/// `write_all` and [`RecordSink::sync`] to `sync_data`, which together
/// form the write-ahead guarantee the resume path relies on. Tests
/// inject `write`/`fsync` failures through this seam to exercise the
/// journal's error paths without a faulty disk.
pub trait RecordSink: Send {
    /// Appends `bytes` (one framed record, newline included).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    fn write_record(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Forces previously appended bytes to durable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying sync failure.
    fn sync(&mut self) -> io::Result<()>;
}

impl RecordSink for File {
    fn write_record(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Errors from opening or recovering a journal.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O operation failed.
    Io(io::Error),
    /// The file exists but does not start with a valid journal header.
    NotAJournal {
        /// What was wrong.
        detail: String,
    },
    /// The journal was written by a campaign with a different
    /// configuration fingerprint.
    ConfigMismatch {
        /// Fingerprint this campaign expects.
        expected: u64,
        /// Fingerprint found in the journal header.
        found: u64,
    },
    /// A record *before* the final one failed its checksum or grammar —
    /// interior corruption, not an append crash.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal { detail } => {
                write!(f, "not a campaign journal: {detail}")
            }
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal was written by a different campaign configuration \
                 (expected cfg={expected:016x}, found cfg={found:016x})"
            ),
            JournalError::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`Journal::resume`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records recovered (header excluded).
    pub records: usize,
    /// Bytes of a torn trailing record that were truncated away
    /// (0 for a cleanly closed journal).
    pub truncated_bytes: u64,
}

/// The replayable outcome of one journaled job attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum JournaledOutcome {
    /// The job completed; the outcome can be replayed verbatim.
    Success(SimOutcome),
    /// The job failed; on resume it is re-executed, and the record
    /// serves the audit trail and the partial-result manifest.
    Failure {
        /// Failure class: `sim`, `panic`, `timeout` or `transient`.
        kind: String,
        /// Human-readable description (display form of the failure).
        detail: String,
    },
}

impl JournaledOutcome {
    /// Whether this is a replayable success.
    pub fn is_success(&self) -> bool {
        matches!(self, JournaledOutcome::Success(_))
    }
}

/// One recovered journal record.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// The job's stable FNV key ([`crate::job_key`]).
    pub key: u64,
    /// Which retry attempt produced this outcome (0 = first try).
    pub attempt: u32,
    /// The recorded outcome.
    pub outcome: JournaledOutcome,
}

/// An append-only, fsync'd, per-record-checksummed campaign journal.
///
/// Appends are serialised through an internal mutex, so one journal can
/// be shared by all workers of a campaign.
pub struct Journal {
    sink: Mutex<Box<dyn RecordSink>>,
    path: PathBuf,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

pub(crate) fn crc(body: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(body.as_bytes());
    h.finish()
}

pub(crate) fn frame(body: &str) -> String {
    format!("{:016x} {body}\n", crc(body))
}

/// Newlines never appear inside a record; escape them so a panic
/// message cannot forge record boundaries.
pub(crate) fn sanitize(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`sanitize`]: unescapes `\\`, `\n` and `\r`. Unknown
/// escapes pass through verbatim (lenient — a record that survived its
/// checksum is trusted).
pub(crate) fn unsanitize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Verifies one line's `<crc16hex> <body>` frame and returns the body.
pub(crate) fn check_frame(line: &str) -> Result<&str, String> {
    let (crc_hex, body) = line
        .split_once(' ')
        .ok_or_else(|| "missing checksum field".to_string())?;
    let stated =
        u64::from_str_radix(crc_hex, 16).map_err(|_| format!("bad checksum field `{crc_hex}`"))?;
    if stated != crc(body) {
        return Err("checksum mismatch".to_string());
    }
    Ok(body)
}

/// Splits raw log text into `(line, newline-terminated)` segments so a
/// missing trailing newline — the signature of a torn append — stays
/// visible to the recovery scan.
pub(crate) fn scan_lines(text: &str) -> Vec<(&str, bool)> {
    let mut segments = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find('\n') {
        segments.push((&rest[..pos], true));
        rest = &rest[pos + 1..];
    }
    if !rest.is_empty() {
        segments.push((rest, false));
    }
    segments
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing
    /// file), writes the header and fsyncs it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: &Path, config_fp: u64) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(frame(&format!("{MAGIC} cfg={config_fp:016x}")).as_bytes())?;
        file.sync_data()?;
        Ok(Journal {
            sink: Mutex::new(Box::new(file)),
            path: path.to_path_buf(),
        })
    }

    /// Creates a journal over an arbitrary [`RecordSink`] — the
    /// fallible-writer seam. The header is written (and synced) through
    /// the sink; `label` stands in for the file path in diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates sink write/sync failures from the header append.
    pub fn with_sink(
        label: impl Into<PathBuf>,
        mut sink: Box<dyn RecordSink>,
        config_fp: u64,
    ) -> io::Result<Journal> {
        sink.write_record(frame(&format!("{MAGIC} cfg={config_fp:016x}")).as_bytes())?;
        sink.sync()?;
        Ok(Journal {
            sink: Mutex::new(sink),
            path: label.into(),
        })
    }

    /// Opens an existing journal, verifies its header against
    /// `config_fp`, recovers every intact record and truncates a torn
    /// trailing record (with the byte count reported, never silently).
    /// A missing or empty file is created fresh — resuming a campaign
    /// that never started is the same as starting it.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] on a bad header,
    /// [`JournalError::ConfigMismatch`] when the journal belongs to a
    /// differently configured campaign, [`JournalError::Corrupt`] on
    /// interior corruption, and I/O errors.
    pub fn resume(
        path: &Path,
        config_fp: u64,
    ) -> Result<(Journal, Vec<JournalEntry>, RecoveryReport), JournalError> {
        let mut raw = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        if raw.is_empty() {
            let journal = Journal::create(path, config_fp)?;
            return Ok((journal, Vec::new(), RecoveryReport::default()));
        }

        let text = String::from_utf8_lossy(&raw);
        let mut entries = Vec::new();
        let mut good_len: u64 = 0;
        let mut truncated = 0u64;
        let mut header_seen = false;

        let segments = scan_lines(&text);

        let last = segments.len().saturating_sub(1);
        for (i, (line, terminated)) in segments.iter().enumerate() {
            let line_no = i + 1;
            let is_last = i == last;
            let parsed = Self::check_line(line).and_then(|body| {
                if line_no == 1 {
                    Self::parse_header(body, config_fp).map(|()| None)
                } else {
                    parse_record(body, line_no).map(Some)
                }
            });
            match parsed {
                Ok(entry) if *terminated => {
                    if line_no == 1 {
                        header_seen = true;
                    }
                    good_len += line.len() as u64 + 1;
                    if let Some(e) = entry {
                        entries.push(e);
                    }
                }
                // A complete, checksummed line with no trailing newline
                // cannot happen under single-write appends; treat it as
                // torn anyway — conservative truncation loses one
                // record, continuing could trust a half-written one.
                Ok(_) => {
                    truncated += line.len() as u64;
                }
                Err(e) if is_last && header_seen => {
                    // Torn trailing record: the crash interrupted the
                    // final append. Truncate and warn.
                    truncated += line.len() as u64 + u64::from(*terminated);
                    let _ = e;
                }
                Err(_) if is_last && !*terminated && line_no == 1 => {
                    // The header write itself was interrupted (no
                    // newline ever hit the disk): the campaign never
                    // recorded anything, so start fresh below.
                    truncated += line.len() as u64;
                }
                Err(e) => return Err(e),
            }
        }

        if !header_seen {
            let journal = Journal::create(path, config_fp)?;
            return Ok((
                journal,
                Vec::new(),
                RecoveryReport {
                    records: 0,
                    truncated_bytes: truncated,
                },
            ));
        }

        if truncated > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(good_len)?;
            f.sync_data()?;
        }

        let file = OpenOptions::new().append(true).open(path)?;
        let report = RecoveryReport {
            records: entries.len(),
            truncated_bytes: truncated,
        };
        Ok((
            Journal {
                sink: Mutex::new(Box::new(file)),
                path: path.to_path_buf(),
            },
            entries,
            report,
        ))
    }

    /// Verifies a line's checksum frame and returns its body.
    fn check_line(line: &str) -> Result<&str, JournalError> {
        check_frame(line).map_err(|detail| JournalError::Corrupt { line: 0, detail })
    }

    fn parse_header(body: &str, config_fp: u64) -> Result<(), JournalError> {
        let rest = body
            .strip_prefix(MAGIC)
            .ok_or_else(|| JournalError::NotAJournal {
                detail: format!("header is `{body}`, expected `{MAGIC} …`"),
            })?;
        let found = rest
            .trim()
            .strip_prefix("cfg=")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| JournalError::NotAJournal {
                detail: "header carries no cfg fingerprint".into(),
            })?;
        if found != config_fp {
            return Err(JournalError::ConfigMismatch {
                expected: config_fp,
                found,
            });
        }
        Ok(())
    }

    /// Appends one job outcome and fsyncs before returning — the
    /// write-ahead guarantee the resume path relies on.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(
        &self,
        key: u64,
        attempt: u32,
        result: &Result<SimOutcome, JobFailure>,
    ) -> io::Result<()> {
        let body = render_record(key, attempt, result);
        let line = frame(&body);
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.write_record(line.as_bytes())?;
        sink.sync()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Failure class token for the journal (`fail <kind> …`).
pub(crate) fn failure_kind(f: &JobFailure) -> &'static str {
    match f {
        JobFailure::Sim(_) => "sim",
        JobFailure::Panic(_) => "panic",
        JobFailure::TimedOut { .. } => "timeout",
        JobFailure::Transient { .. } => "transient",
    }
}

pub(crate) fn render_record(
    key: u64,
    attempt: u32,
    result: &Result<SimOutcome, JobFailure>,
) -> String {
    match result {
        Ok(SimOutcome::Corun(cycles)) => {
            format!("{key:016x} {attempt} ok corun {cycles}")
        }
        Ok(SimOutcome::Isolation(p)) => {
            let c = p.counters();
            let ptac = match p.ptac() {
                Some(counts) => {
                    let mut vals = Vec::with_capacity(8);
                    for t in Target::all() {
                        for o in Operation::all() {
                            vals.push(counts.get(t, o).to_string());
                        }
                    }
                    vals.join(",")
                }
                None => "-".to_string(),
            };
            format!(
                "{key:016x} {attempt} ok iso {} {} {} {} {} {} {ptac} {}",
                c.ccnt,
                c.pmem_stall,
                c.dmem_stall,
                c.pcache_miss,
                c.dcache_miss_clean,
                c.dcache_miss_dirty,
                sanitize(p.name())
            )
        }
        Err(f) => format!(
            "{key:016x} {attempt} fail {} {}",
            failure_kind(f),
            sanitize(&f.to_string())
        ),
    }
}

pub(crate) fn parse_record(body: &str, line_no: usize) -> Result<JournalEntry, JournalError> {
    let bad = |detail: String| JournalError::Corrupt {
        line: line_no,
        detail,
    };
    let mut parts = body.splitn(4, ' ');
    let key = parts
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| bad("missing or invalid job key".into()))?;
    let attempt: u32 = parts
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| bad("missing or invalid attempt count".into()))?;
    let status = parts.next().ok_or_else(|| bad("missing status".into()))?;
    let rest = parts.next().unwrap_or("");
    let outcome = match status {
        "ok" => JournaledOutcome::Success(parse_success(rest, line_no)?),
        "fail" => {
            let (kind, detail) = rest.split_once(' ').unwrap_or((rest, ""));
            if !matches!(kind, "sim" | "panic" | "timeout" | "transient") {
                return Err(bad(format!("unknown failure kind `{kind}`")));
            }
            JournaledOutcome::Failure {
                kind: kind.to_string(),
                detail: detail.to_string(),
            }
        }
        other => return Err(bad(format!("unknown status `{other}`"))),
    };
    Ok(JournalEntry {
        key,
        attempt,
        outcome,
    })
}

fn parse_success(rest: &str, line_no: usize) -> Result<SimOutcome, JournalError> {
    let bad = |detail: String| JournalError::Corrupt {
        line: line_no,
        detail,
    };
    if let Some(cycles) = rest.strip_prefix("corun ") {
        let cycles: u64 = cycles
            .trim()
            .parse()
            .map_err(|_| bad(format!("invalid co-run cycles `{cycles}`")))?;
        return Ok(SimOutcome::Corun(cycles));
    }
    let iso = rest
        .strip_prefix("iso ")
        .ok_or_else(|| bad(format!("unknown success payload `{rest}`")))?;
    let fields: Vec<&str> = iso.splitn(8, ' ').collect();
    if fields.len() != 8 {
        return Err(bad(format!(
            "isolation record has {} fields, expected 8",
            fields.len()
        )));
    }
    let num = |i: usize| -> Result<u64, JournalError> {
        fields[i]
            .parse()
            .map_err(|_| bad(format!("counter field `{}` is not a number", fields[i])))
    };
    let counters = DebugCounters {
        ccnt: num(0)?,
        pmem_stall: num(1)?,
        dmem_stall: num(2)?,
        pcache_miss: num(3)?,
        dcache_miss_clean: num(4)?,
        dcache_miss_dirty: num(5)?,
    };
    let name = fields[7];
    if name.is_empty() {
        return Err(bad("empty task name".into()));
    }
    let mut profile = IsolationProfile::new(name, counters);
    if fields[6] != "-" {
        let vals: Vec<u64> = fields[6]
            .split(',')
            .map(|v| v.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad(format!("invalid ptac field `{}`", fields[6])))?;
        if vals.len() != 8 {
            return Err(bad(format!(
                "ptac field has {} values, expected 8",
                vals.len()
            )));
        }
        let mut it = vals.iter();
        let mut counts = contention::AccessCounts::new();
        for t in Target::all() {
            for o in Operation::all() {
                counts.set(t, o, *it.next().unwrap_or(&0));
            }
        }
        profile = profile.with_ptac(counts);
    }
    Ok(SimOutcome::Isolation(profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::SimError;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mbta-journal-unit-{}-{name}", std::process::id()));
        p
    }

    fn sample_profile() -> IsolationProfile {
        let mut counts = contention::AccessCounts::new();
        counts.set(Target::Pf0, Operation::Code, 7);
        counts.set(Target::Lmu, Operation::Data, 11);
        IsolationProfile::new(
            "cruise-control",
            DebugCounters {
                ccnt: 846_103,
                pmem_stall: 109_736,
                dmem_stall: 123_840,
                pcache_miss: 18_136,
                dcache_miss_clean: 192,
                dcache_miss_dirty: 0,
            },
        )
        .with_ptac(counts)
    }

    #[test]
    fn records_round_trip_through_render_and_parse() {
        let cases: Vec<Result<SimOutcome, JobFailure>> = vec![
            Ok(SimOutcome::Corun(123_456)),
            Ok(SimOutcome::Isolation(sample_profile())),
            Ok(SimOutcome::Isolation(IsolationProfile::new(
                "plain",
                DebugCounters::default(),
            ))),
            Err(JobFailure::TimedOut { millis: 250 }),
            Err(JobFailure::Transient {
                detail: "injected dropped read (attempt 1)".into(),
            }),
            Err(JobFailure::Panic("multi\nline\npayload".into())),
            Err(JobFailure::Sim(SimError::CycleLimit { limit: 99 })),
        ];
        for (i, case) in cases.iter().enumerate() {
            let body = render_record(0xdead_beef, i as u32, case);
            let entry = parse_record(&body, 2).unwrap();
            assert_eq!(entry.key, 0xdead_beef);
            assert_eq!(entry.attempt, i as u32);
            match (case, &entry.outcome) {
                (Ok(expected), JournaledOutcome::Success(got)) => match (expected, got) {
                    (SimOutcome::Corun(a), SimOutcome::Corun(b)) => assert_eq!(a, b),
                    (SimOutcome::Isolation(a), SimOutcome::Isolation(b)) => {
                        assert_eq!(a, b, "profile round-trip (case {i})");
                    }
                    _ => panic!("outcome kind changed in round-trip"),
                },
                (Err(f), JournaledOutcome::Failure { kind, .. }) => {
                    assert_eq!(kind, failure_kind(f));
                }
                _ => panic!("success/failure flipped in round-trip"),
            }
        }
    }

    #[test]
    fn create_resume_cycle_preserves_every_record() {
        let path = tmp("cycle");
        let journal = Journal::create(&path, 0xc0ffee).unwrap();
        journal.append(1, 0, &Ok(SimOutcome::Corun(10))).unwrap();
        journal
            .append(2, 0, &Ok(SimOutcome::Isolation(sample_profile())))
            .unwrap();
        journal
            .append(3, 1, &Err(JobFailure::TimedOut { millis: 5 }))
            .unwrap();
        drop(journal);

        let (journal, entries, report) = Journal::resume(&path, 0xc0ffee).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(entries.len(), 3);
        assert!(entries[0].outcome.is_success());
        assert!(entries[1].outcome.is_success());
        assert!(!entries[2].outcome.is_success());
        drop(journal);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_reported() {
        let path = tmp("torn");
        let journal = Journal::create(&path, 7).unwrap();
        journal.append(1, 0, &Ok(SimOutcome::Corun(10))).unwrap();
        journal.append(2, 0, &Ok(SimOutcome::Corun(20))).unwrap();
        drop(journal);
        // Tear the final record mid-line: drop the last 9 bytes.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();

        let (journal, entries, report) = Journal::resume(&path, 7).unwrap();
        assert_eq!(entries.len(), 1, "only the intact record survives");
        assert!(report.truncated_bytes > 0);
        // The file is truncated back to a clean state: appending and
        // resuming again recovers both records.
        journal.append(2, 0, &Ok(SimOutcome::Corun(20))).unwrap();
        drop(journal);
        let (_, entries, report) = Journal::resume(&path, 7).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = tmp("interior");
        let journal = Journal::create(&path, 7).unwrap();
        journal.append(1, 0, &Ok(SimOutcome::Corun(10))).unwrap();
        journal.append(2, 0, &Ok(SimOutcome::Corun(20))).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the *first* record (not the last line).
        let first_record_offset = bytes.iter().position(|&b| b == b'\n').unwrap() + 20;
        bytes[first_record_offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::resume(&path, 7).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_mismatch_and_foreign_files_are_rejected() {
        let path = tmp("cfg");
        drop(Journal::create(&path, 1).unwrap());
        let err = Journal::resume(&path, 2).unwrap_err();
        assert!(matches!(
            err,
            JournalError::ConfigMismatch {
                expected: 2,
                found: 1
            }
        ));
        std::fs::write(&path, "intensity_permille,ftc_ratio\n0,1.0\n").unwrap();
        let err = Journal::resume(&path, 2).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::NotAJournal { .. } | JournalError::Corrupt { .. }
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_a_missing_file_starts_fresh() {
        let path = tmp("fresh");
        std::fs::remove_file(&path).ok();
        let (journal, entries, report) = Journal::resume(&path, 9).unwrap();
        assert!(entries.is_empty());
        assert_eq!(report, RecoveryReport::default());
        journal.append(1, 0, &Ok(SimOutcome::Corun(1))).unwrap();
        drop(journal);
        let (_, entries, _) = Journal::resume(&path, 9).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
