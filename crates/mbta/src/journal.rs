//! The campaign journal: the outcome codec of the record log's
//! [`CAMPAIGN_NAMESPACE`](crate::store::CAMPAIGN_NAMESPACE).
//!
//! Every completed job of a journaled campaign — success or failure —
//! is appended to a [`Store`](crate::Store) opened under the campaign namespace and
//! fsync'd before the campaign proceeds (see [`crate::store`] for the
//! framing, escaping and recovery guarantees). The record's key is the
//! job's stable FNV key ([`crate::job_key_on`]); the store's config
//! fingerprint is the campaign's, so a journal can never silently
//! replay into a campaign with different retry/fault/budget settings.
//! This module renders and parses the value:
//!
//! ```text
//! <attempt> ok corun <cycles>                 co-run success
//! <attempt> ok iso <c…×6> <ptac|-> <name>     isolation success
//! <attempt> fail <kind> <detail…>             failure
//! ```
//!
//! so a full record line reads `<crc16hex> <key16hex> <attempt> ok …`,
//! byte for byte what campaign journals have always recorded.

use crate::exec::{JobFailure, SimOutcome};
use contention::{DebugCounters, IsolationProfile, Operation, Target};

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

/// Failure class token for the journal (`fail <kind> …`).
pub(crate) fn failure_kind(f: &JobFailure) -> &'static str {
    match f {
        JobFailure::Sim(_) => "sim",
        JobFailure::Panic(_) => "panic",
        JobFailure::TimedOut { .. } => "timeout",
        JobFailure::Transient { .. } => "transient",
    }
}

/// The journal value of one job attempt. Names and failure details go
/// in verbatim; the store escapes the whole value.
pub(crate) fn render_record(attempt: u32, result: &Result<SimOutcome, JobFailure>) -> String {
    match result {
        Ok(SimOutcome::Corun(cycles)) => format!("{attempt} ok corun {cycles}"),
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
                "{attempt} ok iso {} {} {} {} {} {} {ptac} {}",
                c.ccnt,
                c.pmem_stall,
                c.dmem_stall,
                c.pcache_miss,
                c.dcache_miss_clean,
                c.dcache_miss_dirty,
                p.name()
            )
        }
        Err(f) => format!("{attempt} fail {} {f}", failure_kind(f)),
    }
}

/// Parses a value written by [`render_record`] into its attempt and
/// outcome.
pub(crate) fn parse_record(value: &str) -> Result<(u32, JournaledOutcome), String> {
    let mut parts = value.splitn(3, ' ');
    let attempt: u32 = parts
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or("missing or invalid attempt count")?;
    let status = parts.next().ok_or("missing status")?;
    let rest = parts.next().unwrap_or("");
    let outcome = match status {
        "ok" => JournaledOutcome::Success(parse_success(rest)?),
        "fail" => {
            let (kind, detail) = rest.split_once(' ').unwrap_or((rest, ""));
            if !matches!(kind, "sim" | "panic" | "timeout" | "transient") {
                return Err(format!("unknown failure kind `{kind}`"));
            }
            JournaledOutcome::Failure {
                kind: kind.to_string(),
                detail: detail.to_string(),
            }
        }
        other => return Err(format!("unknown status `{other}`")),
    };
    Ok((attempt, outcome))
}

/// Parses a value of an engine's durable memo: the outcome a
/// successful record replays, `None` for a failure record. Values in
/// the older profile-store form — `<key16hex> ` before the record,
/// see [`crate::store::decode_profile`] — parse too.
pub(crate) fn parse_memo_value(value: &str) -> Result<Option<SimOutcome>, String> {
    match parse_record(value) {
        Ok((_, JournaledOutcome::Success(outcome))) => Ok(Some(outcome)),
        Ok((_, JournaledOutcome::Failure { .. })) => Ok(None),
        Err(e) => match crate::store::decode_profile(value) {
            Ok((_, profile)) => Ok(Some(SimOutcome::Isolation(profile))),
            Err(_) => Err(e),
        },
    }
}

fn parse_success(rest: &str) -> Result<SimOutcome, String> {
    if let Some(cycles) = rest.strip_prefix("corun ") {
        let cycles: u64 = cycles
            .trim()
            .parse()
            .map_err(|_| format!("invalid co-run cycles `{cycles}`"))?;
        return Ok(SimOutcome::Corun(cycles));
    }
    let iso = rest
        .strip_prefix("iso ")
        .ok_or_else(|| format!("unknown success payload `{rest}`"))?;
    let fields: Vec<&str> = iso.splitn(8, ' ').collect();
    if fields.len() != 8 {
        return Err(format!(
            "isolation record has {} fields, expected 8",
            fields.len()
        ));
    }
    let num = |i: usize| -> Result<u64, String> {
        fields[i]
            .parse()
            .map_err(|_| format!("counter field `{}` is not a number", fields[i]))
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
        return Err("empty task name".into());
    }
    let mut profile = IsolationProfile::new(name, counters);
    if fields[6] != "-" {
        let vals: Vec<u64> = fields[6]
            .split(',')
            .map(|v| v.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("invalid ptac field `{}`", fields[6]))?;
        if vals.len() != 8 {
            return Err(format!("ptac field has {} values, expected 8", vals.len()));
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
    use crate::store::{crc, JournalError, Store, StoreRecovery, CAMPAIGN_NAMESPACE};
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use tc27x_sim::SimError;

    type Opened = (Store, BTreeMap<u64, (u32, JournaledOutcome)>, StoreRecovery);

    /// Opens the campaign journal at `path` as a resume does.
    fn open(path: &Path, config_fp: u64) -> Result<Opened, JournalError> {
        Store::open_with(path, CAMPAIGN_NAMESPACE, config_fp, |v| parse_record(&v))
    }

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

    /// A fresh campaign journal at `path` holding `records`.
    fn write(path: &Path, config_fp: u64, records: &[(u64, Result<SimOutcome, JobFailure>)]) {
        let store = Store::create(path, CAMPAIGN_NAMESPACE, config_fp).unwrap();
        for (key, result) in records {
            store.put(*key, &render_record(0, result)).unwrap();
        }
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
            let (attempt, outcome) = parse_record(&render_record(i as u32, case)).unwrap();
            assert_eq!(attempt, i as u32);
            match (case, &outcome) {
                (Ok(expected), JournaledOutcome::Success(got)) => match (expected, got) {
                    (SimOutcome::Corun(a), SimOutcome::Corun(b)) => assert_eq!(a, b),
                    (SimOutcome::Isolation(a), SimOutcome::Isolation(b)) => {
                        assert_eq!(a, b, "profile round-trip (case {i})");
                    }
                    _ => panic!("outcome kind changed in round-trip"),
                },
                (Err(f), JournaledOutcome::Failure { kind, detail }) => {
                    assert_eq!(kind, failure_kind(f));
                    assert_eq!(detail, &f.to_string());
                }
                _ => panic!("success/failure flipped in round-trip"),
            }
        }
    }

    /// The store escapes each value once, so a record line is the same
    /// bytes a journal has always held, even for a panic message with
    /// a backslash and a line break.
    #[test]
    fn escaped_details_keep_the_journal_line_bytes() {
        let path = tmp("escape");
        let failure = JobFailure::Panic("index out of bounds: a\\b\nc".into());
        write(&path, 7, &[(0xab, Err(failure.clone()))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let escaped = failure
            .to_string()
            .replace('\\', "\\\\")
            .replace('\n', "\\n");
        let body = format!("00000000000000ab 0 fail panic {escaped}");
        let line = format!("{:016x} {body}", crc(&body));
        assert_eq!(text.lines().nth(1), Some(line.as_str()));
        let (_, entries, _) = open(&path, 7).unwrap();
        let want = JournaledOutcome::Failure {
            kind: "panic".into(),
            detail: failure.to_string(),
        };
        assert_eq!(entries[&0xab], (0, want));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_resume_cycle_preserves_every_record() {
        let path = tmp("cycle");
        write(
            &path,
            0xc0ffee,
            &[
                (1, Ok(SimOutcome::Corun(10))),
                (2, Ok(SimOutcome::Isolation(sample_profile()))),
                (3, Err(JobFailure::TimedOut { millis: 5 })),
            ],
        );
        let (_, entries, report) = open(&path, 0xc0ffee).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries[&1].1,
            JournaledOutcome::Success(SimOutcome::Corun(10))
        );
        assert_eq!(
            entries[&2].1,
            JournaledOutcome::Success(SimOutcome::Isolation(sample_profile()))
        );
        assert!(!entries[&3].1.is_success());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_reported() {
        let path = tmp("torn");
        write(
            &path,
            7,
            &[
                (1, Ok(SimOutcome::Corun(10))),
                (2, Ok(SimOutcome::Corun(20))),
            ],
        );
        // Tear the final record mid-line: drop the last 9 bytes.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();

        let (journal, entries, report) = open(&path, 7).unwrap();
        assert_eq!(entries.len(), 1, "only the intact record survives");
        assert!(report.truncated_bytes > 0);
        // The file is truncated back to a clean state: appending and
        // resuming again recovers both records.
        journal
            .put(2, &render_record(0, &Ok(SimOutcome::Corun(20))))
            .unwrap();
        drop(journal);
        let (_, entries, report) = open(&path, 7).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = tmp("interior");
        write(
            &path,
            7,
            &[
                (1, Ok(SimOutcome::Corun(10))),
                (2, Ok(SimOutcome::Corun(20))),
            ],
        );
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the *first* record (not the last line).
        let first_record_offset = bytes.iter().position(|&b| b == b'\n').unwrap() + 20;
        bytes[first_record_offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = open(&path, 7).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );
        assert!(
            err.to_string().starts_with("journal corrupt at line 2:"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_mismatch_and_foreign_files_are_rejected() {
        let path = tmp("cfg");
        write(&path, 1, &[]);
        let err = open(&path, 2).unwrap_err();
        assert!(matches!(
            err,
            JournalError::ConfigMismatch {
                expected: 2,
                found: 1
            }
        ));
        std::fs::write(&path, "intensity_permille,ftc_ratio\n0,1.0\n").unwrap();
        let err = open(&path, 2).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::NotAJournal { .. } | JournalError::Corrupt { .. }
            ),
            "{err}"
        );
        // Another namespace's store is no campaign journal either.
        drop(Store::create(&path, "responses", 2).unwrap());
        let err = open(&path, 2).unwrap_err();
        assert!(matches!(err, JournalError::NotAJournal { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_a_missing_file_starts_fresh() {
        let path = tmp("fresh");
        std::fs::remove_file(&path).ok();
        let (journal, entries, report) = open(&path, 9).unwrap();
        assert!(entries.is_empty());
        assert_eq!(report, StoreRecovery::default());
        journal
            .put(1, &render_record(0, &Ok(SimOutcome::Corun(1))))
            .unwrap();
        drop(journal);
        let (_, entries, _) = open(&path, 9).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
