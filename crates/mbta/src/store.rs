//! The durable record log: one append-only, fsync'd, line-checksummed
//! file format for every piece of persisted state — campaign outcomes
//! ([`crate::journal`]), serve responses and profiles, and dse shard
//! verdicts.
//!
//! A [`Store`] persists single-line values keyed by a 64-bit FNV
//! fingerprint (the stable keys of [`crate::job_key_on`], request
//! fingerprints, [`content_key`]). The format is deliberately
//! human-greppable: certification-oriented interference methodologies
//! ask for an auditable evidence trail for every measurement, and a
//! hex blob would defeat that purpose.
//!
//! # Record format
//!
//! ```text
//! <crc16hex> <body>\n
//! ```
//!
//! where `crc` is the FNV-1a hash of `body` ([`obs::Fnv`], the same
//! stable hasher that keys the engine's memo cache). Bodies:
//!
//! ```text
//! mbta-store v1 ns=<namespace> cfg=<fp16hex>     header (first line)
//! <key16hex> <escaped value>                     one record
//! ```
//!
//! The namespace keeps a log from being replayed into a consumer
//! expecting different content (campaign outcomes, responses,
//! profiles); the config fingerprint keeps it from replaying into a
//! differently configured consumer. Values are escaped here and only
//! here (`\` → `\\`, newline → `\n`, CR → `\r`) and unescaped on
//! recovery, so any payload round-trips exactly and no value can forge
//! a record boundary.
//!
//! Campaign journals written before the namespaces merged carry the
//! header `mbta-journal v1 cfg=<fp16hex>`; their records already have
//! the `<key16hex> <value>` shape, so [`Store::open`] reads that header
//! as the [`CAMPAIGN_NAMESPACE`]'s.
//!
//! # Recovery guarantees
//!
//! * A record is durable only once its full line (newline included) is
//!   on disk — appends are a single `write` followed by `fsync`.
//! * One scanner sorts every line as intact, torn tail or interior
//!   damage; [`Store::open`] and [`crate::inspect::inspect_path`] both
//!   read files through it.
//! * On [`Store::open`], a **torn trailing record** (no newline, or a
//!   final line whose checksum or shape fails) is truncated away and
//!   reported in [`StoreRecovery`] — never silently kept.
//! * Damage anywhere *before* the final line is a hard
//!   [`JournalError::Corrupt`] naming its line: an interior flipped bit
//!   means the file is not an append-crash artefact and must not be
//!   trusted.
//! * When the same key was appended more than once (a crash between
//!   compute and respond, or a retried job), the **last** intact record
//!   wins — appends are the write-ahead order of truth.

use crate::exec::SimOutcome;
use crate::journal::{parse_record, render_record, JournaledOutcome};
use contention::IsolationProfile;
use obs::Fnv;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Header magic of every record log.
const MAGIC: &str = "mbta-store v1";

/// Header magic of campaign journals written before they became the
/// [`CAMPAIGN_NAMESPACE`] of a store.
const LEGACY_JOURNAL_MAGIC: &str = "mbta-journal v1";

/// The namespace campaign outcomes are recorded under.
pub const CAMPAIGN_NAMESPACE: &str = "campaign";

/// Where framed records land: a single durable append.
///
/// Production sinks are files — [`RecordSink::write_record`] maps to
/// `write_all` and [`RecordSink::sync`] to `sync_data`, which together
/// form the write-ahead guarantee the recovery path relies on. Tests
/// inject `write`/`fsync` failures through this seam
/// ([`Store::with_sink`]) to exercise the error paths without a faulty
/// disk.
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

/// Errors from opening or recovering a record log.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O operation failed.
    Io(io::Error),
    /// The file exists but does not start with a valid header for the
    /// requested namespace.
    NotAJournal {
        /// What was wrong.
        detail: String,
    },
    /// The log was written under a different configuration
    /// fingerprint.
    ConfigMismatch {
        /// Fingerprint the consumer expects.
        expected: u64,
        /// Fingerprint found in the header.
        found: u64,
    },
    /// A line *before* the final one failed its checksum or shape —
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

/// What [`Store::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Intact records recovered (header excluded, duplicates included).
    pub records: usize,
    /// Distinct keys after last-record-wins dedup.
    pub distinct: usize,
    /// Bytes of a torn trailing record truncated away (0 for a cleanly
    /// closed log).
    pub truncated_bytes: u64,
}

pub(crate) fn crc(body: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(body.as_bytes());
    h.finish()
}

fn frame(body: &str) -> String {
    format!("{:016x} {body}\n", crc(body))
}

/// Newlines never appear inside a record; escape them so a value (a
/// panic message, say) cannot forge record boundaries.
fn sanitize(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`sanitize`]: unescapes `\\`, `\n` and `\r`. Unknown
/// escapes pass through verbatim (lenient — a record that survived its
/// checksum is trusted).
fn unsanitize(s: &str) -> String {
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
fn check_frame(line: &str) -> Result<&str, String> {
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

/// How [`scan`] sorts one line of a record log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Newline-terminated, with a verified frame.
    Intact,
    /// The final line, unterminated or failing its frame: what an
    /// interrupted append leaves behind, and what recovery truncates.
    TornTail,
    /// A line before the final one that fails its frame: not an append
    /// crash, so recovery refuses the file.
    Damaged,
}

/// One line of a record log as [`scan`] found it.
#[derive(Clone, Debug)]
pub(crate) struct ScannedLine<'a> {
    /// 1-based line number (line 1 is the header).
    pub number: usize,
    /// Byte offset of the line start.
    pub offset: u64,
    /// The line, newline excluded.
    pub text: &'a str,
    /// Whether a newline ended the line (a missing one on the final
    /// line is the signature of a torn append).
    pub terminated: bool,
    /// Whether this is the file's final line.
    pub last: bool,
    /// The checksummed body, or why the frame failed.
    pub frame: Result<&'a str, String>,
    /// The line's verdict.
    pub state: LineState,
}

/// Splits a record log into framed lines and sorts each one as intact,
/// torn tail or interior damage — the one scanner behind strict
/// recovery ([`Store::open`]) and lenient inspection
/// ([`crate::inspect::inspect_path`]). Lazy, so recovery checks and
/// decodes each line in one pass while it is still in cache.
pub(crate) fn scan(text: &str) -> impl Iterator<Item = ScannedLine<'_>> {
    let mut offset = 0;
    text.split_inclusive('\n')
        .enumerate()
        .map(move |(i, piece)| {
            let (line, terminated) = match piece.strip_suffix('\n') {
                Some(line) => (line, true),
                None => (piece, false),
            };
            let start = offset;
            offset += piece.len();
            let last = offset == text.len();
            let frame = check_frame(line);
            let state = if frame.is_ok() && terminated {
                LineState::Intact
            } else if last {
                LineState::TornTail
            } else {
                LineState::Damaged
            };
            ScannedLine {
                number: i + 1,
                offset: start as u64,
                text: line,
                terminated,
                last,
                frame,
                state,
            }
        })
}

fn header_body(namespace: &str, config_fp: u64) -> String {
    format!("{MAGIC} ns={namespace} cfg={config_fp:016x}")
}

/// The namespace and config fingerprint a header body announces; the
/// legacy journal header announces the campaign namespace.
pub(crate) fn parse_header(body: &str) -> Result<(&str, u64), String> {
    let (namespace, cfg) = match body.strip_prefix(LEGACY_JOURNAL_MAGIC) {
        Some(cfg) => (CAMPAIGN_NAMESPACE, cfg),
        None => {
            let rest = body
                .strip_prefix(MAGIC)
                .ok_or_else(|| format!("header is `{body}`, expected `{MAGIC} …`"))?;
            let (ns, cfg) = rest
                .trim()
                .split_once(' ')
                .ok_or("header carries no cfg fingerprint")?;
            let ns = ns
                .strip_prefix("ns=")
                .ok_or("header carries no namespace")?;
            (ns, cfg)
        }
    };
    let fp = cfg
        .trim()
        .strip_prefix("cfg=")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("header carries no cfg fingerprint")?;
    Ok((namespace, fp))
}

fn check_header(body: &str, namespace: &str, config_fp: u64) -> Result<(), JournalError> {
    let (found_ns, found) =
        parse_header(body).map_err(|detail| JournalError::NotAJournal { detail })?;
    if found_ns != namespace {
        return Err(JournalError::NotAJournal {
            detail: format!("store namespace is `{found_ns}`, expected `{namespace}`"),
        });
    }
    if found != config_fp {
        return Err(JournalError::ConfigMismatch {
            expected: config_fp,
            found,
        });
    }
    Ok(())
}

/// Splits a record body into its key and unescaped value.
fn parse_store_record(body: &str) -> Result<(u64, String), String> {
    let (key_hex, value) = body.split_once(' ').ok_or("record has no value field")?;
    let key =
        u64::from_str_radix(key_hex, 16).map_err(|_| format!("bad record key `{key_hex}`"))?;
    Ok((key, unsanitize(value)))
}

/// An append-only, fsync'd, checksummed key → value store.
///
/// Appends are serialised through an internal mutex; one store can be
/// shared by every worker of a server or campaign.
pub struct Store {
    sink: Mutex<Box<dyn RecordSink>>,
    path: PathBuf,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store").field("path", &self.path).finish()
    }
}

impl Store {
    /// Creates a fresh store at `path` (truncating any existing file),
    /// writes the header and fsyncs it. `namespace` must be a
    /// non-empty, space-free token.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics on a malformed namespace — a caller bug, not an input
    /// condition.
    pub fn create(path: &Path, namespace: &str, config_fp: u64) -> Result<Store, JournalError> {
        assert!(
            !namespace.is_empty() && !namespace.contains(' '),
            "store namespace must be a non-empty, space-free token"
        );
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Store::with_sink(
            path,
            Box::new(file),
            namespace,
            config_fp,
        )?)
    }

    /// Creates a store over an arbitrary [`RecordSink`] — the
    /// fallible-writer seam. The header is written (and synced) through
    /// the sink; `label` stands in for the file path in diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates sink write/sync failures from the header append.
    pub fn with_sink(
        label: impl Into<PathBuf>,
        mut sink: Box<dyn RecordSink>,
        namespace: &str,
        config_fp: u64,
    ) -> io::Result<Store> {
        sink.write_record(frame(&header_body(namespace, config_fp)).as_bytes())?;
        sink.sync()?;
        Ok(Store {
            sink: Mutex::new(sink),
            path: label.into(),
        })
    }

    /// Opens a store at `path`, recovering every intact record. A
    /// missing or empty file is created fresh; a torn trailing record
    /// is truncated away (reported, never silent); duplicate keys keep
    /// the last intact record.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] on a bad header or namespace
    /// mismatch, [`JournalError::ConfigMismatch`] on a foreign config
    /// fingerprint, [`JournalError::Corrupt`] on interior corruption,
    /// and I/O errors.
    pub fn open(
        path: &Path,
        namespace: &str,
        config_fp: u64,
    ) -> Result<(Store, BTreeMap<u64, String>, StoreRecovery), JournalError> {
        Store::open_with(path, namespace, config_fp, Ok)
    }

    /// [`Store::open`] that also decodes each value as it is
    /// recovered. A value `decode` rejects is damage like a failed
    /// checksum: torn on the final line, [`JournalError::Corrupt`]
    /// before it.
    pub(crate) fn open_with<T>(
        path: &Path,
        namespace: &str,
        config_fp: u64,
        decode: impl Fn(String) -> Result<T, String>,
    ) -> Result<(Store, BTreeMap<u64, T>, StoreRecovery), JournalError> {
        // `read_to_end` into an empty buffer, as the store always read:
        // `fs::read`'s exact-size buffer measured slower serve restarts.
        let mut raw = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let text = String::from_utf8_lossy(&raw);
        let mut entries = BTreeMap::new();
        let mut records = 0usize;
        let mut torn_at = None;

        for line in scan(&text) {
            let body = match (&line.frame, line.state) {
                (Ok(body), LineState::Intact) => *body,
                // A header whose newline never reached the disk is torn
                // too: the log recorded nothing, so it starts fresh.
                (_, LineState::TornTail) if line.number > 1 || !line.terminated => {
                    torn_at = Some(line.offset);
                    break;
                }
                (frame, _) => {
                    return Err(JournalError::Corrupt {
                        line: line.number,
                        detail: frame.clone().err().unwrap_or_default(),
                    })
                }
            };
            if line.number == 1 {
                check_header(body, namespace, config_fp)?;
                continue;
            }
            match parse_store_record(body).and_then(|(key, value)| Ok((key, decode(value)?))) {
                Ok((key, value)) => {
                    records += 1;
                    entries.insert(key, value);
                }
                // A well-framed final record that does not parse cannot
                // be trusted either; truncate it like a torn one.
                Err(_) if line.last => torn_at = Some(line.offset),
                Err(detail) => {
                    return Err(JournalError::Corrupt {
                        line: line.number,
                        detail,
                    })
                }
            }
        }

        let truncated_bytes = torn_at.map_or(0, |at| raw.len() as u64 - at);
        if text.is_empty() || torn_at == Some(0) {
            let store = Store::create(path, namespace, config_fp)?;
            let report = StoreRecovery {
                truncated_bytes,
                ..StoreRecovery::default()
            };
            return Ok((store, BTreeMap::new(), report));
        }
        if let Some(at) = torn_at {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(at)?;
            f.sync_data()?;
        }

        let file = OpenOptions::new().append(true).open(path)?;
        let report = StoreRecovery {
            records,
            distinct: entries.len(),
            truncated_bytes,
        };
        Ok((
            Store {
                sink: Mutex::new(Box::new(file)),
                path: path.to_path_buf(),
            },
            entries,
            report,
        ))
    }

    /// Appends one `key → value` record and fsyncs before returning —
    /// the write-ahead guarantee: a value handed out to a consumer is
    /// always re-servable after a crash.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the store stays usable (a later append
    /// may succeed) and the on-disk tail stays recoverable.
    pub fn put(&self, key: u64, value: &str) -> io::Result<()> {
        let line = frame(&format!("{key:016x} {}", sanitize(value)));
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.write_record(line.as_bytes())?;
        sink.sync()
    }

    /// The store's file path (or sink label).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Encodes an isolation profile as a store value: the key, then the
/// campaign journal's audited `0 ok iso …` record (attempt 0), so the
/// value is self-describing.
pub fn encode_profile(key: u64, profile: &IsolationProfile) -> String {
    let record = render_record(0, &Ok(SimOutcome::Isolation(profile.clone())));
    format!("{key:016x} {record}")
}

/// Decodes a store value written by [`encode_profile`].
///
/// # Errors
///
/// Returns a human-readable description when the value does not parse
/// as an isolation record.
pub fn decode_profile(value: &str) -> Result<(u64, IsolationProfile), String> {
    let (key_hex, record) = value.split_once(' ').ok_or("missing job key")?;
    let key = u64::from_str_radix(key_hex, 16).map_err(|_| "missing or invalid job key")?;
    match parse_record(record)? {
        (_, JournaledOutcome::Success(SimOutcome::Isolation(p))) => Ok((key, p)),
        (_, other) => Err(format!("not an isolation record: {other:?}")),
    }
}

/// The FNV-1a fingerprint of `parts` joined under `domain` — the store
/// flavour of [`crate::job_key_on`], for content-addressing values that
/// are not simulation jobs (e.g. serve request fingerprints).
pub fn content_key(domain: &str, parts: &[&str]) -> u64 {
    let mut body = String::from(domain);
    for p in parts {
        body.push('\u{1f}');
        body.push_str(p);
    }
    crc(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention::DebugCounters;

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mbta_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn create_put_reopen_roundtrip() {
        let path = tmp("roundtrip");
        let store = Store::create(&path, "responses", 7).unwrap();
        store.put(1, "{\"status\":\"ok\"}").unwrap();
        store.put(2, "line one\nline two\\with backslash").unwrap();
        store.put(1, "{\"status\":\"ok\",\"v\":2}").unwrap();
        drop(store);

        let (_store, entries, report) = Store::open(&path, "responses", 7).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.distinct, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(
            entries[&1], "{\"status\":\"ok\",\"v\":2}",
            "last record wins"
        );
        assert_eq!(entries[&2], "line one\nline two\\with backslash");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let path = tmp("torn");
        let store = Store::create(&path, "responses", 7).unwrap();
        store.put(1, "kept").unwrap();
        store.put(2, "torn away").unwrap();
        drop(store);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();

        let (store, entries, report) = Store::open(&path, "responses", 7).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[&1], "kept");
        assert!(report.truncated_bytes > 0);
        // The store keeps appending cleanly after truncation.
        store.put(3, "after crash").unwrap();
        drop(store);
        let (_s, entries, report) = Store::open(&path, "responses", 7).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[&3], "after crash");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_corruption_is_refused() {
        let path = tmp("corrupt");
        let store = Store::create(&path, "responses", 7).unwrap();
        store.put(1, "first").unwrap();
        store.put(2, "second").unwrap();
        drop(store);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a byte inside the *first* record (line 2 of the file).
        let line2 = raw.iter().position(|&b| b == b'\n').map(|p| p + 1).unwrap();
        raw[line2 + 20] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        match Store::open(&path, "responses", 7) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn namespace_and_config_are_enforced() {
        let path = tmp("ns");
        drop(Store::create(&path, "responses", 7).unwrap());
        assert!(matches!(
            Store::open(&path, "profiles", 7),
            Err(JournalError::NotAJournal { .. })
        ));
        assert!(matches!(
            Store::open(&path, "responses", 8),
            Err(JournalError::ConfigMismatch {
                expected: 8,
                found: 7
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_journal_header_opens_only_as_the_campaign_namespace() {
        let path = tmp("legacy");
        let header = "mbta-journal v1 cfg=0000000000000007";
        let record = "00000000000000aa 0 ok corun 10";
        std::fs::write(&path, format!("{}{}", frame(header), frame(record))).unwrap();
        assert!(matches!(
            Store::open(&path, "responses", 7),
            Err(JournalError::NotAJournal { .. })
        ));
        assert!(matches!(
            Store::open(&path, CAMPAIGN_NAMESPACE, 8),
            Err(JournalError::ConfigMismatch {
                expected: 8,
                found: 7
            })
        ));
        let (store, entries, report) = Store::open(&path, CAMPAIGN_NAMESPACE, 7).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(entries[&0xaa], "0 ok corun 10");
        // Appends continue the legacy file under its own header.
        store.put(0xbb, "0 ok corun 20").unwrap();
        drop(store);
        let (_s, entries, _r) = Store::open(&path, CAMPAIGN_NAMESPACE, 7).unwrap();
        assert_eq!(entries.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_starts_fresh() {
        let path = tmp("fresh");
        let (store, entries, report) = Store::open(&path, "profiles", 1).unwrap();
        assert!(entries.is_empty());
        assert_eq!(report, StoreRecovery::default());
        store.put(9, "value").unwrap();
        drop(store);
        let (_s, entries, _r) = Store::open(&path, "profiles", 1).unwrap();
        assert_eq!(entries[&9], "value");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scanner_sorts_intact_torn_and_damaged_lines() {
        let good = frame("mbta-store v1 ns=x cfg=0000000000000001");
        let text = format!("{good}garbage\n{good}{}", &good[..good.len() - 1]);
        let states: Vec<(usize, u64, LineState)> =
            scan(&text).map(|l| (l.number, l.offset, l.state)).collect();
        let len = good.len() as u64;
        assert_eq!(
            states,
            [
                (1, 0, LineState::Intact),
                (2, len, LineState::Damaged),
                (3, len + 8, LineState::Intact),
                (4, 2 * len + 8, LineState::TornTail),
            ]
        );
        assert_eq!(scan("").count(), 0);
    }

    #[test]
    fn profile_encode_decode_roundtrip() {
        let profile = IsolationProfile::new(
            "serve app",
            DebugCounters {
                ccnt: 123_456,
                pmem_stall: 6_000,
                dmem_stall: 30_000,
                pcache_miss: 1_000,
                dcache_miss_clean: 20,
                dcache_miss_dirty: 3,
            },
        );
        let value = encode_profile(42, &profile);
        let (key, decoded) = decode_profile(&value).unwrap();
        assert_eq!(key, 42);
        assert_eq!(decoded, profile);
        assert!(decode_profile("not a record").is_err());
    }

    /// Profile values carry the task name unescaped; the store escapes
    /// once. That matches what older writers (which escaped the name
    /// twice) produced only because no generator names a task with a
    /// backslash or a line break.
    #[test]
    fn generator_task_names_need_no_escaping() {
        use tc27x_sim::{CoreId, DeploymentScenario};
        use workloads::LoadLevel;
        let scenarios = [
            DeploymentScenario::Scenario1,
            DeploymentScenario::Scenario2,
            DeploymentScenario::LowTraffic,
        ];
        let mut names = Vec::new();
        for name in ::platform::PlatformDesc::names() {
            let desc = ::platform::PlatformDesc::by_name(name).unwrap();
            for scenario in scenarios {
                names.push(workloads::control_loop_on(&desc, scenario, CoreId(1), 1).name);
                for level in LoadLevel::all() {
                    let load = workloads::contender_on(&desc, scenario, level, CoreId(2), 1);
                    names.push(load.name);
                }
            }
        }
        for n in &names {
            assert_eq!(&sanitize(n), n, "task name `{n}` needs escaping");
        }
    }

    #[test]
    fn content_key_is_stable_and_separator_safe() {
        let a = content_key("serve/v1", &["bound", "sc1", "high"]);
        let b = content_key("serve/v1", &["bound", "sc1", "high"]);
        assert_eq!(a, b);
        assert_ne!(a, content_key("serve/v1", &["bound", "sc1high", ""]));
        assert_ne!(a, content_key("serve/v2", &["bound", "sc1", "high"]));
    }
}
