//! Deterministic observability primitives for the contention workspace.
//!
//! This crate is the dependency-free foundation of the telemetry layer
//! (`mbta::telemetry` does the wiring): hierarchical [`SpanRec`] spans
//! with FNV-derived deterministic IDs, a [`Registry`] of counters and
//! fixed-bucket [`Hist`] histograms, and three sinks over the same
//! [`Stream`] model — a JSONL event stream, a Chrome `trace_event` JSON
//! document (loadable in Perfetto / `chrome://tracing`), and a human
//! summary table.
//!
//! The design rule that makes telemetry *regression-testable* is the
//! deterministic/non-deterministic split: every record carries a `det`
//! flag, deterministic records contain only logical quantities (cycles,
//! job indices, node counts) and wall-clock time may appear solely in
//! `det:false` records. Rendering is pure and ordered (spans in merge
//! order, metrics in name order), so the `det:true` subset of a JSONL
//! stream is byte-identical across worker counts and timing kernels.
//!
//! # Examples
//!
//! ```
//! use obs::{Hist, Registry, SpanRec, Stream};
//!
//! let mut reg = Registry::new();
//! reg.add("cache.hits", 3);
//! reg.observe("queue_delay", 11);
//! let mut stream = Stream::new();
//! stream.det = reg;
//! stream.spans.push(SpanRec::new(obs::span_id(0, "job", 1), 0, "job", 0, 0, 42));
//! let jsonl = stream.render_jsonl();
//! assert!(jsonl.lines().all(|l| l.contains("\"det\":")));
//! let trace = stream.render_chrome();
//! assert!(obs::json::parse(&trace).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod stream;

pub use json::Val;
pub use metrics::{Hist, Registry};
pub use sink::{Format, SinkSpec};
pub use span::{span_id, SpanRec};
pub use stream::{MatrixRec, Stream, TableRec, Warning};

use std::fmt;

/// An incremental FNV-1a 64-bit hasher — the workspace's one stable
/// hasher. `std::hash` promises no stability across releases or
/// processes, so everything that keys a persistent or cross-run value
/// (span IDs, platform fingerprints, job keys, journal checksums,
/// campaign identities) hashes through this type.
///
/// Strings have two framings, and each persisted key is bound to the
/// one it was minted with: [`Fnv::write_str`] length-prefixes the
/// bytes (span IDs, benchmark digests), while
/// [`Fnv::write_str_delimited`] appends a `0xff` terminator (platform
/// fingerprints, job keys, journals, stores and campaign identities).
/// [`Fnv::write_debug_delimited`] absorbs a value's `Debug` form in the
/// delimited framing without materialising the string.
///
/// The [`fmt::Write`] impl absorbs raw bytes with no framing, so
/// `write!` streams formatted text into the hash; the inherent
/// [`Fnv::write_str`] (length-prefixed) shadows the trait method of the
/// same name in method-call syntax.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string (length-prefixed to avoid concatenation
    /// ambiguity).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a string followed by a `0xff` terminator (a byte no UTF-8
    /// string contains), so `"ab" + "c"` and `"a" + "bc"` differ.
    pub fn write_str_delimited(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Absorbs `value`'s `{:?}` rendering followed by a `0xff`
    /// terminator: byte for byte what
    /// `write_str_delimited(&format!("{value:?}"))` absorbs, streamed
    /// through [`fmt::Write`] instead of built as one string.
    pub fn write_debug_delimited<T: fmt::Debug + ?Sized>(&mut self, value: &T) {
        // The hasher's `write_str` never fails, so an error could only
        // come from `value`'s own `Debug` impl, where `format!` panics.
        let _ = fmt::Write::write_fmt(self, format_args!("{value:?}"));
        self.write(&[0xff]);
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let h = |parts: &[&str]| {
            let mut f = Fnv::new();
            for p in parts {
                f.write_str(p);
            }
            f.finish()
        };
        assert_ne!(h(&["ab", "c"]), h(&["a", "bc"]));
        assert_eq!(h(&["ab", "c"]), h(&["ab", "c"]));
    }

    /// The two string framings feed different byte streams; persisted
    /// keys depend on each staying exactly as it is.
    #[test]
    fn string_framings_are_pinned() {
        let mut f = Fnv::new();
        f.write_str("aurix");
        assert_eq!(f.finish(), 0xaaa6_1429_9b90_7709);

        let mut d = Fnv::new();
        d.write_str_delimited("aurix");
        d.write_u64(27);
        assert_eq!(d.finish(), 0x7b56_64a8_82bf_6ee4);

        let mut ab = Fnv::new();
        ab.write_str_delimited("ab");
        ab.write_str_delimited("c");
        let mut a = Fnv::new();
        a.write_str_delimited("a");
        a.write_str_delimited("bc");
        assert_ne!(ab.finish(), a.finish());
    }

    /// Streaming a `Debug` form absorbs exactly the bytes of the
    /// formatted-string route, so keys minted either way agree.
    #[test]
    fn debug_streaming_matches_the_formatted_string() {
        let value = (vec![1u32, 2, 3], "tc277", Some(-7i64), [0.5f64; 2]);
        let mut streamed = Fnv::new();
        streamed.write_debug_delimited(&value);
        let mut formatted = Fnv::new();
        formatted.write_str_delimited(&format!("{value:?}"));
        assert_eq!(streamed.finish(), formatted.finish());

        let mut raw = Fnv::new();
        fmt::Write::write_str(&mut raw, "aurix").unwrap();
        assert_eq!(raw.finish(), fnv1a(b"aurix"));
    }
}
