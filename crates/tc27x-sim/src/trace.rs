//! Bounded execution traces: a per-core event log for debugging
//! workloads and validating counter semantics.
//!
//! Tracing is off by default (zero overhead beyond a branch); enable it
//! with [`crate::config::SimConfig::trace_capacity`]. The trace is a
//! bounded buffer — once full, further events are dropped and counted,
//! so long runs cannot exhaust memory.

use crate::addr::CoreId;
use crate::{Operation, Target};
use std::fmt;

/// One traced event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Cycle the event occurred at.
    pub cycle: u64,
    /// Core the event belongs to.
    pub core: CoreId,
    /// What happened.
    pub kind: TraceKind,
}

/// Event kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// An SRI transaction was posted.
    SriPost {
        /// Destination slave.
        target: Target,
        /// Code fetch or data access.
        class: Operation,
        /// Write transaction.
        write: bool,
    },
    /// A posted transaction completed; `stall` pipeline cycles were
    /// charged (after hiding).
    SriComplete {
        /// Destination slave.
        target: Target,
        /// End-to-end latency (queueing + service).
        latency: u64,
        /// Stall cycles charged to the pipeline.
        stall: u64,
    },
    /// An instruction-cache miss (cacheable fetch).
    IcacheMiss {
        /// Missing line index.
        line: u32,
    },
    /// A data-cache miss.
    DcacheMiss {
        /// Missing line index.
        line: u32,
        /// The access was a store.
        write: bool,
        /// A dirty victim was evicted (write-back issued).
        dirty_eviction: bool,
    },
    /// The task finished all activations.
    TaskComplete,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] {} ", self.cycle, self.core)?;
        match self.kind {
            TraceKind::SriPost {
                target,
                class,
                write,
            } => write!(
                f,
                "sri-post {target} {}{}",
                class.long_name(),
                if write { " write" } else { "" }
            ),
            TraceKind::SriComplete {
                target,
                latency,
                stall,
            } => write!(f, "sri-done {target} latency={latency} stall={stall}"),
            TraceKind::IcacheMiss { line } => write!(f, "i$-miss line={line:#x}"),
            TraceKind::DcacheMiss {
                line,
                write,
                dirty_eviction,
            } => write!(
                f,
                "d$-miss line={line:#x}{}{}",
                if write { " write" } else { "" },
                if dirty_eviction { " dirty-evict" } else { "" }
            ),
            TraceKind::TaskComplete => write!(f, "task-complete"),
        }
    }
}

/// A bounded per-core trace buffer.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace with the given capacity (0 disables recording).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            records: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Returns `true` if recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (drops it, counted, when full).
    pub fn record(&mut self, cycle: u64, core: CoreId, kind: TraceKind) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() < self.capacity {
            self.records.push(TraceRecord { cycle, core, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Returns `true` if the buffer filled up and at least one event
    /// was silently dropped — renderers should warn the reader that the
    /// trace is incomplete (see [`crate::system::RunOutcome::trace_dropped`]).
    pub fn is_truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Iterates over events of one kind predicate.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&TraceKind) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| pred(&r.kind))
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            writeln!(f, "{r}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "... {} events dropped", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::with_capacity(0);
        assert!(!t.is_enabled());
        t.record(1, CoreId(0), TraceKind::TaskComplete);
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(i, CoreId(1), TraceKind::TaskComplete);
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn filter_selects_kinds() {
        let mut t = Trace::with_capacity(10);
        t.record(1, CoreId(1), TraceKind::IcacheMiss { line: 5 });
        t.record(2, CoreId(1), TraceKind::TaskComplete);
        t.record(3, CoreId(1), TraceKind::IcacheMiss { line: 6 });
        let misses: Vec<_> = t
            .filter(|k| matches!(k, TraceKind::IcacheMiss { .. }))
            .collect();
        assert_eq!(misses.len(), 2);
    }

    #[test]
    fn display_is_line_oriented() {
        let mut t = Trace::with_capacity(4);
        t.record(
            7,
            CoreId(2),
            TraceKind::SriComplete {
                target: Target::Lmu,
                latency: 11,
                stall: 10,
            },
        );
        let s = t.to_string();
        assert!(s.contains("sri-done lmu latency=11 stall=10"), "{s}");
    }
}
