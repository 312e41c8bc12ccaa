//! Set-associative caches with true-LRU replacement and dirty tracking.
//!
//! Used for both the per-core instruction caches (read-only) and the
//! TriCore 1.6P data caches (write-back, write-allocate). The TriCore
//! 1.6E's 32-byte data read buffer (DRB) is the degenerate 1-set/1-way
//! instance.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::cache::{Cache, CacheGeometry, Lookup};
//!
//! let mut c = Cache::new(CacheGeometry::new(1024, 2));
//! let line = 0x8000_0000u32 / 32;
//! assert!(matches!(c.access(line, false), Lookup::Miss { .. }));
//! assert!(matches!(c.access(line, false), Lookup::Hit));
//! ```

use crate::addr::LINE_BYTES;
use std::fmt;

/// Geometry of a cache: total size and associativity (32-byte lines).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Number of ways per set.
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a positive multiple of
    /// `ways * LINE_BYTES` and the resulting set count is a power of two.
    pub fn new(size_bytes: u32, ways: u32) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(ways * LINE_BYTES),
            "size must be a multiple of ways×line"
        );
        let sets = size_bytes / (ways * LINE_BYTES);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry { size_bytes, ways }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * LINE_BYTES)
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> u32 {
        self.size_bytes / LINE_BYTES
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B/{}-way", self.size_bytes, self.ways)
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated.
    Miss {
        /// If a dirty line was evicted to make room, its line index: the
        /// caller must issue a write-back transaction for it.
        evicted_dirty: Option<u32>,
    },
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// A set-associative, true-LRU, write-back write-allocate cache model.
///
/// The cache stores no data — only tags — because the simulator tracks
/// timing, not values.
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    ways: Vec<Way>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geometry: CacheGeometry) -> Self {
        Cache {
            geometry,
            ways: vec![Way::default(); (geometry.sets() * geometry.ways) as usize],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_range(&self, line: u32) -> std::ops::Range<usize> {
        let set = (line % self.geometry.sets()) as usize;
        let w = self.geometry.ways as usize;
        set * w..(set + 1) * w
    }

    /// Accesses the given line; `write` marks the line dirty on hit or
    /// allocation.
    ///
    /// Returns whether it hit and, on a miss, whether a dirty victim was
    /// evicted (the victim's line index is reconstructed so the caller
    /// can route the write-back to the right SRI slave).
    pub fn access(&mut self, line: u32, write: bool) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        let sets = self.geometry.sets();
        let range = self.set_range(line);
        let tag = line / sets;
        let set = (line % sets) as usize;

        // Hit path.
        if let Some(w) = self.ways[range.clone()]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            w.lru = tick;
            if write {
                w.dirty = true;
            }
            self.hits += 1;
            return Lookup::Hit;
        }

        self.misses += 1;
        // Choose victim: invalid way first, else LRU.
        let ways = &mut self.ways[range];
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { (1, w.lru) } else { (0, 0) })
            .unwrap_or_else(|| unreachable!("sets are never empty"));
        let evicted_dirty = (victim.valid && victim.dirty).then(|| victim.tag * sets + set as u32);
        victim.tag = tag;
        victim.valid = true;
        victim.dirty = write;
        victim.lru = tick;
        Lookup::Miss { evicted_dirty }
    }

    /// Replays a recorded access that is known to hit: identical to
    /// [`Cache::access`] (LRU, dirty bit and hit statistics all move),
    /// with a debug assertion that the line really is resident. The
    /// block memo only records hit accesses, and replay guards verify
    /// residency of every recorded line before committing.
    pub(crate) fn replay_hit(&mut self, line: u32, write: bool) {
        let looked_up = self.access(line, write);
        debug_assert_eq!(looked_up, Lookup::Hit, "memo replayed a non-resident line");
    }

    /// Appends the state that decides every future lookup: per set, the
    /// valid ways (tag and dirty bit) from most to least recently used,
    /// then one zero per invalid way. Two caches with equal encodings
    /// hit, miss and evict identically on any access sequence, whatever
    /// their absolute LRU stamps and way positions.
    pub(crate) fn canonical_into(&self, out: &mut Vec<u64>) {
        let w = self.geometry.ways as usize;
        let mut set: Vec<Way> = Vec::with_capacity(w);
        for ways in self.ways.chunks(w) {
            set.clear();
            set.extend(ways.iter().filter(|w| w.valid));
            set.sort_unstable_by_key(|w| std::cmp::Reverse(w.lru));
            out.extend(
                set.iter()
                    .map(|w| (u64::from(w.tag) << 2) | (u64::from(w.dirty) << 1) | 1),
            );
            out.extend(std::iter::repeat_n(0, w - set.len()));
        }
    }

    /// Adds `k` times the hits and misses counted since a past
    /// `(hits, misses)` reading.
    pub(crate) fn repeat_stats_since(&mut self, earlier: (u64, u64), k: u64) {
        self.hits += k * (self.hits - earlier.0);
        self.misses += k * (self.misses - earlier.1);
    }

    /// Returns `true` if the line is currently resident (no LRU update).
    pub fn probe(&self, line: u32) -> bool {
        let sets = self.geometry.sets();
        let tag = line / sets;
        self.ways[self.set_range(line)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates everything (keeps statistics).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.dirty = false;
        }
    }
}

impl crate::engine::EventSource for Cache {
    /// Caches are combinational in this model: they only change state
    /// inside the owning core's step (`access`), never on their own
    /// clock, so they are permanently passive to the event kernel.
    fn next_event(&self, _now: u64) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of(addr: u32) -> u32 {
        addr / LINE_BYTES
    }

    #[test]
    fn geometry_arithmetic() {
        let g = CacheGeometry::new(16 << 10, 2);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.to_string(), "16384B/2-way");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(96, 1);
    }

    #[test]
    fn basic_hit_miss() {
        let mut c = Cache::new(CacheGeometry::new(64, 1)); // 2 sets, direct-mapped
        let a = line_of(0);
        assert_eq!(
            c.access(a, false),
            Lookup::Miss {
                evicted_dirty: None
            }
        );
        assert_eq!(c.access(a, false), Lookup::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut c = Cache::new(CacheGeometry::new(64, 1)); // 2 sets
        let a = 0u32; // set 0
        let b = 2u32; // set 0 too (2 % 2 == 0)
        c.access(a, false);
        c.access(b, false); // evicts a (clean)
        assert_eq!(
            c.access(a, false),
            Lookup::Miss {
                evicted_dirty: None
            }
        );
    }

    #[test]
    fn dirty_eviction_reports_victim_line() {
        let mut c = Cache::new(CacheGeometry::new(64, 1)); // 2 sets
        let a = 4u32; // set 0 (4 % 2 == 0)
        let b = 6u32; // set 0
        c.access(a, true); // dirty
        match c.access(b, false) {
            Lookup::Miss { evicted_dirty } => assert_eq!(evicted_dirty, Some(a)),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_keeps_most_recent() {
        let mut c = Cache::new(CacheGeometry::new(64, 2)); // 1 set, 2 ways
        let (a, b, d) = (0u32, 1, 2);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn write_hit_marks_dirty_for_later_eviction() {
        let mut c = Cache::new(CacheGeometry::new(32, 1)); // 1 set
        let a = 0u32;
        c.access(a, false); // clean allocation
        c.access(a, true); // dirty via write hit
        match c.access(1, false) {
            Lookup::Miss { evicted_dirty } => assert_eq!(evicted_dirty, Some(a)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut c = Cache::new(CacheGeometry::new(64, 2));
        c.access(0, true);
        c.flush();
        assert!(!c.probe(0));
        // Dirty state cleared: refilling then evicting reports no write-back.
        c.access(0, false);
        c.access(1, false);
        match c.access(2, false) {
            Lookup::Miss { evicted_dirty } => assert_eq!(evicted_dirty, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drb_as_single_line_cache() {
        // TriCore 1.6E data read buffer: 32 bytes, one way.
        let mut drb = Cache::new(CacheGeometry::new(32, 1));
        assert_eq!(drb.geometry().lines(), 1);
        drb.access(10, false);
        assert!(matches!(drb.access(10, false), Lookup::Hit));
        assert!(matches!(drb.access(11, false), Lookup::Miss { .. }));
        assert!(!drb.probe(10));
    }
}
