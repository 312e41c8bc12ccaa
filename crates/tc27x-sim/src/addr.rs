//! Physical addressing and the TC27x memory map.
//!
//! The simulator uses a simplified but structurally faithful version of
//! the AURIX TC27x address space: per-core program/data scratchpads
//! (PSPR/DSPR, reachable without SRI traffic), the two program-flash
//! banks (PFLASH0/PFLASH1), the data flash (DFLASH) and the LMU SRAM —
//! the four shared SRI slaves of the paper. Shared memories are visible
//! through two segment aliases, a *cacheable* view and a *non-cacheable*
//! view, mirroring the TriCore segment-based cacheability scheme.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::addr::{Addr, MemMap, Region};
//! use tc27x_sim::Target;
//!
//! let map = MemMap::tc277();
//! let a = map.region_base(Region::Pflash0, true); // cacheable view
//! let loc = map.decode(a).unwrap();
//! assert_eq!(loc.region, Region::Pflash0);
//! assert!(loc.cacheable);
//! assert_eq!(loc.region.sri_target(), Some(Target::Pf0));
//! ```

use crate::Target;
use std::fmt;

/// Cache-line size of all caches and fetch buffers, in bytes.
pub const LINE_BYTES: u32 = 32;

/// A 32-bit physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Addr(pub u32);

impl Addr {
    /// The cache line index this address falls into (global).
    pub fn line(self) -> u32 {
        self.0 / LINE_BYTES
    }

    /// Byte offset within the cache line.
    pub fn line_offset(self) -> u32 {
        self.0 % LINE_BYTES
    }

    /// Adds a byte offset.
    #[must_use]
    pub fn offset(self, bytes: u32) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Self {
        Addr(v)
    }
}

/// Identifier of a core on the TC277 (0 = TriCore 1.6E, 1 and 2 =
/// TriCore 1.6P).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Number of cores on the TC277.
    pub const COUNT: usize = 3;

    /// All core ids, in order.
    pub fn all() -> [CoreId; Self::COUNT] {
        [CoreId(0), CoreId(1), CoreId(2)]
    }

    /// Index usable for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the low-power TriCore 1.6E core (core 0).
    pub fn is_efficiency(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A physical memory region of the TC27x.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// Program scratchpad of a core (no SRI traffic).
    Pspr(CoreId),
    /// Data scratchpad of a core (no SRI traffic).
    Dspr(CoreId),
    /// Program flash bank 0 (SRI slave `pf0`).
    Pflash0,
    /// Program flash bank 1 (SRI slave `pf1`).
    Pflash1,
    /// Data flash (SRI slave `dfl`).
    Dflash,
    /// Local Memory Unit SRAM (SRI slave `lmu`).
    Lmu,
}

impl Region {
    /// The SRI slave this region is served by, if it is shared.
    pub fn sri_target(self) -> Option<Target> {
        match self {
            Region::Pflash0 => Some(Target::Pf0),
            Region::Pflash1 => Some(Target::Pf1),
            Region::Dflash => Some(Target::Dfl),
            Region::Lmu => Some(Target::Lmu),
            Region::Pspr(_) | Region::Dspr(_) => None,
        }
    }

    /// Returns `true` if the region is core-local (scratchpad).
    pub fn is_local(self) -> bool {
        matches!(self, Region::Pspr(_) | Region::Dspr(_))
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Pspr(c) => write!(f, "pspr[{}]", c.0),
            Region::Dspr(c) => write!(f, "dspr[{}]", c.0),
            Region::Pflash0 => write!(f, "pf0"),
            Region::Pflash1 => write!(f, "pf1"),
            Region::Dflash => write!(f, "dfl"),
            Region::Lmu => write!(f, "lmu"),
        }
    }
}

/// A decoded address: region, offset within the region and the
/// cacheability of the view it was accessed through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Location {
    /// The physical region.
    pub region: Region,
    /// Byte offset from the region base.
    pub offset: u32,
    /// Whether the access goes through the cacheable segment alias.
    pub cacheable: bool,
}

/// The memory map: region bases, sizes and segment aliases.
///
/// Shared regions get two views: the base in the cacheable segment and a
/// mirror in the non-cacheable segment (TriCore style). Scratchpads are
/// always non-cacheable (they are as fast as a cache already).
#[derive(Clone, Debug)]
pub struct MemMap {
    entries: Vec<MapEntry>,
}

#[derive(Clone, Debug)]
struct MapEntry {
    region: Region,
    base: u32,
    size: u32,
    cacheable: bool,
}

impl MemMap {
    /// The TC277 reference map used throughout this workspace.
    ///
    /// Sizes follow Figure 1 of the paper: 24/32 KiB PSPR, 112/120 KiB
    /// DSPR, 2 × 1 MiB PFLASH, 384 KiB DFLASH, 32 KiB LMU RAM.
    pub fn tc277() -> Self {
        let mut entries = Vec::new();
        for c in CoreId::all() {
            let pspr_size = if c.is_efficiency() {
                24 << 10
            } else {
                32 << 10
            };
            let dspr_size = if c.is_efficiency() {
                112 << 10
            } else {
                120 << 10
            };
            entries.push(MapEntry {
                region: Region::Pspr(c),
                base: 0x1000_0000 + (c.0 as u32) * 0x0010_0000,
                size: pspr_size,
                cacheable: false,
            });
            entries.push(MapEntry {
                region: Region::Dspr(c),
                base: 0x2000_0000 + (c.0 as u32) * 0x0010_0000,
                size: dspr_size,
                cacheable: false,
            });
        }
        for (region, c_base, n_base, size) in [
            (Region::Pflash0, 0x8000_0000u32, 0xA000_0000u32, 1 << 20),
            (Region::Pflash1, 0x8800_0000, 0xA800_0000, 1 << 20),
            (Region::Lmu, 0x9000_0000, 0xB000_0000, 32 << 10),
        ] {
            entries.push(MapEntry {
                region,
                base: c_base,
                size,
                cacheable: true,
            });
            entries.push(MapEntry {
                region,
                base: n_base,
                size,
                cacheable: false,
            });
        }
        // DFLASH is only reachable non-cacheable (Table 3: data n$ only).
        entries.push(MapEntry {
            region: Region::Dflash,
            base: 0xAF00_0000,
            size: 384 << 10,
            cacheable: false,
        });
        MemMap { entries }
    }

    /// Decodes an address into its region/offset/cacheability, or `None`
    /// for unmapped addresses.
    pub fn decode(&self, addr: Addr) -> Option<Location> {
        self.entries.iter().find_map(|e| {
            let off = addr.0.wrapping_sub(e.base);
            (off < e.size).then_some(Location {
                region: e.region,
                offset: off,
                cacheable: e.cacheable,
            })
        })
    }

    /// Base address of a region through the requested view.
    ///
    /// # Panics
    ///
    /// Panics if the region has no view with the requested cacheability
    /// (e.g. a cacheable view of DFLASH or of a scratchpad).
    pub fn region_base(&self, region: Region, cacheable: bool) -> Addr {
        self.entries
            .iter()
            .find(|e| e.region == region && e.cacheable == cacheable)
            .map(|e| Addr(e.base))
            .unwrap_or_else(|| panic!("region {region} has no cacheable={cacheable} view"))
    }

    /// Whether the region offers a view with the given cacheability.
    pub fn has_view(&self, region: Region, cacheable: bool) -> bool {
        self.entries
            .iter()
            .any(|e| e.region == region && e.cacheable == cacheable)
    }

    /// The size of a region in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the region is not in the map.
    pub fn region_size(&self, region: Region) -> u32 {
        self.entries
            .iter()
            .find(|e| e.region == region)
            .map(|e| e.size)
            .unwrap_or_else(|| unreachable!("region not mapped"))
    }
}

impl Default for MemMap {
    fn default() -> Self {
        MemMap::tc277()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_roundtrips_all_views() {
        let map = MemMap::tc277();
        for region in [Region::Pflash0, Region::Pflash1, Region::Lmu] {
            for cacheable in [true, false] {
                let base = map.region_base(region, cacheable);
                let loc = map.decode(base.offset(64)).unwrap();
                assert_eq!(loc.region, region);
                assert_eq!(loc.offset, 64);
                assert_eq!(loc.cacheable, cacheable);
            }
        }
    }

    #[test]
    fn dflash_has_no_cacheable_view() {
        let map = MemMap::tc277();
        assert!(!map.has_view(Region::Dflash, true));
        assert!(map.has_view(Region::Dflash, false));
    }

    #[test]
    fn scratchpads_are_local_and_noncacheable() {
        let map = MemMap::tc277();
        for c in CoreId::all() {
            for r in [Region::Pspr(c), Region::Dspr(c)] {
                assert!(r.is_local());
                assert!(r.sri_target().is_none());
                assert!(!map.has_view(r, true));
            }
        }
    }

    #[test]
    fn efficiency_core_has_smaller_scratchpads() {
        let map = MemMap::tc277();
        assert_eq!(map.region_size(Region::Pspr(CoreId(0))), 24 << 10);
        assert_eq!(map.region_size(Region::Pspr(CoreId(1))), 32 << 10);
        assert_eq!(map.region_size(Region::Dspr(CoreId(0))), 112 << 10);
        assert_eq!(map.region_size(Region::Dspr(CoreId(2))), 120 << 10);
    }

    #[test]
    fn out_of_range_decodes_to_none() {
        let map = MemMap::tc277();
        assert!(map.decode(Addr(0x0000_0000)).is_none());
        assert!(map.decode(Addr(0xFFFF_FFF0)).is_none());
        // One past the end of the LMU.
        let lmu_end = map.region_base(Region::Lmu, true).offset(32 << 10);
        assert!(map.decode(lmu_end).is_none());
    }

    #[test]
    fn line_arithmetic() {
        let a = Addr(0x8000_0040);
        assert_eq!(a.line(), 0x8000_0040 / 32);
        assert_eq!(a.line_offset(), 0);
        assert_eq!(a.offset(33).line(), a.line() + 1);
        assert_eq!(a.offset(33).line_offset(), 1);
    }

    #[test]
    fn sri_target_indices_are_dense() {
        let mut seen = [false; Target::COUNT];
        for t in Target::all() {
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(0x9000_0000).to_string(), "0x90000000");
        assert_eq!(Target::Pf0.to_string(), "pf0");
        assert_eq!(Region::Pspr(CoreId(2)).to_string(), "pspr[2]");
        assert_eq!(CoreId(1).to_string(), "core1");
    }
}
