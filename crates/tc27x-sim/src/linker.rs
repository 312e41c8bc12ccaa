//! The linker: places task code and data into the memory map and
//! compiles programs into the executable form the core pipeline runs.
//!
//! Linking validates every placement against Table 3
//! ([`crate::layout::Placement::validate`]), checks scratchpad ownership
//! and region capacity, resolves data references and flattens nested
//! loops into a flat instruction vector with explicit backward branches.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::addr::{CoreId, MemMap, Region};
//! use tc27x_sim::layout::{DataObject, Placement, TaskSpec};
//! use tc27x_sim::linker::Linker;
//! use tc27x_sim::program::{Pattern, Program};
//!
//! # fn main() -> Result<(), tc27x_sim::layout::LayoutError> {
//! let prog = Program::build(|b| {
//!     b.repeat(8, |b| { b.load("buf", Pattern::Sequential); });
//! });
//! let spec = TaskSpec::new("t", prog, Placement::new(Region::Pflash0, true))
//!     .with_object(DataObject::new("buf", 1024, Placement::new(Region::Lmu, false)));
//! let mut linker = Linker::new(MemMap::tc277());
//! let image = linker.link(CoreId(1), &spec)?;
//! assert_eq!(image.instrs.len(), 2); // load + loop branch
//! # Ok(())
//! # }
//! ```

use crate::addr::{Addr, CoreId, MemMap, Region, LINE_BYTES};
use crate::layout::{LayoutError, Placement, TaskSpec};
use crate::program::{Op, Pattern, OP_BYTES};
use crate::Operation;
use std::collections::HashMap;

/// A compiled instruction with its linked code address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinkedInstr {
    /// Fetch address of this instruction.
    pub addr: Addr,
    /// Whether the fetch goes through a cacheable view.
    pub cacheable: bool,
    /// Region holding the instruction.
    pub region: Region,
    /// The operation itself.
    pub kind: InstrKind,
}

/// Executable instruction kinds (loops are flattened to [`InstrKind::LoopEnd`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstrKind {
    /// Busy pipeline work for the given cycles.
    Compute(u32),
    /// Memory access against object `obj` (index into
    /// [`TaskImage::objects`]).
    Mem {
        /// Object index.
        obj: u16,
        /// Walk pattern.
        pattern: Pattern,
        /// Store (`true`) or load.
        write: bool,
    },
    /// Backward branch: executed once per iteration, jumps to `target`
    /// while fewer than `count` iterations have completed.
    LoopEnd {
        /// Global instruction index of the loop body start.
        target: u32,
        /// Total iterations.
        count: u32,
    },
}

/// A linked data object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ObjRt {
    /// Object name.
    pub name: String,
    /// Base address (through the placement's view).
    pub base: Addr,
    /// Size in bytes.
    pub size: u32,
    /// Region holding the object.
    pub region: Region,
    /// Whether accesses go through a cacheable view.
    pub cacheable: bool,
}

/// A fully linked, executable task.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskImage {
    /// Task name.
    pub name: String,
    /// Flat instruction stream (all segments concatenated).
    pub instrs: Vec<LinkedInstr>,
    /// Linked data objects.
    pub objects: Vec<ObjRt>,
    /// Activation count (whole stream repeats).
    pub activations: u32,
    /// RNG seed for random patterns.
    pub seed: u64,
}

impl TaskImage {
    /// Code bytes occupied (sum over segments, without alignment gaps).
    pub fn code_bytes(&self) -> u32 {
        self.instrs.len() as u32 * OP_BYTES
    }

    /// Index of a linked object by name.
    pub fn object_index(&self, name: &str) -> Option<u16> {
        self.objects
            .iter()
            .position(|o| o.name == name)
            .map(|i| i as u16)
    }
}

/// Allocates addresses region-by-region and compiles task specs.
///
/// One `Linker` should be used per [`crate::system::System`] so that
/// tasks linked into the same system never overlap in shared memories.
#[derive(Clone, Debug)]
pub struct Linker {
    map: MemMap,
    cursors: HashMap<RegionKey, u32>,
}

/// Hashable key for a region (CoreId is embedded).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum RegionKey {
    Pspr(u8),
    Dspr(u8),
    Pflash0,
    Pflash1,
    Dflash,
    Lmu,
}

impl From<Region> for RegionKey {
    fn from(r: Region) -> Self {
        match r {
            Region::Pspr(c) => RegionKey::Pspr(c.0),
            Region::Dspr(c) => RegionKey::Dspr(c.0),
            Region::Pflash0 => RegionKey::Pflash0,
            Region::Pflash1 => RegionKey::Pflash1,
            Region::Dflash => RegionKey::Dflash,
            Region::Lmu => RegionKey::Lmu,
        }
    }
}

impl Linker {
    /// Creates a linker over a memory map with all regions empty.
    pub fn new(map: MemMap) -> Self {
        Linker {
            map,
            cursors: HashMap::new(),
        }
    }

    /// The memory map used for linking.
    pub fn map(&self) -> &MemMap {
        &self.map
    }

    /// Allocates `size` line-aligned bytes in `region`; returns the
    /// offset from the region base.
    fn allocate(&mut self, region: Region, size: u32) -> Result<u32, LayoutError> {
        let cap = self.map.region_size(region);
        let cursor = self.cursors.entry(region.into()).or_insert(0);
        let aligned = (*cursor).next_multiple_of(LINE_BYTES);
        let end = aligned as u64 + size as u64;
        if end > cap as u64 {
            return Err(LayoutError::RegionOverflow {
                region,
                requested: end,
                available: cap as u64,
            });
        }
        *cursor = end as u32;
        Ok(aligned)
    }

    fn check_ownership(core: CoreId, placement: Placement) -> Result<(), LayoutError> {
        match placement.region {
            Region::Pspr(owner) | Region::Dspr(owner) if owner != core => {
                Err(LayoutError::ForeignScratchpad {
                    running_on: core,
                    owner,
                })
            }
            _ => Ok(()),
        }
    }

    /// Links a task spec for execution on `core`.
    ///
    /// # Errors
    ///
    /// Any [`LayoutError`]: Table 3 violations, foreign scratchpads,
    /// region overflow, undeclared or empty data objects.
    pub fn link(&mut self, core: CoreId, spec: &TaskSpec) -> Result<TaskImage, LayoutError> {
        // Data objects first (programs reference them).
        let mut objects = Vec::with_capacity(spec.data_objects.len());
        for o in &spec.data_objects {
            o.placement.validate(Operation::Data)?;
            Self::check_ownership(core, o.placement)?;
            if o.size == 0 {
                return Err(LayoutError::EmptyObject {
                    name: o.name.clone(),
                });
            }
            let off = self.allocate(o.placement.region, o.size)?;
            let base = self
                .map
                .region_base(o.placement.region, o.placement.cacheable)
                .offset(off);
            objects.push(ObjRt {
                name: o.name.clone(),
                base,
                size: o.size,
                region: o.placement.region,
                cacheable: o.placement.cacheable,
            });
        }
        let obj_index = |name: &str| -> Result<u16, LayoutError> {
            objects
                .iter()
                .position(|o| o.name == name)
                .map(|i| i as u16)
                .ok_or_else(|| LayoutError::UnknownObject {
                    name: name.to_owned(),
                })
        };

        // Compile and place each segment.
        let mut instrs: Vec<LinkedInstr> = Vec::new();
        for seg in &spec.segments {
            seg.placement.validate(Operation::Code)?;
            Self::check_ownership(core, seg.placement)?;

            let start = instrs.len();
            compile_ops(seg.program.ops(), &mut instrs, &obj_index, seg.placement)?;
            let emitted = (instrs.len() - start) as u32;
            if emitted == 0 {
                continue;
            }
            let off = self.allocate(seg.placement.region, emitted * OP_BYTES)?;
            let base = self
                .map
                .region_base(seg.placement.region, seg.placement.cacheable)
                .offset(off);
            for (i, instr) in instrs[start..].iter_mut().enumerate() {
                instr.addr = base.offset(i as u32 * OP_BYTES);
            }
        }

        Ok(TaskImage {
            name: spec.name.clone(),
            instrs,
            objects,
            activations: spec.activations,
            seed: spec.seed,
        })
    }
}

/// Recursively compiles an op tree into `out` (addresses patched later).
fn compile_ops(
    ops: &[Op],
    out: &mut Vec<LinkedInstr>,
    obj_index: &dyn Fn(&str) -> Result<u16, LayoutError>,
    placement: Placement,
) -> Result<(), LayoutError> {
    let blank = |kind: InstrKind| LinkedInstr {
        addr: Addr(0),
        cacheable: placement.cacheable,
        region: placement.region,
        kind,
    };
    for op in ops {
        match op {
            Op::Compute(n) => out.push(blank(InstrKind::Compute(*n))),
            Op::Load(r) => out.push(blank(InstrKind::Mem {
                obj: obj_index(&r.object)?,
                pattern: r.pattern,
                write: false,
            })),
            Op::Store(r) => out.push(blank(InstrKind::Mem {
                obj: obj_index(&r.object)?,
                pattern: r.pattern,
                write: true,
            })),
            Op::Loop { count: 0, .. } => {}
            Op::Loop { count, body } => {
                let target = out.len() as u32;
                compile_ops(body, out, obj_index, placement)?;
                out.push(blank(InstrKind::LoopEnd {
                    target,
                    count: *count,
                }));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataObject;
    use crate::program::Program;

    fn lmu_nc() -> Placement {
        Placement::new(Region::Lmu, false)
    }

    fn pf0() -> Placement {
        Placement::new(Region::Pflash0, true)
    }

    #[test]
    fn loops_flatten_with_back_branch() {
        let prog = Program::build(|b| {
            b.compute(1);
            b.repeat(5, |b| {
                b.compute(2);
                b.compute(3);
            });
        });
        let spec = TaskSpec::new("t", prog, pf0());
        let img = Linker::new(MemMap::tc277()).link(CoreId(1), &spec).unwrap();
        assert_eq!(img.instrs.len(), 4);
        match img.instrs[3].kind {
            InstrKind::LoopEnd { target, count } => {
                assert_eq!(target, 1);
                assert_eq!(count, 5);
            }
            ref k => panic!("expected LoopEnd, got {k:?}"),
        }
        // Addresses are consecutive 4-byte slots.
        for (i, instr) in img.instrs.iter().enumerate() {
            assert_eq!(instr.addr.0 - img.instrs[0].addr.0, i as u32 * 4);
        }
    }

    #[test]
    fn zero_count_loops_are_elided() {
        let prog = Program::build(|b| {
            b.repeat(0, |b| {
                b.compute(1);
            });
            b.compute(9);
        });
        let spec = TaskSpec::new("t", prog, pf0());
        let img = Linker::new(MemMap::tc277()).link(CoreId(1), &spec).unwrap();
        assert_eq!(img.instrs.len(), 1);
    }

    #[test]
    fn objects_are_line_aligned_and_disjoint() {
        let spec = TaskSpec::empty("t")
            .with_object(DataObject::new("a", 40, lmu_nc()))
            .with_object(DataObject::new("b", 8, lmu_nc()));
        let img = Linker::new(MemMap::tc277()).link(CoreId(1), &spec).unwrap();
        let a = &img.objects[0];
        let b = &img.objects[1];
        assert_eq!(a.base.0 % LINE_BYTES, 0);
        assert_eq!(b.base.0 % LINE_BYTES, 0);
        assert!(b.base.0 >= a.base.0 + 40);
    }

    #[test]
    fn two_tasks_share_a_region_without_overlap() {
        let mk =
            |name: &str| TaskSpec::empty(name).with_object(DataObject::new("x", 100, lmu_nc()));
        let mut linker = Linker::new(MemMap::tc277());
        let i1 = linker.link(CoreId(1), &mk("t1")).unwrap();
        let i2 = linker.link(CoreId(2), &mk("t2")).unwrap();
        let r1 = i1.objects[0].base.0..i1.objects[0].base.0 + 100;
        let r2 = i2.objects[0].base.0..i2.objects[0].base.0 + 100;
        assert!(r1.end <= r2.start || r2.end <= r1.start);
    }

    #[test]
    fn region_overflow_is_reported() {
        // LMU is 32 KiB.
        let spec = TaskSpec::empty("t").with_object(DataObject::new("big", 33 << 10, lmu_nc()));
        match Linker::new(MemMap::tc277()).link(CoreId(1), &spec) {
            Err(LayoutError::RegionOverflow { region, .. }) => assert_eq!(region, Region::Lmu),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn foreign_scratchpad_rejected() {
        let spec =
            TaskSpec::empty("t").with_object(DataObject::new("x", 8, Placement::dspr(CoreId(2))));
        match Linker::new(MemMap::tc277()).link(CoreId(1), &spec) {
            Err(LayoutError::ForeignScratchpad { running_on, owner }) => {
                assert_eq!(running_on, CoreId(1));
                assert_eq!(owner, CoreId(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_object_rejected() {
        let prog = Program::build(|b| {
            b.load("ghost", Pattern::Sequential);
        });
        let spec = TaskSpec::new("t", prog, pf0());
        match Linker::new(MemMap::tc277()).link(CoreId(1), &spec) {
            Err(LayoutError::UnknownObject { name }) => assert_eq!(name, "ghost"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_object_rejected() {
        let spec = TaskSpec::empty("t").with_object(DataObject::new("z", 0, lmu_nc()));
        assert!(matches!(
            Linker::new(MemMap::tc277()).link(CoreId(1), &spec),
            Err(LayoutError::EmptyObject { .. })
        ));
    }

    #[test]
    fn table3_enforced_at_link_time() {
        // Non-cacheable data in pflash.
        let spec = TaskSpec::empty("t").with_object(DataObject::new(
            "x",
            8,
            Placement::new(Region::Pflash0, false),
        ));
        assert!(matches!(
            Linker::new(MemMap::tc277()).link(CoreId(1), &spec),
            Err(LayoutError::ForbiddenPlacement { .. })
        ));
        // Code in dflash.
        let prog = Program::build(|b| {
            b.compute(1);
        });
        let spec = TaskSpec::new("t", prog, Placement::new(Region::Dflash, false));
        assert!(matches!(
            Linker::new(MemMap::tc277()).link(CoreId(1), &spec),
            Err(LayoutError::ForbiddenPlacement { .. })
        ));
    }

    #[test]
    fn multi_segment_addresses_land_in_their_regions() {
        let seg1 = Program::build(|b| {
            b.compute(1);
        });
        let seg2 = Program::build(|b| {
            b.compute(2);
        });
        let spec = TaskSpec::empty("t")
            .with_segment(seg1, Placement::pspr(CoreId(1)))
            .with_segment(seg2, Placement::new(Region::Pflash1, true));
        let img = Linker::new(MemMap::tc277()).link(CoreId(1), &spec).unwrap();
        assert_eq!(img.instrs[0].region, Region::Pspr(CoreId(1)));
        assert_eq!(img.instrs[1].region, Region::Pflash1);
        assert!(img.instrs[1].cacheable);
        assert!(!img.instrs[0].cacheable);
    }

    #[test]
    fn object_index_lookup() {
        let spec = TaskSpec::empty("t")
            .with_object(DataObject::new("a", 8, lmu_nc()))
            .with_object(DataObject::new("b", 8, lmu_nc()));
        let img = Linker::new(MemMap::tc277()).link(CoreId(0), &spec).unwrap();
        assert_eq!(img.object_index("b"), Some(1));
        assert_eq!(img.object_index("c"), None);
    }
}
