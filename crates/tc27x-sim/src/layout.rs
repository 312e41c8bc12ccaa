//! Deployment layout: where code and data live, and with what
//! cacheability — the "deployment configurations" of §4.
//!
//! The TC27x constrains placement (Table 3 of the paper): code can never
//! live in DFLASH; non-cacheable data can live only in DFLASH or the
//! LMU. [`Placement::validate`] enforces exactly that table.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::layout::Placement;
//! use tc27x_sim::Operation;
//! use tc27x_sim::addr::Region;
//!
//! // Code in PFLASH0, cacheable: allowed.
//! assert!(Placement::new(Region::Pflash0, true).validate(Operation::Code).is_ok());
//! // Non-cacheable data in PFLASH0: forbidden by Table 3.
//! assert!(Placement::new(Region::Pflash0, false).validate(Operation::Data).is_err());
//! ```

use crate::addr::{CoreId, Region};
use crate::program::Program;
use crate::Operation;
use std::error::Error;
use std::fmt;

/// A placement decision: region plus cacheability of the view used.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Placement {
    /// Target region.
    pub region: Region,
    /// Access the region through its cacheable view.
    pub cacheable: bool,
}

impl Placement {
    /// Creates a placement.
    pub fn new(region: Region, cacheable: bool) -> Self {
        Placement { region, cacheable }
    }

    /// Shorthand: local program scratchpad of `core`.
    pub fn pspr(core: CoreId) -> Self {
        Placement::new(Region::Pspr(core), false)
    }

    /// Shorthand: local data scratchpad of `core`.
    pub fn dspr(core: CoreId) -> Self {
        Placement::new(Region::Dspr(core), false)
    }

    /// Checks this placement against the Table 3 constraints for the
    /// given access class.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::ForbiddenPlacement`] when Table 3 forbids
    /// the combination (code in DFLASH; non-cacheable data in PFLASH;
    /// any cacheable view of a scratchpad or DFLASH).
    pub fn validate(self, class: Operation) -> Result<(), LayoutError> {
        let ok = match (class, self.region, self.cacheable) {
            // Code: pf0/pf1/lmu in both modes, scratchpad non-cacheable.
            (Operation::Code, Region::Pflash0 | Region::Pflash1 | Region::Lmu, _) => true,
            (Operation::Code, Region::Pspr(_), false) => true,
            (Operation::Code, _, _) => false,
            // Data: dfl non-cacheable only; pf0/pf1 cacheable only;
            // lmu both; scratchpad non-cacheable.
            (Operation::Data, Region::Dflash, false) => true,
            (Operation::Data, Region::Pflash0 | Region::Pflash1, true) => true,
            (Operation::Data, Region::Lmu, _) => true,
            (Operation::Data, Region::Dspr(_), false) => true,
            (Operation::Data, _, _) => false,
        };
        if ok {
            Ok(())
        } else {
            Err(LayoutError::ForbiddenPlacement {
                class,
                placement: self,
            })
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({})",
            self.region,
            if self.cacheable { "$" } else { "n$" }
        )
    }
}

/// A named data object of a task.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataObject {
    /// Name referenced by [`crate::program::DataRef`]s.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Where the object lives.
    pub placement: Placement,
}

impl DataObject {
    /// Creates a data object.
    pub fn new(name: impl Into<String>, size: u32, placement: Placement) -> Self {
        DataObject {
            name: name.into(),
            size,
            placement,
        }
    }
}

/// A contiguous piece of task code with its own placement; tasks execute
/// their segments in order, which models real deployments where part of
/// the code sits in the scratchpad and part in flash.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodeSegment {
    /// The operations of this segment.
    pub program: Program,
    /// Where the segment's code is linked.
    pub placement: Placement,
}

/// A complete task specification: code segments, data objects, the
/// number of activations and the RNG seed driving random access
/// patterns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskSpec {
    /// Human-readable task name.
    pub name: String,
    /// Code segments, executed in order per activation.
    pub segments: Vec<CodeSegment>,
    /// The task's data objects.
    pub data_objects: Vec<DataObject>,
    /// How many times the whole segment sequence runs (≥ 1).
    pub activations: u32,
    /// Seed for `Pattern::Random` walks.
    pub seed: u64,
}

impl TaskSpec {
    /// Creates a single-segment task spec with no data objects.
    pub fn new(name: impl Into<String>, program: Program, code_placement: Placement) -> Self {
        TaskSpec {
            name: name.into(),
            segments: vec![CodeSegment {
                program,
                placement: code_placement,
            }],
            data_objects: Vec::new(),
            activations: 1,
            seed: 0,
        }
    }

    /// Creates an empty task spec; add segments with
    /// [`TaskSpec::with_segment`].
    pub fn empty(name: impl Into<String>) -> Self {
        TaskSpec {
            name: name.into(),
            segments: Vec::new(),
            data_objects: Vec::new(),
            activations: 1,
            seed: 0,
        }
    }

    /// Appends a code segment (builder style).
    #[must_use]
    pub fn with_segment(mut self, program: Program, placement: Placement) -> Self {
        self.segments.push(CodeSegment { program, placement });
        self
    }

    /// Adds a data object (builder style).
    #[must_use]
    pub fn with_object(mut self, object: DataObject) -> Self {
        self.data_objects.push(object);
        self
    }

    /// Sets the activation count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `activations` is zero.
    #[must_use]
    pub fn with_activations(mut self, activations: u32) -> Self {
        assert!(activations > 0, "a task runs at least once");
        self.activations = activations;
        self
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Looks up a data object by name.
    pub fn object(&self, name: &str) -> Option<&DataObject> {
        self.data_objects.iter().find(|o| o.name == name)
    }

    /// Total dynamic operations across all segments for one activation.
    pub fn dynamic_op_count(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.program.dynamic_op_count())
            .sum()
    }
}

/// The two representative deployment scenarios evaluated in §4.1, plus
/// the low-SRI-traffic variant mentioned for real-world use cases.
///
/// * **Scenario 1** — code cacheable in pf0/pf1; shared *non-cacheable*
///   data in the LMU. `PCACHE_MISS` counts exactly the code SRI
///   requests; nothing is known about data PTAC beyond stalls.
/// * **Scenario 2** — code cacheable in pf0/pf1; data both cacheable and
///   non-cacheable in the LMU and constant (cacheable) data in pf0/pf1.
///   Contention mixes code and data on the same slaves.
/// * **LowTraffic** — most code/data in scratchpads; models the
///   real-world automotive use cases with ~10% contention bounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeploymentScenario {
    /// Scenario 1 of the paper (Figure 3-a).
    Scenario1,
    /// Scenario 2 of the paper (Figure 3-b).
    Scenario2,
    /// Low-SRI-traffic variant (§4.2 closing remark).
    LowTraffic,
}

impl DeploymentScenario {
    /// Scenario 1 (Figure 3-a).
    pub fn scenario1() -> Self {
        DeploymentScenario::Scenario1
    }

    /// Scenario 2 (Figure 3-b).
    pub fn scenario2() -> Self {
        DeploymentScenario::Scenario2
    }

    /// All scenarios.
    pub fn all() -> [DeploymentScenario; 3] {
        [
            DeploymentScenario::Scenario1,
            DeploymentScenario::Scenario2,
            DeploymentScenario::LowTraffic,
        ]
    }
}

impl DeploymentScenario {
    /// The canonical short token (`sc1` / `sc2` / `low`): what the
    /// command lines print, and what serve request fingerprints and dse
    /// campaign identities hash.
    pub fn token(self) -> &'static str {
        match self {
            DeploymentScenario::Scenario1 => "sc1",
            DeploymentScenario::Scenario2 => "sc2",
            DeploymentScenario::LowTraffic => "low",
        }
    }
}

impl fmt::Display for DeploymentScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentScenario::Scenario1 => write!(f, "scenario1"),
            DeploymentScenario::Scenario2 => write!(f, "scenario2"),
            DeploymentScenario::LowTraffic => write!(f, "low-traffic"),
        }
    }
}

/// The one scenario name table: the [`token`](DeploymentScenario::token)
/// and the [`Display`](fmt::Display) spelling both parse back.
impl std::str::FromStr for DeploymentScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sc1" | "scenario1" => Ok(DeploymentScenario::Scenario1),
            "sc2" | "scenario2" => Ok(DeploymentScenario::Scenario2),
            "low" | "low-traffic" => Ok(DeploymentScenario::LowTraffic),
            other => Err(format!(
                "unknown scenario `{other}` (expected sc1, sc2 or low)"
            )),
        }
    }
}

/// Errors detected while validating or linking a layout.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LayoutError {
    /// The placement violates Table 3.
    ForbiddenPlacement {
        /// Code or data.
        class: Operation,
        /// The offending placement.
        placement: Placement,
    },
    /// A region overflowed its capacity.
    RegionOverflow {
        /// The region that overflowed.
        region: Region,
        /// Bytes requested in total.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// The program references an undeclared data object.
    UnknownObject {
        /// The missing object name.
        name: String,
    },
    /// A scratchpad placement names a different core than the task runs on.
    ForeignScratchpad {
        /// The core the task runs on.
        running_on: CoreId,
        /// The scratchpad's owner.
        owner: CoreId,
    },
    /// A data object has zero size.
    EmptyObject {
        /// The object name.
        name: String,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::ForbiddenPlacement { class, placement } => {
                write!(f, "table 3 forbids {} in {placement}", class.long_name())
            }
            LayoutError::RegionOverflow {
                region,
                requested,
                available,
            } => write!(
                f,
                "region {region} overflow: {requested} bytes requested, {available} available"
            ),
            LayoutError::UnknownObject { name } => {
                write!(f, "program references undeclared object `{name}`")
            }
            LayoutError::ForeignScratchpad { running_on, owner } => write!(
                f,
                "task on {running_on} cannot use the scratchpad of {owner} without SRI traffic"
            ),
            LayoutError::EmptyObject { name } => {
                write!(f, "data object `{name}` has zero size")
            }
        }
    }
}

impl Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Pattern;

    /// Every cell of Table 3, exhaustively.
    #[test]
    fn table3_constraints() {
        use Operation::{Code, Data};
        let cases = [
            // (class, region, cacheable, allowed)
            (Code, Region::Pflash0, true, true),
            (Code, Region::Pflash0, false, true),
            (Code, Region::Pflash1, true, true),
            (Code, Region::Pflash1, false, true),
            (Code, Region::Dflash, true, false),
            (Code, Region::Dflash, false, false),
            (Code, Region::Lmu, true, true),
            (Code, Region::Lmu, false, true),
            (Data, Region::Pflash0, true, true),
            (Data, Region::Pflash0, false, false),
            (Data, Region::Pflash1, true, true),
            (Data, Region::Pflash1, false, false),
            (Data, Region::Dflash, true, false),
            (Data, Region::Dflash, false, true),
            (Data, Region::Lmu, true, true),
            (Data, Region::Lmu, false, true),
        ];
        for (class, region, cacheable, allowed) in cases {
            let r = Placement::new(region, cacheable).validate(class);
            assert_eq!(
                r.is_ok(),
                allowed,
                "{class} in {region} cacheable={cacheable}"
            );
        }
    }

    #[test]
    fn scratchpad_rules() {
        let c = CoreId(1);
        assert!(Placement::pspr(c).validate(Operation::Code).is_ok());
        assert!(Placement::dspr(c).validate(Operation::Data).is_ok());
        // Code in DSPR / data in PSPR are rejected.
        assert!(Placement::dspr(c).validate(Operation::Code).is_err());
        assert!(Placement::pspr(c).validate(Operation::Data).is_err());
        // Cacheable scratchpad views do not exist.
        assert!(Placement::new(Region::Pspr(c), true)
            .validate(Operation::Code)
            .is_err());
    }

    #[test]
    fn task_spec_builder() {
        let prog = Program::build(|b| {
            b.load("buf", Pattern::Sequential);
        });
        let spec = TaskSpec::new("t", prog, Placement::new(Region::Pflash0, true))
            .with_object(DataObject::new(
                "buf",
                256,
                Placement::new(Region::Lmu, false),
            ))
            .with_seed(99);
        assert_eq!(spec.object("buf").unwrap().size, 256);
        assert!(spec.object("nope").is_none());
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.segments.len(), 1);
        assert_eq!(spec.dynamic_op_count(), 1);
    }

    #[test]
    fn multi_segment_spec() {
        let a = Program::build(|b| {
            b.compute(1);
        });
        let c = Program::build(|b| {
            b.compute(2);
            b.compute(3);
        });
        let spec = TaskSpec::empty("t")
            .with_segment(a, Placement::pspr(CoreId(1)))
            .with_segment(c, Placement::new(Region::Pflash1, true))
            .with_activations(3);
        assert_eq!(spec.segments.len(), 2);
        assert_eq!(spec.dynamic_op_count(), 3);
        assert_eq!(spec.activations, 3);
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_activations_rejected() {
        let _ = TaskSpec::empty("t").with_activations(0);
    }

    #[test]
    fn errors_display() {
        let e = LayoutError::ForbiddenPlacement {
            class: Operation::Data,
            placement: Placement::new(Region::Pflash0, false),
        };
        assert!(e.to_string().contains("table 3"));
        let e = LayoutError::UnknownObject { name: "x".into() };
        assert!(e.to_string().contains("`x`"));
    }

    #[test]
    fn scenario_display_and_all() {
        assert_eq!(DeploymentScenario::Scenario1.to_string(), "scenario1");
        assert_eq!(DeploymentScenario::all().len(), 3);
        for s in DeploymentScenario::all() {
            assert_eq!(s.token().parse::<DeploymentScenario>(), Ok(s));
            assert_eq!(s.to_string().parse::<DeploymentScenario>(), Ok(s));
        }
        assert_eq!(
            DeploymentScenario::LowTraffic.token(),
            "low",
            "tokens are hashed into request and campaign keys"
        );
        let err = "sc3".parse::<DeploymentScenario>().unwrap_err();
        assert!(
            err.contains("`sc3`") && err.contains("sc1, sc2 or low"),
            "{err}"
        );
    }
}
