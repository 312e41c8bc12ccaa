//! Task programs: the simulator's ISA-lite.
//!
//! Contention on the TC27x depends on the *number, type and target* of
//! SRI requests, not on instruction semantics (§2 of the paper). Programs
//! are therefore streams of abstract operations — compute bursts, loads
//! and stores against named data objects — structured with loops so that
//! realistic instruction-fetch behaviour (repeating code addresses,
//! i-cache reuse, sequential prefetch) emerges naturally.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::program::{Pattern, Program};
//!
//! // acquire → compute → update, 100 iterations
//! let prog = Program::build(|b| {
//!     b.repeat(100, |b| {
//!         b.load("sensors", Pattern::Sequential);
//!         b.compute(8);
//!         b.store("state", Pattern::Sequential);
//!     });
//! });
//! assert_eq!(prog.static_op_count(), 4); // 3 body ops + loop branch
//! assert_eq!(prog.dynamic_op_count(), 100 * 4);
//! ```

use std::fmt;
use std::sync::Arc;

/// Bytes of code occupied by every operation (fixed-width encoding).
pub const OP_BYTES: u32 = 4;

/// How successive accesses of one [`DataRef`] walk through its object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pattern {
    /// Word-by-word sequential walk (wraps at the object end). One cache
    /// miss per line for cacheable objects.
    Sequential,
    /// Fixed stride in bytes (wraps at the object end). A stride of one
    /// line defeats spatial locality entirely.
    Stride(u32),
    /// Uniformly random word within the object (task-seeded RNG).
    Random,
    /// Always the same word (after the first access, hits for cacheable
    /// objects).
    Fixed(u32),
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Sequential => write!(f, "seq"),
            Pattern::Stride(s) => write!(f, "stride{s}"),
            Pattern::Random => write!(f, "rand"),
            Pattern::Fixed(o) => write!(f, "fixed@{o}"),
        }
    }
}

/// A reference to a named data object with an access pattern.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DataRef {
    /// Name of the data object (declared in the task spec).
    pub object: String,
    /// Walk pattern across accesses.
    pub pattern: Pattern,
}

/// One abstract operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Pipeline-only work for the given number of cycles; generates
    /// instruction fetches but no data traffic.
    Compute(u32),
    /// A data read through the DMI.
    Load(DataRef),
    /// A data write through the DMI.
    Store(DataRef),
    /// A counted loop over a body; costs one branch op per iteration.
    Loop {
        /// Number of iterations (0 skips the body entirely).
        count: u32,
        /// Loop body.
        body: Vec<Op>,
    },
}

impl Op {
    /// Number of static code slots (addresses) this op occupies,
    /// including nested bodies and the loop branch slot.
    pub fn static_slots(&self) -> u32 {
        match self {
            Op::Compute(_) | Op::Load(_) | Op::Store(_) => 1,
            Op::Loop { body, .. } => 1 + body.iter().map(Op::static_slots).sum::<u32>(),
        }
    }

    /// Number of dynamic operations executed (loop bodies multiplied
    /// out; the loop branch executes once per iteration).
    pub fn dynamic_count(&self) -> u64 {
        match self {
            Op::Compute(_) | Op::Load(_) | Op::Store(_) => 1,
            Op::Loop { count, body } => {
                let body_n: u64 = body.iter().map(Op::dynamic_count).sum();
                (*count as u64) * (body_n + 1)
            }
        }
    }
}

/// A complete task program (top-level op sequence).
///
/// The ops live behind an [`Arc`]: cloning a program (and so a
/// [`crate::TaskSpec`]) shares the body instead of copying it, and two
/// programs sharing one body compare equal without a walk. The derived
/// `Debug` prints the body exactly as a plain `Vec` would, so the bytes
/// that job keys hash do not depend on the sharing.
#[derive(Clone, Eq, Debug, Default)]
pub struct Program {
    ops: Arc<Vec<Op>>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.ops, &other.ops) || self.ops == other.ops
    }
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Builds a program with the fluent [`ProgramBuilder`].
    pub fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        b.finish()
    }

    /// The top-level operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The shared body, for identity checks: two programs with the same
    /// body pointer are clones of one build.
    pub fn body(&self) -> &Arc<Vec<Op>> {
        &self.ops
    }

    /// Total static code slots (each slot is [`OP_BYTES`] of code).
    pub fn static_op_count(&self) -> u32 {
        self.ops.iter().map(Op::static_slots).sum()
    }

    /// Code footprint in bytes.
    pub fn code_bytes(&self) -> u32 {
        self.static_op_count() * OP_BYTES
    }

    /// Total dynamic operations executed by one activation.
    pub fn dynamic_op_count(&self) -> u64 {
        self.ops.iter().map(Op::dynamic_count).sum()
    }

    /// Names of all data objects the program references.
    pub fn referenced_objects(&self) -> Vec<&str> {
        fn walk<'a>(ops: &'a [Op], out: &mut Vec<&'a str>) {
            for op in ops {
                match op {
                    Op::Load(r) | Op::Store(r) => {
                        if !out.contains(&r.object.as_str()) {
                            out.push(&r.object);
                        }
                    }
                    Op::Loop { body, .. } => walk(body, out),
                    Op::Compute(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.ops, &mut out);
        out
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Program {
            ops: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl Extend<Op> for Program {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        Arc::make_mut(&mut self.ops).extend(iter);
    }
}

/// Fluent builder for [`Program`]s; obtained via [`Program::build`].
///
/// # Examples
///
/// ```
/// use tc27x_sim::program::{Pattern, Program};
/// let p = Program::build(|b| {
///     b.compute(10);
///     b.repeat(4, |b| {
///         b.load("table", Pattern::Random);
///     });
/// });
/// assert_eq!(p.dynamic_op_count(), 1 + 4 * 2);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a compute burst of `cycles` pipeline cycles.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.ops.push(Op::Compute(cycles));
        self
    }

    /// Appends a load from `object` with the given pattern.
    pub fn load(&mut self, object: impl Into<String>, pattern: Pattern) -> &mut Self {
        self.ops.push(Op::Load(DataRef {
            object: object.into(),
            pattern,
        }));
        self
    }

    /// Appends a store to `object` with the given pattern.
    pub fn store(&mut self, object: impl Into<String>, pattern: Pattern) -> &mut Self {
        self.ops.push(Op::Store(DataRef {
            object: object.into(),
            pattern,
        }));
        self
    }

    /// Appends a counted loop whose body is built by `f`.
    pub fn repeat(&mut self, count: u32, f: impl FnOnce(&mut ProgramBuilder)) -> &mut Self {
        let mut inner = ProgramBuilder::new();
        f(&mut inner);
        self.ops.push(Op::Loop {
            count,
            body: inner.ops,
        });
        self
    }

    /// Appends a raw op.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Finalises the program.
    pub fn finish(self) -> Program {
        Program {
            ops: Arc::new(self.ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_slots_count_loop_branch() {
        let p = Program::build(|b| {
            b.repeat(10, |b| {
                b.compute(1);
                b.compute(2);
            });
        });
        // two body ops + one branch slot
        assert_eq!(p.static_op_count(), 3);
        assert_eq!(p.code_bytes(), 12);
    }

    #[test]
    fn dynamic_count_multiplies_iterations() {
        let p = Program::build(|b| {
            b.compute(5);
            b.repeat(3, |b| {
                b.load("x", Pattern::Sequential);
                b.repeat(2, |b| {
                    b.store("y", Pattern::Sequential);
                });
            });
        });
        // 1 + 3*(1 + 2*(1+1) + 1) = 1 + 3*6 = 19
        assert_eq!(p.dynamic_op_count(), 19);
    }

    #[test]
    fn zero_iteration_loop_only_counts_nothing() {
        let p = Program::build(|b| {
            b.repeat(0, |b| {
                b.compute(1);
            });
        });
        assert_eq!(p.dynamic_op_count(), 0);
        assert_eq!(p.static_op_count(), 2);
    }

    #[test]
    fn referenced_objects_deduplicates() {
        let p = Program::build(|b| {
            b.load("a", Pattern::Sequential);
            b.repeat(2, |b| {
                b.store("a", Pattern::Random);
                b.load("b", Pattern::Fixed(0));
            });
        });
        assert_eq!(p.referenced_objects(), vec!["a", "b"]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut p: Program = vec![Op::Compute(1)].into_iter().collect();
        p.extend([Op::Compute(2)]);
        assert_eq!(p.ops().len(), 2);
    }

    #[test]
    fn clones_share_the_body_and_print_like_a_plain_vec() {
        let p = Program::build(|b| {
            b.repeat(2, |b| {
                b.load("x", Pattern::Random);
            });
        });
        let q = p.clone();
        assert!(Arc::ptr_eq(p.body(), q.body()));
        assert_eq!(p, q);
        let rebuilt: Program = p.ops().iter().cloned().collect();
        assert!(!Arc::ptr_eq(p.body(), rebuilt.body()));
        assert_eq!(p, rebuilt, "equal bodies compare equal by value");
        let plain = plain::Program {
            ops: p.ops().to_vec(),
        };
        assert_eq!(format!("{p:?}"), format!("{plain:?}"));
        assert_eq!(format!("{p:#?}"), format!("{plain:#?}"));
        assert_eq!(plain.ops.len(), 1);
        let mut extended = q.clone();
        extended.extend([Op::Compute(1)]);
        assert_eq!(
            q.ops().len(),
            1,
            "extending a clone leaves the shared body alone"
        );
        assert_eq!(extended.ops().len(), 2);
    }

    /// The pre-sharing layout, for the Debug byte-identity check.
    mod plain {
        #[derive(Debug)]
        pub(super) struct Program {
            pub(super) ops: Vec<super::Op>,
        }
    }

    #[test]
    fn pattern_display() {
        assert_eq!(Pattern::Sequential.to_string(), "seq");
        assert_eq!(Pattern::Stride(64).to_string(), "stride64");
        assert_eq!(Pattern::Random.to_string(), "rand");
        assert_eq!(Pattern::Fixed(8).to_string(), "fixed@8");
    }
}
