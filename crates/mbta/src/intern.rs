//! The isolation-key intern table of [`crate::ExecEngine`].
//!
//! An isolation key hashes the whole `Debug` text of a task spec — about
//! 173 KB for a control-loop app — so keying the same app on every sweep
//! row costs more than simulating its contender. Specs built once and
//! cloned share their program bodies ([`tc27x_sim::Program`]), so a
//! repeated spec is recognised by its small fields plus the address of
//! each body, and its key is looked up instead of hashed.
//!
//! The table holds bodies by [`Weak`]: it never keeps a program alive,
//! and while an entry exists the allocation it names cannot be reused
//! by another body, so an address match always means the same body. A
//! body whose every owner is gone simply never matches again.

use std::sync::{Arc, Weak};
use tc27x_sim::{CoreId, DataObject, Op, Placement, TaskSpec};

/// Identities the table keeps, most recently used first. A campaign
/// keys a handful of apps over and over and each contender about once,
/// so a few entries hold every repeat.
const CAPACITY: usize = 8;

/// One spec's identity and the key it hashed to.
#[derive(Debug)]
struct Entry {
    core: CoreId,
    name: String,
    activations: u32,
    seed: u64,
    data_objects: Vec<DataObject>,
    segments: Vec<(Placement, Weak<Vec<Op>>)>,
    key: u64,
}

impl Entry {
    fn new(spec: &TaskSpec, core: CoreId, key: u64) -> Self {
        Entry {
            core,
            name: spec.name.clone(),
            activations: spec.activations,
            seed: spec.seed,
            data_objects: spec.data_objects.clone(),
            segments: spec
                .segments
                .iter()
                .map(|s| (s.placement, Arc::downgrade(s.program.body())))
                .collect(),
            key,
        }
    }

    /// Whether `spec` on `core` is this identity: equal small fields and
    /// the very same bodies.
    fn matches(&self, spec: &TaskSpec, core: CoreId) -> bool {
        self.core == core
            && self.activations == spec.activations
            && self.seed == spec.seed
            && self.name == spec.name
            && self.data_objects == spec.data_objects
            && self.segments.len() == spec.segments.len()
            && self
                .segments
                .iter()
                .zip(&spec.segments)
                .all(|((placement, body), s)| {
                    *placement == s.placement && Weak::as_ptr(body) == Arc::as_ptr(s.program.body())
                })
    }
}

/// A bounded most-recently-used table from spec identity to isolation
/// key.
#[derive(Debug, Default)]
pub(crate) struct KeyIntern {
    entries: Vec<Entry>,
}

impl KeyIntern {
    /// The key of `spec` on `core` if its identity is known; a hit moves
    /// the entry to the front.
    pub(crate) fn lookup(&mut self, spec: &TaskSpec, core: CoreId) -> Option<u64> {
        let i = self.entries.iter().position(|e| e.matches(spec, core))?;
        let entry = self.entries.remove(i);
        let key = entry.key;
        self.entries.insert(0, entry);
        Some(key)
    }

    /// Remembers that `spec` on `core` keys to `key`, evicting the least
    /// recently used identity when full.
    pub(crate) fn learn(&mut self, spec: &TaskSpec, core: CoreId, key: u64) {
        if self.lookup(spec, core).is_some() {
            return;
        }
        self.entries.truncate(CAPACITY - 1);
        self.entries.insert(0, Entry::new(spec, core, key));
    }

    /// Forgets every identity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::DeploymentScenario;

    fn app() -> TaskSpec {
        workloads::control_loop(DeploymentScenario::Scenario1, CoreId(1), 42)
    }

    #[test]
    fn clones_hit_and_rebuilt_or_altered_specs_miss() {
        let mut t = KeyIntern::default();
        let spec = app();
        t.learn(&spec, CoreId(1), 7);
        assert_eq!(t.lookup(&spec.clone(), CoreId(1)), Some(7));
        assert_eq!(
            t.lookup(&spec, CoreId(2)),
            None,
            "core is part of the identity"
        );
        assert_eq!(t.lookup(&app(), CoreId(1)), None, "a rebuilt body is new");
        let mut reseeded = spec.clone();
        reseeded.seed ^= 1;
        assert_eq!(t.lookup(&reseeded, CoreId(1)), None);
        let mut renamed = spec.clone();
        renamed.name.push('x');
        assert_eq!(t.lookup(&renamed, CoreId(1)), None);
        let mut moved = spec.clone();
        moved.data_objects[0].size *= 2;
        assert_eq!(t.lookup(&moved, CoreId(1)), None);
    }

    #[test]
    fn the_table_is_bounded_and_keeps_no_body_alive() {
        let mut t = KeyIntern::default();
        let kept = app();
        t.learn(&kept, CoreId(1), 1);
        for i in 0..3 * CAPACITY as u64 {
            let spec = app();
            let body = Arc::downgrade(spec.segments[1].program.body());
            t.learn(&spec, CoreId(1), 100 + i);
            // The repeat app is used between fresh ones, as a sweep does.
            assert_eq!(t.lookup(&kept, CoreId(1)), Some(1));
            drop(spec);
            assert_eq!(body.strong_count(), 0, "the table holds no body");
        }
        assert!(t.entries.len() <= CAPACITY);
        t.clear();
        assert_eq!(t.lookup(&kept, CoreId(1)), None);
    }
}
