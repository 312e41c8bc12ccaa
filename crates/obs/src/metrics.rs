//! The metric registry: named counters and fixed-bucket histograms.
//!
//! Everything here is *commutative*: counters add, histograms merge
//! bucket-wise. Aggregated from per-job observations in any order, the
//! result is a pure function of the job set — which is what makes the
//! deterministic telemetry records independent of the worker count.

use crate::json::Val;
use std::collections::BTreeMap;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^63..`.
pub const BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `0` holds zeros; bucket `i ≥ 1` holds values in
/// `2^(i-1) .. 2^i`. The bounds are baked in (no configuration, no
/// rebinning), so merging histograms from different workers is plain
/// element-wise addition and the result is scheduling-independent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// The bucket index for a value.
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The inclusive value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Merges another histogram into this one (element-wise).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Records `k` more copies of every observation made since
    /// `earlier`, a past snapshot of this histogram: exactly what
    /// repeating that stretch of observations `k` times would record.
    /// Minimum and maximum already cover the repeated values.
    pub fn repeat_since(&mut self, earlier: &Hist, k: u64) {
        self.count += k * (self.count - earlier.count);
        self.sum = self
            .sum
            .saturating_add(k.saturating_mul(self.sum - earlier.sum));
        for (b, e) in self.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b += k * (*b - e);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (0.0 when empty). Display-only — deterministic
    /// records render `sum`/`count` instead.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `true` with no observations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-empty buckets as `(index, count)` pairs, index-ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// The histogram as ordered JSON object fields (integers only).
    pub fn to_fields(&self) -> Vec<(String, Val)> {
        let mut fields = vec![
            ("count".to_string(), Val::U64(self.count)),
            ("sum".to_string(), Val::U64(self.sum)),
        ];
        if let (Some(mn), Some(mx)) = (self.min(), self.max()) {
            fields.push(("min".to_string(), Val::U64(mn)));
            fields.push(("max".to_string(), Val::U64(mx)));
        }
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(i, c)| Val::Arr(vec![Val::U64(i as u64), Val::U64(c)]))
            .collect();
        fields.push(("buckets".to_string(), Val::Arr(buckets)));
        fields
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

/// A registry of named counters and histograms, ordered by name so
/// iteration (and hence rendering) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one observation in the histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Merges a whole histogram into the histogram `name`.
    pub fn observe_hist(&mut self, name: &str, h: &Hist) {
        if !h.is_empty() {
            self.hists.entry(name.to_string()).or_default().merge(h);
        }
    }

    /// Merges another registry into this one.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
        for (name, h) in &other.hists {
            self.observe_hist(name, h);
        }
    }

    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// All counters, name-ascending.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-ascending.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` with no counters and no histograms.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        let mut h = Hist::new();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.observe(v);
        }
        let nz = h.nonzero_buckets();
        // 0 → b0; 1 → b1; 2,3 → b2; 4,7 → b3; 8 → b4; MAX → b64.
        assert_eq!(nz, vec![(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (64, 1)]);
        assert_eq!(Hist::bucket_bounds(0), (0, 0));
        assert_eq!(Hist::bucket_bounds(1), (1, 1));
        assert_eq!(Hist::bucket_bounds(3), (4, 7));
        assert_eq!(Hist::bucket_bounds(64), (1 << 63, u64::MAX));
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn merge_equals_interleaved_observation() {
        let vals = [5u64, 0, 17, 9999, 3, 3, 1 << 40];
        let mut whole = Hist::new();
        for v in vals {
            whole.observe(v);
        }
        let (left, right) = vals.split_at(3);
        let mut a = Hist::new();
        let mut b = Hist::new();
        for &v in left {
            a.observe(v);
        }
        for &v in right {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn saturating_sum_never_panics() {
        let mut h = Hist::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mk = |pairs: &[(&str, u64)], obs: &[(&str, u64)]| {
            let mut r = Registry::new();
            for (n, v) in pairs {
                r.add(n, *v);
            }
            for (n, v) in obs {
                r.observe(n, *v);
            }
            r
        };
        let a = mk(&[("x", 1), ("y", 2)], &[("h", 10)]);
        let b = mk(&[("x", 5), ("z", 1)], &[("h", 20), ("g", 0)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), Some(6));
        assert_eq!(ab.counter("missing"), None);
        assert_eq!(ab.hist("h").unwrap().count(), 2);
        let names: Vec<&str> = ab.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x", "y", "z"], "name-ordered iteration");
    }

    #[test]
    fn hist_fields_are_integer_only() {
        let mut h = Hist::new();
        h.observe(42);
        let obj = Val::Obj(h.to_fields()).to_json();
        assert!(obj.contains("\"count\":1"));
        assert!(obj.contains("\"sum\":42"));
        assert!(!obj.contains('.'), "no floats in det hist fields: {obj}");
        let empty = Val::Obj(Hist::new().to_fields()).to_json();
        assert!(!empty.contains("min"), "empty hist omits min/max: {empty}");
    }
}
