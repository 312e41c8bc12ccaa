//! A small deterministic PRNG — the only randomness source of the
//! simulator and its test suites.
//!
//! The workspace builds hermetically offline, so instead of an external
//! crate the simulator carries a SplitMix64 generator (Steele, Lea &
//! Flood, OOPSLA'14): a 64-bit counter passed through a finalising
//! mixer. It is fast, has a guaranteed period of 2⁶⁴, passes BigCrush
//! when used as intended, and — most importantly here — its sequence is
//! a pure function of the seed, so simulation results are reproducible
//! bit for bit across platforms and thread counts.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::rng::SplitMix64;
//!
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let x = a.below(10);
//! assert!(x < 10);
//! ```

/// A SplitMix64 pseudo-random number generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)` via the widening-multiply range
    /// reduction (Lemire). The residual bias is below `bound / 2⁶⁴` —
    /// immaterial for the object sizes involved here.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// A uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range_i64 requires lo <= hi");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A uniform `u32` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below_u32(&mut self, bound: u32) -> u32 {
        self.below(bound as u64) as u32
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Jumps the stream forward by `draws` outputs without computing
    /// them. SplitMix64's state is a plain counter (the mixer is applied
    /// on output only), so skipping n draws is one multiply — the block
    /// memo uses this to replay a recorded run of random accesses in
    /// O(1) while landing on exactly the state n live draws would reach.
    pub fn advance(&mut self, draws: u64) {
        self.state = self
            .state
            .wrapping_add(draws.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }

    /// Jumps the stream forward by `k` times the draws made since
    /// `earlier`, a past state of this generator, without knowing how
    /// many they were: the state moves by one fixed step per draw.
    pub(crate) fn repeat_since(&mut self, earlier: &SplitMix64, k: u64) {
        let moved = self.state.wrapping_sub(earlier.state);
        self.state = self.state.wrapping_add(moved.wrapping_mul(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(SplitMix64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn known_first_output() {
        // Reference value of SplitMix64 seeded with 0 (Vigna's test
        // vectors): locks the stream against accidental re-mixing.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = SplitMix64::new(123);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues reached");
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = SplitMix64::new(5);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn advance_equals_n_draws() {
        for n in [0u64, 1, 2, 7, 100] {
            let mut stepped = SplitMix64::new(0xfeed);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = SplitMix64::new(0xfeed);
            jumped.advance(n);
            assert_eq!(stepped, jumped, "advance({n})");
            // And the streams continue identically afterwards.
            assert_eq!(stepped.next_u64(), jumped.next_u64());
        }
    }

    #[test]
    fn flip_is_balanced_enough() {
        let mut r = SplitMix64::new(99);
        let heads = (0..1000).filter(|_| r.flip()).count();
        assert!((350..=650).contains(&heads), "{heads}");
    }
}
