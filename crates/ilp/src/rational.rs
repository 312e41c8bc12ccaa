//! Exact rational arithmetic over `i128`.
//!
//! The simplex engine in this crate pivots on [`Rational`] values so that
//! feasibility and optimality decisions are exact: no epsilon tuning, no
//! accumulation of floating-point error. Numerators and denominators are
//! kept reduced after every operation, and multiplications pre-reduce
//! cross factors, which keeps magnitudes small for the modest problem
//! sizes produced by the contention models.
//!
//! Most tableau entries are zero or integers, so every operation first
//! takes an exact shortcut for those operands: `0 + x`, `0 · x`, integer
//! sums and products, and integer-plus-fraction (whose result is already
//! reduced) run no gcd at all. Only genuinely fractional operands pay for
//! the gcd, which is a binary (shift-and-subtract) gcd. Every path uses
//! checked `i128` arithmetic and panics with `rational overflow` rather
//! than wrapping, in every build profile.
//!
//! # Examples
//!
//! ```
//! use ilp::Rational;
//!
//! let a = Rational::new(1, 3);
//! let b = Rational::new(1, 6);
//! assert_eq!(a + b, Rational::new(1, 2));
//! assert!(a > b);
//! assert_eq!((a * b).to_string(), "1/18");
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Greatest common divisor (binary gcd); `gcd(0, b) == b`.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 1 || b == 1 {
        return 1;
    }
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// The overflow panic shared by every arithmetic path.
#[cold]
#[inline(never)]
fn overflow() -> ! {
    panic!("rational overflow")
}

/// Unwraps a checked `i128` operation, panicking on overflow.
#[inline]
fn checked(v: Option<i128>) -> i128 {
    match v {
        Some(v) => v,
        None => overflow(),
    }
}

/// An exact rational number with `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|numer|, denom) == 1`. Zero is represented as `0/1`.
///
/// # Panics
///
/// Arithmetic and comparison panic with `rational overflow` when a
/// reduced result or an intermediate product does not fit in `i128`, in
/// release builds too. The linear programs built by this workspace stay
/// far below that range.
///
/// # Examples
///
/// ```
/// use ilp::Rational;
/// let half = Rational::new(2, 4);
/// assert_eq!(half.numer(), 1);
/// assert_eq!(half.denom(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: i128,
    denom: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { numer: 0, denom: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { numer: 1, denom: 1 };

    /// Creates a reduced rational from a numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert_eq!(Rational::new(6, -4), Rational::new(-3, 2));
    /// ```
    pub fn new(numer: i128, denom: i128) -> Self {
        assert!(denom != 0, "rational denominator must be non-zero");
        if denom == 1 {
            return Rational { numer, denom };
        }
        Rational::reduced(numer, denom)
    }

    /// Reduces `numer / denom` (`denom != 0`) to canonical form.
    fn reduced(numer: i128, denom: i128) -> Rational {
        if numer == 0 {
            return Rational::ZERO;
        }
        let g = gcd(numer.unsigned_abs(), denom.unsigned_abs());
        let n = i128::try_from(numer.unsigned_abs() / g).unwrap_or_else(|_| overflow());
        let d = i128::try_from(denom.unsigned_abs() / g).unwrap_or_else(|_| overflow());
        Rational {
            numer: if (numer < 0) != (denom < 0) { -n } else { n },
            denom: d,
        }
    }

    /// Creates a rational from an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert_eq!(Rational::from_int(7), Rational::new(7, 1));
    /// ```
    pub const fn from_int(n: i128) -> Self {
        Rational { numer: n, denom: 1 }
    }

    /// Returns the reduced numerator.
    pub const fn numer(&self) -> i128 {
        self.numer
    }

    /// Returns the reduced, strictly positive denominator.
    pub const fn denom(&self) -> i128 {
        self.denom
    }

    /// Returns `true` if this value is an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert!(Rational::new(4, 2).is_integer());
    /// assert!(!Rational::new(1, 2).is_integer());
    /// ```
    pub const fn is_integer(&self) -> bool {
        self.denom == 1
    }

    /// Returns `true` if this value is zero.
    pub const fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Returns `true` if this value is strictly positive.
    pub const fn is_positive(&self) -> bool {
        self.numer > 0
    }

    /// Returns `true` if this value is strictly negative.
    pub const fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// Largest integer less than or equal to this value.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// ```
    pub const fn floor(&self) -> i128 {
        self.numer.div_euclid(self.denom)
    }

    /// Smallest integer greater than or equal to this value.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert_eq!(Rational::new(7, 2).ceil(), 4);
    /// assert_eq!(Rational::new(-7, 2).ceil(), -3);
    /// ```
    pub const fn ceil(&self) -> i128 {
        // A canonical value with `denom > 1` is never an integer.
        if self.denom == 1 {
            self.numer
        } else {
            self.floor() + 1
        }
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics with `rational overflow` on `i128::MIN`.
    pub const fn abs(&self) -> Rational {
        match self.numer.checked_abs() {
            Some(numer) => Rational {
                numer,
                denom: self.denom,
            },
            None => panic!("rational overflow"),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.numer != 0, "cannot invert zero");
        // Already reduced; only the sign moves to the numerator.
        if self.numer < 0 {
            Rational {
                numer: -self.denom,
                denom: checked(self.numer.checked_neg()),
            }
        } else {
            Rational {
                numer: self.denom,
                denom: self.numer,
            }
        }
    }

    /// Lossy conversion to `f64`, for reporting only.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert!((Rational::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
    /// ```
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Converts to an integer if the value is integral.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilp::Rational;
    /// assert_eq!(Rational::new(8, 2).to_integer(), Some(4));
    /// assert_eq!(Rational::new(1, 2).to_integer(), None);
    /// ```
    pub const fn to_integer(&self) -> Option<i128> {
        if self.denom == 1 {
            Some(self.numer)
        } else {
            None
        }
    }

    /// The fractional part `self - floor(self)`, in `[0, 1)`.
    pub fn fract(&self) -> Rational {
        *self - Rational::from_int(self.floor())
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_int(n)
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n as i128)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_int(n as i128)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i128)
    }
}

impl From<u32> for Rational {
    fn from(n: u32) -> Self {
        Rational::from_int(n as i128)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        let (a, b, c, d) = (self.numer, self.denom, rhs.numer, rhs.denom);
        if c == 0 {
            return self;
        }
        if a == 0 {
            return rhs;
        }
        match (b, d) {
            (1, 1) => Rational::from_int(checked(a.checked_add(c))),
            // a/b + c = (a + c·b)/b, reduced because gcd(a + c·b, b) = gcd(a, b) = 1.
            (_, 1) => Rational {
                numer: checked(checked(c.checked_mul(b)).checked_add(a)),
                denom: b,
            },
            (1, _) => Rational {
                numer: checked(checked(a.checked_mul(d)).checked_add(c)),
                denom: d,
            },
            _ => {
                // a/b + c/d = (a·(d/g) + c·(b/g)) / (b/g·d) with g = gcd(b, d).
                let g = gcd(b as u128, d as u128) as i128;
                let (bg, dg) = (b / g, d / g);
                let numer =
                    checked(checked(a.checked_mul(dg)).checked_add(checked(c.checked_mul(bg))));
                Rational::reduced(numer, checked(bg.checked_mul(d)))
            }
        }
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        let (a, b, c, d) = (self.numer, self.denom, rhs.numer, rhs.denom);
        if a == 0 || c == 0 {
            return Rational::ZERO;
        }
        if b == 1 && d == 1 {
            return Rational::from_int(checked(a.checked_mul(c)));
        }
        // Cross-reduce: with both operands reduced, (a/g1)(c/g2) over
        // (b/g2)(d/g1) is reduced too, so no final gcd is needed.
        let g1 = gcd(a.unsigned_abs(), d as u128) as i128;
        let g2 = gcd(c.unsigned_abs(), b as u128) as i128;
        Rational {
            numer: checked((a / g1).checked_mul(c / g2)),
            denom: checked((b / g2).checked_mul(d / g1)),
        }
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a · b⁻¹ by definition
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: checked(self.numer.checked_neg()),
            denom: self.denom,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        let (a, b, c, d) = (self.numer, self.denom, other.numer, other.denom);
        if b == d {
            return a.cmp(&c);
        }
        let (sa, sc) = (a.signum(), c.signum());
        if sa != sc {
            return sa.cmp(&sc);
        }
        // Compare a/b vs c/d as a·d vs c·b (both denominators positive).
        checked(a.checked_mul(d)).cmp(&checked(c.checked_mul(b)))
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_reduces_and_normalizes_sign() {
        let r = Rational::new(-6, -4);
        assert_eq!(r.numer(), 3);
        assert_eq!(r.denom(), 2);
        let r = Rational::new(6, -4);
        assert_eq!(r.numer(), -3);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn new_rejects_zero_denominator() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn zero_is_canonical() {
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert!(Rational::new(0, -17).is_zero());
        assert_eq!(Rational::new(0, -17).denom(), 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Rational::new(3, 7);
        let b = Rational::new(5, 11);
        assert_eq!(a + b - b, a);
        assert_eq!(a - a, Rational::ZERO);
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = Rational::new(22, 7);
        let b = Rational::new(-5, 13);
        assert_eq!(a * b / b, a);
        assert_eq!(a / a, Rational::ONE);
    }

    #[test]
    fn ordering_matches_f64() {
        let vals = [
            Rational::new(1, 3),
            Rational::new(-1, 3),
            Rational::new(7, 2),
            Rational::ZERO,
            Rational::new(100, 3),
        ];
        for a in vals {
            for b in vals {
                assert_eq!(
                    a.cmp(&b),
                    a.to_f64().partial_cmp(&b.to_f64()).unwrap(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn floor_ceil_negative_values() {
        assert_eq!(Rational::new(-1, 2).floor(), -1);
        assert_eq!(Rational::new(-1, 2).ceil(), 0);
        assert_eq!(Rational::new(5, 1).floor(), 5);
        assert_eq!(Rational::new(5, 1).ceil(), 5);
    }

    #[test]
    fn fract_in_unit_interval() {
        for (n, d) in [(7, 2), (-7, 2), (0, 1), (9, 4), (-9, 4)] {
            let f = Rational::new(n, d).fract();
            assert!(f >= Rational::ZERO && f < Rational::ONE, "{f}");
        }
    }

    #[test]
    fn display_integer_without_denominator() {
        assert_eq!(Rational::new(4, 2).to_string(), "2");
        assert_eq!(Rational::new(1, 2).to_string(), "1/2");
        assert_eq!(Rational::new(-3, 9).to_string(), "-1/3");
    }

    #[test]
    fn sum_of_thirds() {
        let s: Rational = (0..9).map(|_| Rational::new(1, 3)).sum();
        assert_eq!(s, Rational::from_int(3));
    }

    #[test]
    fn recip_inverts() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    // Overflow must panic in every profile: these run unchanged under
    // `cargo test` (dev) and `cargo test --release`, where plain `i128`
    // arithmetic would wrap.

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_add_overflow_panics() {
        let _ = Rational::from_int(i128::MAX) + Rational::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_mul_overflow_panics() {
        let _ = Rational::from_int(i128::MAX / 2) * Rational::from_int(3);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn fraction_add_overflow_panics() {
        let _ = Rational::new(i128::MAX, 3) + Rational::new(1, 5);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_plus_fraction_overflow_panics() {
        let _ = Rational::from_int(i128::MAX / 2) + Rational::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn fraction_mul_overflow_panics() {
        let _ = Rational::new(i128::MAX, 7) * Rational::new(11, 13);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn negating_min_panics() {
        let _ = -Rational::from_int(i128::MIN);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn comparison_overflow_panics() {
        let _ = Rational::new(i128::MAX, 3) < Rational::new(i128::MAX - 1, 2);
    }
}
