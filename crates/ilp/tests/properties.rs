//! Property-style tests for the exact ILP solver.
//!
//! Random small problems are generated from a seeded in-tree PRNG and
//! the solver's answers are cross-checked against brute-force
//! enumeration (for bounded ILPs) and against basic LP invariants
//! (feasibility of the returned point, LP-relaxation dominance). Every
//! case is derived deterministically from its case index, so a failure
//! message names the exact reproducer seed.

use ilp::{LinExpr, Problem, Rational, SolveError};

/// SplitMix64, copied in-tree: the `ilp` crate is dependency-free, so
/// its tests carry their own 20-line generator rather than pulling in
/// the simulator crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// A generated constraint: coefficients (small ints) and rhs ≥ 0, so
/// the origin is always feasible.
#[derive(Clone, Debug)]
struct RandConstraint {
    coeffs: Vec<i64>,
    rhs: i64,
}

fn rand_constraint(rng: &mut Rng, nvars: usize) -> RandConstraint {
    RandConstraint {
        coeffs: (0..nvars).map(|_| rng.range(-4, 6)).collect(),
        rhs: rng.range(0, 40),
    }
}

fn rand_objective(rng: &mut Rng, lo: i64, hi: i64, max_vars: usize) -> Vec<i64> {
    let n = 1 + rng.below(max_vars as u64) as usize;
    (0..n).map(|_| rng.range(lo, hi)).collect()
}

fn rand_constraints(rng: &mut Rng, nvars: usize, max: usize) -> Vec<RandConstraint> {
    let n = rng.below(max as u64 + 1) as usize;
    (0..n).map(|_| rand_constraint(rng, nvars)).collect()
}

/// Builds a bounded maximisation ILP with integer variables in
/// `[0, ub]` and `≤` constraints.
fn build_problem(
    objective: &[i64],
    constraints: &[RandConstraint],
    ub: i64,
) -> (Problem, Vec<ilp::Var>) {
    let mut p = Problem::maximize();
    let vars: Vec<_> = (0..objective.len())
        .map(|i| p.add_var(format!("v{i}")).integer().bounds(0, ub).build())
        .collect();
    let mut obj = LinExpr::new();
    for (v, k) in vars.iter().zip(objective) {
        obj += *v * *k;
    }
    p.set_objective(obj);
    for c in constraints {
        let mut e = LinExpr::new();
        for (v, k) in vars.iter().zip(&c.coeffs) {
            e += *v * *k;
        }
        p.add_le(e, c.rhs);
    }
    (p, vars)
}

/// Brute-force optimum by enumerating the integer box.
fn brute_force(objective: &[i64], constraints: &[RandConstraint], ub: i64) -> i128 {
    let n = objective.len();
    let mut best = i128::MIN;
    let mut point = vec![0i64; n];
    loop {
        let feasible = constraints
            .iter()
            .all(|c| c.coeffs.iter().zip(&point).map(|(k, x)| k * x).sum::<i64>() <= c.rhs);
        if feasible {
            let val: i128 = objective
                .iter()
                .zip(&point)
                .map(|(k, x)| *k as i128 * *x as i128)
                .sum();
            best = best.max(val);
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            point[i] += 1;
            if point[i] > ub {
                point[i] = 0;
                i += 1;
            } else {
                break;
            }
        }
    }
}

/// The ILP optimum matches brute-force enumeration on small boxes.
#[test]
fn ilp_matches_brute_force() {
    for case in 0..64u64 {
        let mut rng = Rng(0x11f0_0000 + case);
        let objective = rand_objective(&mut rng, -5, 8, 3);
        let nvars = objective.len();
        let constraints = rand_constraints(&mut rng, nvars, 3);
        let ub = rng.range(1, 4);
        let (p, _) = build_problem(&objective, &constraints, ub);
        let sol = p.solve().expect("origin is always feasible");
        let expected = brute_force(&objective, &constraints, ub);
        assert_eq!(
            sol.objective(),
            Rational::from_int(expected),
            "case {case}: {objective:?} s.t. {constraints:?}, ub {ub}"
        );
    }
}

/// Returned assignments satisfy every constraint and bound exactly.
#[test]
fn solution_is_feasible() {
    for case in 0..64u64 {
        let mut rng = Rng(0x2fea_0000 + case);
        let objective = rand_objective(&mut rng, -5, 8, 4);
        let nvars = objective.len();
        let constraints = rand_constraints(&mut rng, nvars, 4);
        let ub = rng.range(1, 6);
        let (p, vars) = build_problem(&objective, &constraints, ub);
        let sol = p.solve().expect("origin is always feasible");
        for v in &vars {
            let x = sol.value(*v);
            assert!(x >= Rational::ZERO, "case {case}");
            assert!(x <= Rational::from_int(ub as i128), "case {case}");
            assert!(x.is_integer(), "case {case}");
        }
        for c in p.constraints() {
            assert!(c.is_satisfied_by(|v| sol.value(v)), "case {case}");
        }
    }
}

/// LP relaxation dominates the ILP optimum (maximisation).
#[test]
fn lp_relaxation_dominates() {
    for case in 0..48u64 {
        let mut rng = Rng(0x3e1a_0000 + case);
        let objective = rand_objective(&mut rng, 0, 8, 3);
        let nvars = objective.len();
        let constraints: Vec<_> = (0..1 + rng.below(3) as usize)
            .map(|_| rand_constraint(&mut rng, nvars))
            .collect();
        let ub = rng.range(1, 4);
        let (ilp_p, _) = build_problem(&objective, &constraints, ub);
        // Same problem without integrality.
        let mut lp_p = Problem::maximize();
        let vars: Vec<_> = (0..nvars)
            .map(|i| lp_p.add_var(format!("v{i}")).bounds(0, ub).build())
            .collect();
        let mut obj = LinExpr::new();
        for (v, k) in vars.iter().zip(&objective) {
            obj += *v * *k;
        }
        lp_p.set_objective(obj);
        for c in &constraints {
            let mut e = LinExpr::new();
            for (v, k) in vars.iter().zip(&c.coeffs) {
                e += *v * *k;
            }
            lp_p.add_le(e, c.rhs);
        }
        let ilp_sol = ilp_p.solve().unwrap();
        let lp_sol = lp_p.solve().unwrap();
        assert!(lp_sol.objective() >= ilp_sol.objective(), "case {case}");
    }
}

/// Rational arithmetic: field axioms on random values.
#[test]
fn rational_field_axioms() {
    let mut rng = Rng(0x4a71_beef);
    for case in 0..500 {
        let a = Rational::new(rng.range(-1000, 999) as i128, rng.range(1, 49) as i128);
        let b = Rational::new(rng.range(-1000, 999) as i128, rng.range(1, 49) as i128);
        let c = Rational::new(rng.range(-1000, 999) as i128, rng.range(1, 49) as i128);
        assert_eq!(a + b, b + a, "case {case}");
        assert_eq!((a + b) + c, a + (b + c), "case {case}");
        assert_eq!(a * (b + c), a * b + a * c, "case {case}");
        assert_eq!(a - a, Rational::ZERO, "case {case}");
        if !b.is_zero() {
            assert_eq!(a / b * b, a, "case {case}");
        }
    }
}

/// floor/ceil bracket the value and differ only for non-integers.
#[test]
fn floor_ceil_bracket() {
    let mut rng = Rng(0x5bed_cafe);
    for case in 0..500 {
        let n = rng.range(-10_000, 9_999) as i128;
        let d = rng.range(1, 99) as i128;
        let r = Rational::new(n, d);
        let f = Rational::from_int(r.floor());
        let c = Rational::from_int(r.ceil());
        assert!(f <= r && r <= c, "case {case}: {n}/{d}");
        if r.is_integer() {
            assert_eq!(f, c, "case {case}");
        } else {
            assert_eq!(r.ceil() - r.floor(), 1, "case {case}");
        }
    }
}

#[test]
fn infeasible_box_detected() {
    let mut p = Problem::maximize();
    let x = p.add_var("x").integer().bounds(0, 3).build();
    p.set_objective(x);
    p.add_ge(x, 10);
    assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
}

/// Always-reduce reference arithmetic for the `Rational` property suite:
/// plain `i128` formulas, one Euclid gcd per result, no shortcuts.
/// Operands stay below 2⁴⁰ in magnitude, so nothing here overflows.
mod reference {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    pub fn reduce(n: i128, d: i128) -> (i128, i128) {
        assert!(d != 0);
        let g = gcd(n.abs(), d.abs());
        let s = d.signum();
        (s * n / g, s * d / g)
    }

    pub fn add((a, b): (i128, i128), (c, d): (i128, i128)) -> (i128, i128) {
        reduce(a * d + c * b, b * d)
    }

    pub fn sub((a, b): (i128, i128), (c, d): (i128, i128)) -> (i128, i128) {
        reduce(a * d - c * b, b * d)
    }

    pub fn mul((a, b): (i128, i128), (c, d): (i128, i128)) -> (i128, i128) {
        reduce(a * c, b * d)
    }

    pub fn div((a, b): (i128, i128), (c, d): (i128, i128)) -> (i128, i128) {
        reduce(a * d, b * c)
    }

    pub fn cmp((a, b): (i128, i128), (c, d): (i128, i128)) -> std::cmp::Ordering {
        (a * d).cmp(&(c * b))
    }
}

/// Draws a `(numer, denom)` pair of one of five shapes: zero (with any
/// denominator), an integer, a small fraction, a large fraction, or an
/// unreduced pair with a shared factor and a possibly negative
/// denominator. Signs are mixed throughout.
fn rand_pair(rng: &mut Rng) -> (i128, i128) {
    let sign = |rng: &mut Rng| if rng.below(2) == 0 { 1 } else { -1 };
    match rng.below(5) {
        0 => (0, sign(rng) * rng.range(1, 1_000) as i128),
        1 => (sign(rng) * rng.range(0, 1 << 30) as i128, 1),
        2 => (
            sign(rng) * rng.range(0, 100) as i128,
            rng.range(1, 100) as i128,
        ),
        3 => (
            sign(rng) * rng.range(0, 1 << 20) as i128,
            rng.range(1, 1 << 20) as i128,
        ),
        _ => {
            let k = rng.range(1, 1_000) as i128;
            (
                k * sign(rng) * rng.range(0, 1_000) as i128,
                k * sign(rng) * rng.range(1, 1_000) as i128,
            )
        }
    }
}

/// Canonical form: denominator positive, numerator and denominator
/// coprime, zero as `0/1`.
fn assert_canonical(r: Rational, what: &str) {
    fn gcd(a: i128, b: i128) -> i128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    assert!(r.denom() > 0, "{what}: denominator of {r:?}");
    assert_eq!(
        gcd(r.numer().abs(), r.denom()),
        1,
        "{what}: {r:?} not reduced"
    );
    if r.is_zero() {
        assert_eq!(r.denom(), 1, "{what}: zero is not 0/1");
    }
}

/// The fast paths (zero, integer, integer-plus-fraction, cross-reduced
/// products) agree with always-reduce reference arithmetic and return
/// canonical values, for every mix of operand shapes and signs.
#[test]
fn rational_fast_paths_match_reference() {
    let mut rng = Rng(0x6a7e_0001);
    for case in 0..4_000 {
        let (pa, pb) = (rand_pair(&mut rng), rand_pair(&mut rng));
        let (a, b) = (Rational::new(pa.0, pa.1), Rational::new(pb.0, pb.1));
        let what = format!("case {case}: {pa:?} op {pb:?}");
        assert_canonical(a, &what);
        assert_eq!(
            (a.numer(), a.denom()),
            reference::reduce(pa.0, pa.1),
            "{what}"
        );
        let (ra, rb) = (reference::reduce(pa.0, pa.1), reference::reduce(pb.0, pb.1));

        let mut ops = vec![
            ("+", a + b, reference::add(ra, rb)),
            ("-", a - b, reference::sub(ra, rb)),
            ("*", a * b, reference::mul(ra, rb)),
        ];
        if !b.is_zero() {
            ops.push(("/", a / b, reference::div(ra, rb)));
        }
        for (op, got, want) in ops {
            assert_canonical(got, &format!("{what} [{op}]"));
            assert_eq!((got.numer(), got.denom()), want, "{what} [{op}]");
        }
        assert_eq!(a.cmp(&b), reference::cmp(ra, rb), "{what} [cmp]");
        assert_eq!(a == b, ra == rb, "{what} [eq]");
    }
}
