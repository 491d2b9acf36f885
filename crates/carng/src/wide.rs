//! Generic-width hybrid CA and GF(2) jump-ahead.
//!
//! §III-D scales chromosomes by ganging cores, each with its own RNG;
//! a wider CA is the other natural axis (Scott et al. used wider CA
//! PRNGs for wider members). [`CaRngW`] generalizes the 16-cell
//! generator to any width up to 64, and — because the hybrid rule
//! 90/150 update is linear over GF(2) — provides O(width³ · log n)
//! jump-ahead via matrix exponentiation: the tool for placing multiple
//! cores' RNGs at guaranteed-disjoint stream offsets (a stronger
//! decorrelation than the complemented-seed convention).

/// A width-`N` hybrid rule-90/150 CA PRNG (`N ≤ 64`), null boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaRngW<const N: usize> {
    state: u64,
    rules: u64,
}

/// The GF(2) transition matrix of a width-`N` hybrid CA, stored as `N`
/// row bitmasks (row i = mask of state bits that feed next-state bit i).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2Matrix<const N: usize> {
    rows: [u64; N],
}

impl<const N: usize> Gf2Matrix<N> {
    fn mask() -> u64 {
        if N == 64 {
            u64::MAX
        } else {
            (1u64 << N) - 1
        }
    }

    /// The identity matrix.
    pub fn identity() -> Self {
        let mut rows = [0u64; N];
        for (i, r) in rows.iter_mut().enumerate() {
            *r = 1 << i;
        }
        Gf2Matrix { rows }
    }

    /// The one-step transition matrix for a rule vector.
    pub fn step_matrix(rules: u64) -> Self {
        let mut rows = [0u64; N];
        for (i, row) in rows.iter_mut().enumerate() {
            let mut m = 0u64;
            if i + 1 < N {
                m |= 1 << (i + 1); // left neighbor
            }
            if i > 0 {
                m |= 1 << (i - 1); // right neighbor
            }
            if (rules >> i) & 1 == 1 {
                m |= 1 << i; // rule 150 self-term
            }
            *row = m;
        }
        Gf2Matrix { rows }
    }

    /// Matrix–vector product over GF(2).
    pub fn apply(&self, v: u64) -> u64 {
        let mut out = 0u64;
        for (i, &row) in self.rows.iter().enumerate() {
            out |= (((row & v).count_ones() as u64) & 1) << i;
        }
        out & Self::mask()
    }

    /// Matrix–matrix product over GF(2).
    pub fn mul(&self, other: &Self) -> Self {
        // (self · other): column j of the product is self · (column j
        // of other). Work with columns by transposing on the fly.
        let mut rows = [0u64; N];
        for (i, &arow) in self.rows.iter().enumerate() {
            let mut acc = 0u64;
            for k in 0..N {
                if (arow >> k) & 1 == 1 {
                    acc ^= other.rows[k];
                }
            }
            rows[i] = acc;
        }
        Gf2Matrix { rows }
    }

    /// Matrix power by square-and-multiply.
    pub fn pow(&self, mut n: u64) -> Self {
        let mut result = Self::identity();
        let mut base = self.clone();
        while n > 0 {
            if n & 1 == 1 {
                result = base.mul(&result);
            }
            base = base.mul(&base.clone());
            n >>= 1;
        }
        result
    }
}

impl<const N: usize> CaRngW<N> {
    /// Construct; the all-zero fixed point is remapped to 1.
    pub fn new(seed: u64, rules: u64) -> Self {
        assert!(N >= 2 && N <= 64, "width must be 2..=64");
        let mask = Gf2Matrix::<N>::mask();
        let s = seed & mask;
        CaRngW {
            state: if s == 0 { 1 } else { s },
            rules: rules & mask,
        }
    }

    /// Current output.
    pub fn output(&self) -> u64 {
        self.state
    }

    /// One CA step.
    pub fn step(&mut self) {
        let mask = Gf2Matrix::<N>::mask();
        self.state = (((self.state >> 1) ^ (self.state << 1)) ^ (self.state & self.rules)) & mask;
    }

    /// Sample-then-advance (the hardware read-and-consume idiom shared
    /// with [`crate::Rng16::next_u16`]; intentionally named like it).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let v = self.state;
        self.step();
        v
    }

    /// Jump the stream forward by `steps` in O(N³ log steps) — without
    /// generating the intermediate values.
    pub fn jump(&mut self, steps: u64) {
        let m = Gf2Matrix::<N>::step_matrix(self.rules).pow(steps);
        self.state = m.apply(self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{CaRng, MAXIMAL_RULE_VECTOR};
    use crate::Rng16;

    /// The period of `rng`'s stream from its current state, if it
    /// returns there within `cap` steps.
    fn period<const N: usize>(rng: &CaRngW<N>, cap: u64) -> Option<u64> {
        let mut probe = rng.clone();
        (1..=cap).find(|_| {
            probe.step();
            probe.state == rng.state
        })
    }

    #[test]
    fn width16_matches_the_production_generator() {
        let mut wide = CaRngW::<16>::new(0x2961, MAXIMAL_RULE_VECTOR as u64);
        let mut reference = CaRng::new(0x2961);
        for _ in 0..200 {
            assert_eq!(wide.next() as u16, reference.next_u16());
        }
    }

    #[test]
    fn jump_equals_stepping() {
        for steps in [0u64, 1, 2, 63, 1000, 65_535, 123_456] {
            let mut jumper = CaRngW::<16>::new(0xB342, MAXIMAL_RULE_VECTOR as u64);
            let mut stepper = jumper.clone();
            jumper.jump(steps);
            for _ in 0..steps {
                stepper.step();
            }
            assert_eq!(jumper.output(), stepper.output(), "steps = {steps}");
        }
    }

    #[test]
    fn jump_is_additive() {
        let mut a = CaRngW::<16>::new(0x061F, MAXIMAL_RULE_VECTOR as u64);
        let mut b = a.clone();
        a.jump(1000);
        a.jump(234);
        b.jump(1234);
        assert_eq!(a.output(), b.output());
    }

    #[test]
    fn matrix_identity_and_associativity() {
        let m = Gf2Matrix::<16>::step_matrix(MAXIMAL_RULE_VECTOR as u64);
        let i = Gf2Matrix::<16>::identity();
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
        // (m²)·m == m·(m²)
        let m2 = m.mul(&m);
        assert_eq!(m2.mul(&m), m.mul(&m2));
    }

    #[test]
    fn pow_zero_is_identity() {
        let m = Gf2Matrix::<16>::step_matrix(MAXIMAL_RULE_VECTOR as u64);
        assert_eq!(m.pow(0), Gf2Matrix::<16>::identity());
        assert_eq!(m.pow(1), m);
    }

    #[test]
    fn full_period_jump_is_identity_on_the_stream() {
        let mut rng = CaRngW::<16>::new(0xAAAA, MAXIMAL_RULE_VECTOR as u64);
        let before = rng.output();
        rng.jump(65_535);
        assert_eq!(rng.output(), before, "period-length jump returns to start");
    }

    #[test]
    fn disjoint_streams_for_dual_core() {
        // The §III-D use case: two cores draw from the same cycle at
        // offset 2^15 — guaranteed non-overlapping for < 2^15 draws.
        let mut core1 = CaRngW::<16>::new(0x2961, MAXIMAL_RULE_VECTOR as u64);
        let mut core2 = core1.clone();
        core2.jump(1 << 15);
        let s1: Vec<u64> = (0..64).map(|_| core1.next()).collect();
        let s2: Vec<u64> = (0..64).map(|_| core2.next()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn width_boundaries() {
        // Width 2 with rule vector 01 is maximal (period 3); vector 11
        // falls into the zero fixed point.
        let w2 = CaRngW::<2>::new(1, 0b01);
        assert_eq!(period(&w2, 4), Some(3));
        let w2bad = CaRngW::<2>::new(1, 0b11);
        assert_eq!(
            period(&w2bad, 8),
            None,
            "absorbing zero state has no cycle back"
        );
        let mut w64 = CaRngW::<64>::new(0xDEAD_BEEF_CAFE_F00D, 0x055F_055F_055F_055F);
        let a = w64.next();
        let b = w64.next();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn width_one_rejected() {
        let _ = CaRngW::<1>::new(1, 1);
    }
}
