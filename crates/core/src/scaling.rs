//! Chromosome-length scaling: the 32-bit GA built from two 16-bit cores
//! (§III-D, Fig. 6).
//!
//! Two complete 16-bit cores — each with its own RNG — hold the MSB and
//! LSB halves of every 32-bit individual. The composition rules from the
//! paper:
//!
//! * **Parent selection** — only `GA_Core1` (MSB) performs real
//!   proportionate selection; the `scalingLogic_parSel` block forces
//!   `GA_Core2` to pick the *same index*, otherwise an offspring could
//!   concatenate halves of two different parents.
//! * **Crossover** — both halves cross independently, which acts on the
//!   32-bit chromosome as a (up to) three-point crossover with
//!   `xovProb32 = p_M + p_L − p_M·p_L`.
//! * **Mutation** — both halves mutate independently (at most two bits
//!   flip), with the same probability composition.
//! * **Fitness** — the halves are concatenated and evaluated once; the
//!   value is returned to core 1 only, and only core 1 writes the GA
//!   memory.
//!
//! [`crate::behavioral::GaEngine32`] is the behavioral model of this
//! arrangement and [`crate::system::GaSystem32Hw`] the cycle-accurate
//! one; [`compose_prob`]/[`split_prob`] are the paper's probability
//! algebra, and the types here are what a 32-bit run reports.

/// The paper's composition equation:
/// `prob32 = prob16(MSB) + prob16(LSB) − prob16(MSB)·prob16(LSB)`.
pub fn compose_prob(p_msb: f64, p_lsb: f64) -> f64 {
    p_msb + p_lsb - p_msb * p_lsb
}

/// Invert [`compose_prob`] for equal per-half probabilities: the value
/// `p` such that `compose_prob(p, p) = target`.
pub fn split_prob(target: f64) -> f64 {
    assert!((0.0..=1.0).contains(&target));
    1.0 - (1.0 - target).sqrt()
}

/// Nearest 4-bit threshold realizing a probability (threshold/16).
pub fn threshold_for_prob(p: f64) -> u8 {
    ((p * 16.0).round() as i64).clamp(0, 15) as u8
}

/// The 32-bit chromosome of core 1's `msb` half and core 2's `lsb` half.
pub fn concat(msb: u16, lsb: u16) -> u32 {
    (u32::from(msb) << 16) | u32::from(lsb)
}

/// A 32-bit individual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Individual32 {
    /// 32-bit chromosome (MSB half = core 1, LSB half = core 2).
    pub chrom: u32,
    /// 16-bit fitness.
    pub fitness: u16,
}

/// Per-generation statistics of a 32-bit run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats32 {
    /// Generation index (0 = initial population).
    pub gen: u32,
    /// Best individual of the population.
    pub best: Individual32,
    /// Population fitness sum.
    pub fit_sum: u32,
}

/// Result of a 32-bit run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaRun32 {
    /// Best individual found.
    pub best: Individual32,
    /// Per-generation history.
    pub history: Vec<GenStats32>,
    /// Fitness evaluations performed.
    pub evaluations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use carng::{CaRng, Rng16};

    #[test]
    fn composition_equation_matches_paper() {
        // Independent events: P(any) = p + q − pq.
        assert!((compose_prob(0.5, 0.5) - 0.75).abs() < 1e-12);
        assert!((compose_prob(0.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((compose_prob(1.0, 0.3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_prob_inverts_compose() {
        for target in [0.0, 0.1, 0.5, 0.625, 0.9, 1.0] {
            let p = split_prob(target);
            assert!(
                (compose_prob(p, p) - target).abs() < 1e-12,
                "target {target}"
            );
        }
    }

    #[test]
    fn split_gives_lower_per_half_rates() {
        // §III-D(c): "lower crossover probabilities should be used" on
        // each half to realize the same overall rate.
        let target = 0.625; // the paper's XR=10 rate
        let p = split_prob(target);
        assert!(p < target);
        let t = threshold_for_prob(p);
        assert!(t < 10);
    }

    #[test]
    fn threshold_rounding() {
        assert_eq!(threshold_for_prob(0.625), 10);
        assert_eq!(threshold_for_prob(0.0), 0);
        assert_eq!(threshold_for_prob(1.0), 15, "15/16 is the hardware maximum");
    }

    #[test]
    fn empirical_crossover_rate_matches_composition() {
        // Measure how often at least one half crosses, against the
        // composed probability, using the decision statistics of the
        // 4-bit threshold draws.
        let (xt, trials) = (6u8, 40_000u32);
        let mut rng1 = CaRng::new(0x1111);
        let mut rng2 = CaRng::new(0x2222);
        let mut any = 0u32;
        for _ in 0..trials {
            let a = ops::decision((rng1.next_u16() & 0xF) as u8, xt);
            let b = ops::decision((rng2.next_u16() & 0xF) as u8, xt);
            if a || b {
                any += 1;
            }
        }
        let measured = any as f64 / trials as f64;
        let expected = compose_prob(6.0 / 16.0, 6.0 / 16.0);
        assert!(
            (measured - expected).abs() < 0.02,
            "measured {measured:.3} vs composed {expected:.3}"
        );
    }
}
