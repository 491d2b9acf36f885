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
//! [`GaEngine32`] is the behavioral model of this arrangement with the
//! same per-core draw semantics as [`crate::behavioral::GaEngine`];
//! [`compose_prob`]/[`split_prob`] are the paper's probability algebra.

use carng::Rng16;

use crate::ops;
use crate::params::GaParams;

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

/// Behavioral model of the dual-core 32-bit GA.
pub struct GaEngine32<R1: Rng16, R2: Rng16, F: FnMut(u32) -> u16> {
    params: GaParams,
    /// Per-core crossover thresholds (may differ, per the composition
    /// equations).
    xt_msb: u8,
    xt_lsb: u8,
    mt_msb: u8,
    mt_lsb: u8,
    rng1: R1,
    rng2: R2,
    fitness: F,
    cur: Vec<Individual32>,
    /// The next generation's buffer, swapped with `cur` every generation.
    next: Vec<Individual32>,
    /// Cumulative fitness of `cur`, rebuilt every generation.
    prefix: Vec<u32>,
    best: Individual32,
    fit_sum: u32,
    gen: u32,
    evaluations: u64,
}

impl<R1: Rng16, R2: Rng16, F: FnMut(u32) -> u16> GaEngine32<R1, R2, F> {
    /// Build the dual-core engine. `params.xover_threshold` /
    /// `params.mut_threshold` are applied to *both* halves; use
    /// [`GaEngine32::with_split_thresholds`] to program them separately.
    pub fn new(params: GaParams, mut rng1: R1, mut rng2: R2, fitness: F) -> Self {
        params.validate().expect("invalid GA parameters");
        rng1.reseed(params.seed);
        // Core 2 powers on with the complemented seed so the two halves
        // start decorrelated even when the user programs only one seed.
        rng2.reseed(!params.seed);
        GaEngine32 {
            params,
            xt_msb: params.xover_threshold,
            xt_lsb: params.xover_threshold,
            mt_msb: params.mut_threshold,
            mt_lsb: params.mut_threshold,
            rng1,
            rng2,
            fitness,
            cur: Vec::new(),
            next: Vec::new(),
            prefix: Vec::new(),
            best: Individual32::default(),
            fit_sum: 0,
            gen: 0,
            evaluations: 0,
        }
    }

    /// Program the per-half thresholds (the paper: "the individual
    /// crossover probabilities ... should be programmed according to the
    /// equation").
    pub fn with_split_thresholds(mut self, xt_msb: u8, xt_lsb: u8, mt_msb: u8, mt_lsb: u8) -> Self {
        assert!(xt_msb < 16 && xt_lsb < 16 && mt_msb < 16 && mt_lsb < 16);
        self.xt_msb = xt_msb;
        self.xt_lsb = xt_lsb;
        self.mt_msb = mt_msb;
        self.mt_lsb = mt_lsb;
        self
    }

    fn evaluate(&mut self, chrom: u32) -> u16 {
        self.evaluations += 1;
        (self.fitness)(chrom)
    }

    fn init_population(&mut self) -> GenStats32 {
        self.cur.clear();
        self.fit_sum = 0;
        for i in 0..self.params.pop_size {
            // Fig. 6(a): each core's RNG produces one half.
            let msb = self.rng1.next_u16();
            let lsb = self.rng2.next_u16();
            let chrom = ((msb as u32) << 16) | lsb as u32;
            let fitness = self.evaluate(chrom);
            let ind = Individual32 { chrom, fitness };
            if i == 0 || fitness > self.best.fitness {
                self.best = ind;
            }
            self.fit_sum += fitness as u32;
            self.cur.push(ind);
        }
        self.stats()
    }

    /// Parent selection (Fig. 6(b)): core 1 selects; core 2's threshold
    /// draw is consumed but its scan is overridden by the scaling logic.
    /// The pick is core 1's scan, found by binary search over the prefix
    /// sums ([`ops::selection_pick`]).
    fn select(&mut self) -> Individual32 {
        let r = self.rng1.next_u16();
        let _r2 = self.rng2.next_u16(); // consumed and discarded by scalingLogic_parSel
        let threshold = ops::selection_threshold(self.fit_sum, r);
        let k = ops::selection_pick(&self.prefix, threshold).unwrap_or(self.cur.len() - 1);
        self.cur[k]
    }

    fn breed_halves(&mut self, p1: u32, p2: u32) -> (u32, u32) {
        let (p1m, p1l) = ((p1 >> 16) as u16, p1 as u16);
        let (p2m, p2l) = ((p2 >> 16) as u16, p2 as u16);
        // Independent one-point crossover per half (Fig. 6(c)); each
        // core spends one draw, carrying both fields (ops::xover_fields).
        let (d1, cut1) = ops::xover_fields(self.rng1.next_u16());
        let (o1m, o2m) = if ops::decision(d1, self.xt_msb) {
            ops::crossover(p1m, p2m, cut1)
        } else {
            (p1m, p2m)
        };
        let (d2, cut2) = ops::xover_fields(self.rng2.next_u16());
        let (o1l, o2l) = if ops::decision(d2, self.xt_lsb) {
            ops::crossover(p1l, p2l, cut2)
        } else {
            (p1l, p2l)
        };
        (
            ((o1m as u32) << 16) | o1l as u32,
            ((o2m as u32) << 16) | o2l as u32,
        )
    }

    fn mutate32(&mut self, chrom: u32) -> u32 {
        let mut msb = (chrom >> 16) as u16;
        let mut lsb = chrom as u16;
        // Independent single-bit mutation per half (Fig. 6(d)): at most
        // two bits of the 32-bit chromosome flip.
        let (d1, pt1) = ops::mut_fields(self.rng1.next_u16());
        if ops::decision(d1, self.mt_msb) {
            msb = ops::mutate(msb, pt1);
        }
        let (d2, pt2) = ops::mut_fields(self.rng2.next_u16());
        if ops::decision(d2, self.mt_lsb) {
            lsb = ops::mutate(lsb, pt2);
        }
        ((msb as u32) << 16) | lsb as u32
    }

    fn step_generation(&mut self) -> GenStats32 {
        let pop = self.params.pop_size as usize;
        ops::selection_prefix(self.cur.iter().map(|i| i.fitness), &mut self.prefix);
        let mut new_pop = std::mem::take(&mut self.next);
        new_pop.clear();
        new_pop.push(self.best);
        let mut new_sum = self.best.fitness as u32;
        let mut new_best = self.best;
        while new_pop.len() < pop {
            let p1 = self.select();
            let p2 = self.select();
            let (o1, o2) = self.breed_halves(p1.chrom, p2.chrom);
            for chrom in [o1, o2] {
                if new_pop.len() >= pop {
                    break;
                }
                let mutated = self.mutate32(chrom);
                let fitness = self.evaluate(mutated);
                let ind = Individual32 {
                    chrom: mutated,
                    fitness,
                };
                if fitness > new_best.fitness {
                    new_best = ind;
                }
                new_sum += fitness as u32;
                new_pop.push(ind);
            }
        }
        self.next = std::mem::replace(&mut self.cur, new_pop);
        self.fit_sum = new_sum;
        self.best = new_best;
        self.gen += 1;
        self.stats()
    }

    fn stats(&self) -> GenStats32 {
        GenStats32 {
            gen: self.gen,
            best: self.best,
            fit_sum: self.fit_sum,
        }
    }

    /// Run the full 32-bit optimization.
    pub fn run(mut self) -> GaRun32 {
        // `n_gens` comes off the wire: grow the history, never size it.
        let mut history = vec![self.init_population()];
        for _ in 0..self.params.n_gens {
            history.push(self.step_generation());
        }
        GaRun32 {
            best: self.best,
            history,
            evaluations: self.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;

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

    /// A separable 32-bit test function: maximize both halves.
    fn sum_halves(c: u32) -> u16 {
        let msb = (c >> 16) as u16;
        let lsb = c as u16;
        ((msb as u32 + lsb as u32) / 2) as u16
    }

    #[test]
    fn dual_core_optimizes_32bit_function() {
        let params = GaParams::new(32, 64, 10, 2, 0x2961);
        let run = GaEngine32::new(params, CaRng::new(1), CaRng::new(2), sum_halves).run();
        assert!(
            run.best.fitness > 60_000,
            "32-bit GA should approach the optimum, got {}",
            run.best.fitness
        );
        assert_eq!(run.history.len(), 65);
    }

    #[test]
    fn parents_are_never_mixed_across_individuals() {
        // With crossover and mutation disabled, every offspring must be
        // an existing 32-bit individual — the scalingLogic_parSel
        // guarantee (§III-D(b)).
        let params = GaParams::new(16, 4, 0, 0, 0xB342);
        let mut engine = GaEngine32::new(params, CaRng::new(3), CaRng::new(4), sum_halves);
        let mut history = vec![engine.init_population()];
        let gen0: Vec<u32> = engine.cur.iter().map(|i| i.chrom).collect();
        history.push(engine.step_generation());
        for ind in &engine.cur {
            assert!(
                gen0.contains(&ind.chrom),
                "offspring {:#010x} is not a gen-0 individual: halves were mixed",
                ind.chrom
            );
        }
    }

    #[test]
    fn elitism_monotone_in_32bit_runs() {
        let params = GaParams::new(16, 16, 12, 3, 0xAAAA);
        let run = GaEngine32::new(params, CaRng::new(5), CaRng::new(6), sum_halves).run();
        let mut prev = 0;
        for s in &run.history {
            assert!(s.best.fitness >= prev);
            prev = s.best.fitness;
        }
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
