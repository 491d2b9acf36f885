//! The instrumented software GA.
//!
//! Runs the exact algorithm of the IP core (same operators, same RNG,
//! same draw order — reusing `ga_core::ops`) while tallying the dynamic
//! operation mix a compiled C implementation executes on the PowerPC.
//! Fitness evaluations are bus reads: the lookup ROM stays on the FPGA
//! fabric exactly as in the paper's measurement setup.
//!
//! The per-step op annotations are written next to the code they model;
//! they correspond to a plain `-O2` compilation of the equivalent C
//! (no vectorization on a PPC405).

use carng::{CaRng, Rng16};
use ga_core::behavioral::{GenStats, Individual};
use ga_core::ops;
use ga_core::GaParams;

use crate::cost::OpCounts;

/// Result of an instrumented software run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwRun {
    /// Best individual found.
    pub best: Individual,
    /// Dynamic operation counts.
    pub ops: OpCounts,
    /// Fitness evaluations (each is one bus read).
    pub evaluations: u64,
    /// Per-generation statistics, generation 0 (initial population)
    /// included — same shape as the behavioral engine's history, so the
    /// conformance suite can compare trajectories across engines. The
    /// recording itself is *not* costed: the measured C program logs
    /// nothing (the paper reads these values off Chipscope probes).
    pub history: Vec<GenStats>,
}

/// The instrumented software GA.
pub struct CountingGa<F: FnMut(u16) -> u16> {
    params: GaParams,
    rng: CaRng,
    fitness: F,
    counts: OpCounts,
    evaluations: u64,
}

impl<F: FnMut(u16) -> u16> CountingGa<F> {
    /// Create the software optimizer. `fitness` stands in for the
    /// fabric lookup ROM; each call is costed as one PLB round trip.
    pub fn new(params: GaParams, fitness: F) -> Self {
        params.validate().expect("invalid GA parameters");
        CountingGa {
            params,
            rng: CaRng::new(params.seed),
            fitness,
            counts: OpCounts::default(),
            evaluations: 0,
        }
    }

    /// Software CA-RNG step: two shifts, two XORs, an AND, the state
    /// store, and the call overhead of `rand16()`.
    fn draw(&mut self) -> u16 {
        self.counts.alu += 5;
        self.counts.store += 1;
        self.counts.call += 1;
        self.rng.next_u16()
    }

    /// One fitness evaluation: argument marshaling + the PLB read of
    /// the fabric ROM.
    fn evaluate(&mut self, chrom: u16) -> u16 {
        self.counts.alu += 2;
        self.counts.bus_read += 1;
        self.evaluations += 1;
        (self.fitness)(chrom)
    }

    /// Proportionate selection: threshold scale (64-bit multiply = two
    /// `mullw`/`mulhw` + shift) then the cumulative scan (load, add,
    /// compare-branch per member).
    fn select(&mut self, pop: &[Individual], fit_sum: u32) -> Individual {
        let r = self.draw();
        self.counts.mul += 2;
        self.counts.alu += 2;
        let threshold = ops::selection_threshold(fit_sum, r);
        let mut cum = 0u32;
        for ind in pop {
            self.counts.load += 1;
            self.counts.alu += 1;
            self.counts.branch += 1;
            cum += ind.fitness as u32;
            if ops::selection_hit(cum, threshold) {
                return *ind;
            }
        }
        self.counts.branch += 1;
        *pop.last().expect("population non-empty")
    }

    /// Run the full optimization and return the op tally.
    pub fn run(mut self) -> SwRun {
        let pop_n = self.params.pop_size as usize;
        // `n_gens` comes off the wire: grow the history, never size it.
        let mut history = Vec::new();

        // --- initial population ---------------------------------------
        let mut cur: Vec<Individual> = Vec::with_capacity(pop_n);
        let mut fit_sum = 0u32;
        let mut best = Individual::default();
        for i in 0..pop_n {
            let chrom = self.draw();
            let fitness = self.evaluate(chrom);
            // Array stores + running sum + best check + loop overhead.
            self.counts.store += 2;
            self.counts.alu += 3;
            self.counts.branch += 2;
            if i == 0 || fitness > best.fitness {
                best = Individual { chrom, fitness };
            }
            fit_sum += fitness as u32;
            cur.push(Individual { chrom, fitness });
        }
        history.push(GenStats {
            gen: 0,
            best,
            fit_sum,
            pop_size: self.params.pop_size,
        });

        // --- generations ----------------------------------------------
        for gen in 0..self.params.n_gens {
            let mut new_pop = Vec::with_capacity(pop_n);
            // Elite copy: two stores + bookkeeping.
            self.counts.store += 2;
            self.counts.alu += 2;
            new_pop.push(best);
            let mut new_sum = best.fitness as u32;
            let mut new_best = best;

            while new_pop.len() < pop_n {
                let p1 = self.select(&cur, fit_sum);
                let p2 = self.select(&cur, fit_sum);
                // Crossover: field extraction + decision + mask algebra.
                let (xd, cut) = ops::xover_fields(self.draw());
                self.counts.alu += 8;
                self.counts.branch += 1;
                let (o1, o2) = if ops::decision(xd, self.params.xover_threshold) {
                    ops::crossover(p1.chrom, p2.chrom, cut)
                } else {
                    (p1.chrom, p2.chrom)
                };
                for mut chrom in [o1, o2] {
                    if new_pop.len() >= pop_n {
                        break;
                    }
                    // Mutation: field extraction + decision + XOR.
                    let (md, point) = ops::mut_fields(self.draw());
                    self.counts.alu += 4;
                    self.counts.branch += 1;
                    if ops::decision(md, self.params.mut_threshold) {
                        chrom = ops::mutate(chrom, point);
                    }
                    let fitness = self.evaluate(chrom);
                    // Store offspring, accumulate sum, track best, loop.
                    self.counts.store += 2;
                    self.counts.alu += 3;
                    self.counts.branch += 2;
                    let ind = Individual { chrom, fitness };
                    if fitness > new_best.fitness {
                        new_best = ind;
                    }
                    new_sum += fitness as u32;
                    new_pop.push(ind);
                }
            }
            // Swap population pointers + generation bookkeeping.
            self.counts.alu += 4;
            self.counts.branch += 1;
            cur = new_pop;
            fit_sum = new_sum;
            best = new_best;
            history.push(GenStats {
                gen: gen + 1,
                best,
                fit_sum,
                pop_size: self.params.pop_size,
            });
        }

        SwRun {
            best,
            ops: self.counts,
            evaluations: self.evaluations,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;
    use ga_core::GaEngine;
    use ga_fitness::TestFunction;

    #[test]
    fn software_ga_matches_behavioral_engine_result() {
        // The software implementation is "similar to the GA optimization
        // algorithm in the IP core" — here it is draw-identical, so the
        // answers must agree exactly.
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let f = TestFunction::Mbf6_2;
        let sw = CountingGa::new(params, |c| f.eval_u16(c)).run();
        let engine = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();
        assert_eq!(sw.best, engine.best);
        assert_eq!(sw.evaluations, engine.evaluations);
    }

    #[test]
    fn history_matches_behavioral_engine_generation_for_generation() {
        // The trajectory, not just the answer: gen 0 through the final
        // generation must carry identical (best, fit_sum) at every step.
        for (pop, gens, seed) in [(32u8, 16u32, 0x2961u16), (15, 8, 0x061F), (64, 8, 45890)] {
            let params = GaParams::new(pop, gens, 10, 1, seed);
            let f = TestFunction::Bf6;
            let sw = CountingGa::new(params, |c| f.eval_u16(c)).run();
            let engine = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();
            assert_eq!(sw.history.len(), gens as usize + 1);
            assert_eq!(sw.history, engine.history, "pop {pop} seed {seed:#06x}");
        }
    }

    #[test]
    fn bus_reads_equal_evaluations() {
        let params = GaParams::new(16, 8, 10, 1, 0xB342);
        let sw = CountingGa::new(params, |c| TestFunction::F3.eval_u16(c)).run();
        assert_eq!(sw.ops.bus_read, sw.evaluations);
        assert_eq!(sw.evaluations, 16 + 8 * 15);
    }

    #[test]
    fn op_counts_scale_with_population() {
        let small = CountingGa::new(GaParams::new(8, 8, 10, 1, 7), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        let large = CountingGa::new(GaParams::new(64, 8, 10, 1, 7), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        // Selection is O(pop²) per generation: ops grow superlinearly.
        assert!(large.ops.total_ops() > 8 * small.ops.total_ops());
    }

    #[test]
    fn selection_scan_dominates_loads() {
        let params = GaParams::new(64, 16, 10, 1, 0x061F);
        let sw = CountingGa::new(params, |c| TestFunction::Bf6.eval_u16(c)).run();
        // Each selection scans up to pop members: loads must dwarf
        // stores in this workload.
        assert!(sw.ops.load > 4 * sw.ops.store);
    }
}
