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
    /// compare-branch per member). The pick comes from a binary search
    /// over `prefix` ([`ops::selection_pick`]); the tally is still the
    /// C program's linear scan: a hit at index k scanned k + 1 members,
    /// a fall-through scanned all of them plus the exit branch.
    fn select(&mut self, pop: &[Individual], prefix: &[u32], fit_sum: u32) -> Individual {
        let r = self.draw();
        self.counts.mul += 2;
        self.counts.alu += 2;
        let threshold = ops::selection_threshold(fit_sum, r);
        let hit = ops::selection_pick(prefix, threshold);
        let scanned = hit.map_or(pop.len(), |k| k + 1) as u64;
        self.counts.load += scanned;
        self.counts.alu += scanned;
        self.counts.branch += scanned + u64::from(hit.is_none());
        pop[hit.unwrap_or(pop.len() - 1)]
    }

    /// Run the full optimization and return the op tally.
    pub fn run(self) -> SwRun {
        self.run_until(|| false)
            .expect("a run that is never cancelled finishes")
    }

    /// [`CountingGa::run`] with a cancellation point at every
    /// generation boundary: `cancelled` is polled before the initial
    /// population and before each generation, and the run returns
    /// `None` at the first `true`. Polling is not costed, so a run that
    /// finishes has the tally and result of [`CountingGa::run`].
    pub fn run_until(mut self, mut cancelled: impl FnMut() -> bool) -> Option<SwRun> {
        if cancelled() {
            return None;
        }
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
        let mut prefix = Vec::with_capacity(pop_n);
        for gen in 0..self.params.n_gens {
            if cancelled() {
                return None;
            }
            ops::selection_prefix(cur.iter().map(|i| i.fitness), &mut prefix);
            let mut new_pop = Vec::with_capacity(pop_n);
            // Elite copy: two stores + bookkeeping.
            self.counts.store += 2;
            self.counts.alu += 2;
            new_pop.push(best);
            let mut new_sum = best.fitness as u32;
            let mut new_best = best;

            while new_pop.len() < pop_n {
                let p1 = self.select(&cur, &prefix, fit_sum);
                let p2 = self.select(&cur, &prefix, fit_sum);
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

        Some(SwRun {
            best,
            ops: self.counts,
            evaluations: self.evaluations,
            history,
        })
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
    fn cancellation_polls_each_generation_boundary() {
        let params = GaParams::new(16, 8, 10, 1, 0xB342);
        let f = |c| TestFunction::F3.eval_u16(c);
        let full = CountingGa::new(params, f).run();
        // Never cancelled: the same result and the same op tally.
        assert_eq!(CountingGa::new(params, f).run_until(|| false), Some(full));
        // One poll before the initial population, one per generation.
        let mut polls = 0;
        let cancelled = CountingGa::new(params, f).run_until(|| {
            polls += 1;
            polls > 4
        });
        assert_eq!(cancelled, None);
        assert_eq!(polls, 5, "stopped at the boundary before generation 4");
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

    /// The PPC405 C program's selection, tallied the way it executes:
    /// the draw and threshold scale, then load, add and compare-branch
    /// per scanned member, plus the exit branch on a fall-through.
    fn linear_scan_select(
        rng: &mut CaRng,
        counts: &mut OpCounts,
        pop: &[Individual],
        fit_sum: u32,
    ) -> Individual {
        counts.alu += 5;
        counts.store += 1;
        counts.call += 1;
        let threshold = ops::selection_threshold(fit_sum, rng.next_u16());
        counts.mul += 2;
        counts.alu += 2;
        let mut cum = 0u32;
        for ind in pop {
            counts.load += 1;
            counts.alu += 1;
            counts.branch += 1;
            cum += ind.fitness as u32;
            if ops::selection_hit(cum, threshold) {
                return *ind;
            }
        }
        counts.branch += 1;
        *pop.last().unwrap()
    }

    /// Drive `CountingGa::select` and the linear-scan reference on the
    /// same population and RNG position; picks and tallies must agree.
    fn assert_select_tally_matches_scan(pop: &[Individual], seed: u16, draws: usize) {
        let mut ga = CountingGa::new(GaParams::new(8, 1, 10, 1, seed), |c| c);
        let mut rng = CaRng::new(seed);
        let mut want = OpCounts::default();
        let fit_sum: u32 = pop.iter().map(|i| i.fitness as u32).sum();
        let mut prefix = Vec::new();
        ops::selection_prefix(pop.iter().map(|i| i.fitness), &mut prefix);
        for _ in 0..draws {
            let got = ga.select(pop, &prefix, fit_sum);
            assert_eq!(got, linear_scan_select(&mut rng, &mut want, pop, fit_sum));
        }
        assert_eq!(ga.counts, want, "pop {} seed {seed:#06x}", pop.len());
    }

    #[test]
    fn select_tally_equals_the_linear_scan() {
        for (pop_n, seed) in [
            (1usize, 1u16),
            (2, 0x2961),
            (15, 0x061F),
            (64, 7919),
            (255, 45890),
        ] {
            // Fitness from the CA stream, every third member zeroed so
            // hits land on runs of equal prefix sums.
            let mut rng = CaRng::new(seed ^ 0x5A5A);
            let pop: Vec<Individual> = (0..pop_n)
                .map(|i| {
                    let chrom = rng.next_u16();
                    let fitness = if i % 3 == 1 { 0 } else { chrom >> 4 };
                    Individual { chrom, fitness }
                })
                .collect();
            assert_select_tally_matches_scan(&pop, seed, 500);
        }
    }

    #[test]
    fn all_zero_select_tallies_the_fall_through() {
        let pop: Vec<Individual> = (0..16u16)
            .map(|chrom| Individual { chrom, fitness: 0 })
            .collect();
        assert_select_tally_matches_scan(&pop, 0xB342, 64);
    }

    #[test]
    fn whole_run_op_counts_are_the_linear_scan_program() {
        // Tallies of the linear-scan implementation, recorded before
        // selection became a binary search: the modeled C program, and
        // so `BENCH_speedup`'s `sw_ms`, must not move.
        let cases = [
            (
                32u8,
                32u32,
                0x2961u16,
                TestFunction::Bf6,
                [45384u64, 17160, 4672, 20744, 2048, 1024, 2560],
            ),
            (
                15,
                8,
                0x061F,
                TestFunction::F3,
                [4346, 1068, 565, 1498, 224, 127, 295],
            ),
            (
                128,
                16,
                7919,
                TestFunction::MShubert2D,
                [188723, 131251, 9584, 138643, 4096, 2160, 5232],
            ),
        ];
        for (pop, gens, seed, f, [alu, load, store, branch, mul, bus_read, call]) in cases {
            let sw =
                CountingGa::new(GaParams::new(pop, gens, 10, 1, seed), |c| f.eval_u16(c)).run();
            let want = OpCounts {
                alu,
                load,
                store,
                branch,
                mul,
                bus_read,
                call,
            };
            assert_eq!(sw.ops, want, "pop {pop} seed {seed:#06x}");
        }
        let zero = CountingGa::new(GaParams::new(8, 3, 10, 1, 0x5555), |_| 0u16).run();
        let want = OpCounts {
            alu: 908,
            load: 192,
            store: 129,
            branch: 310,
            mul: 48,
            bus_read: 29,
            call: 65,
        };
        assert_eq!(zero.ops, want, "all-zero fall-through");
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
