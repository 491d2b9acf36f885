//! The PowerPC software baseline's operation tally.
//!
//! PAPER §IV-C times the core against the same GA compiled as C on the
//! PowerPC 405. That program is the IP core's algorithm (same operators,
//! same CA RNG, same draw order), so [`CountingGa`] runs it once on
//! `ga_core::GaEngine` and derives the C program's dynamic operation mix
//! from the run in closed form. Every count follows from the population
//! size, the generation count, the draws and the evaluations, except
//! the length of the linear selection scan, which follows from the
//! parent picks the engine reports. Fitness evaluations are bus reads:
//! the lookup ROM stays on the FPGA fabric, as in the paper's
//! measurement setup.
//!
//! The per-step op costs correspond to a plain `-O2` compilation of the
//! equivalent C (no vectorization on a PPC405).

use carng::CaRng;
use ga_core::behavioral::{GenStats, Individual};
use ga_core::{GaEngine, GaParams};

use crate::cost::OpCounts;

/// One software run and the C program's op tally for it.
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

/// The software GA: one `GaEngine` run, tallied as the PPC405 C program.
pub struct CountingGa<F: FnMut(u16) -> u16> {
    params: GaParams,
    fitness: F,
}

impl<F: FnMut(u16) -> u16> CountingGa<F> {
    /// Create the software optimizer. `fitness` stands in for the
    /// fabric lookup ROM; each call is costed as one PLB round trip.
    pub fn new(params: GaParams, fitness: F) -> Self {
        CountingGa { params, fitness }
    }

    /// Run the full optimization and return the op tally.
    pub fn run(self) -> SwRun {
        let CountingGa { params, fitness } = self;
        let pop = params.pop_size as usize;
        let mut engine = GaEngine::new(params, CaRng::new(params.seed), fitness);
        // The C selection scans k + 1 members for a hit at k, and all of
        // them plus an exit branch for a fall-through.
        let (mut scanned, mut fall_throughs) = (0u64, 0u64);
        let mut history = vec![engine.init_population()];
        for _ in 0..params.n_gens {
            history.push(engine.step_generation_with(|hit| {
                scanned += hit.map_or(pop, |k| k + 1) as u64;
                fall_throughs += u64::from(hit.is_none());
            }));
        }
        let (p, g) = (pop as u64, u64::from(params.n_gens));
        let offspring = g * (p - 1);
        let pairs = g * (p - 1).div_ceil(2);
        let (draws, evals) = (engine.rng_draws(), engine.evaluations());
        // Per draw (`rand16()`): two shifts, two XORs, an AND, the state
        // store and the call. Per evaluation: argument marshaling and
        // the PLB read. Per initial member: two array stores, running
        // sum, best check and loop (3 ALU, 2 branches). Per generation:
        // the elite copy (2 stores, 2 ALU) and the pointer swap (4 ALU,
        // 1 branch). Per pair: two threshold scales (a 64-bit multiply,
        // `mullw` + `mulhw`, and 2 ALU each) and the crossover fields,
        // decision and mask algebra (8 ALU, 1 branch). Per offspring:
        // mutation (4 ALU, 1 branch), then store, sum, best check and
        // loop (2 stores, 3 ALU, 2 branches). Per scanned member: load,
        // add and compare-branch.
        let ops = OpCounts {
            alu: 5 * draws + 2 * evals + 3 * p + 6 * g + 12 * pairs + scanned + 7 * offspring,
            load: scanned,
            store: draws + 2 * p + 2 * g + 2 * offspring,
            branch: 2 * p + g + scanned + fall_throughs + pairs + 3 * offspring,
            mul: 4 * pairs,
            bus_read: evals,
            call: draws,
        };
        SwRun {
            best: engine.best(),
            ops,
            evaluations: evals,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
