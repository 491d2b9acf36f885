//! The cycle-accurate 32-bit GA: two complete 16-bit GA systems ganged
//! per Fig. 6, with the `scalingLogic_parSel` block and a shared 32-bit
//! fitness module.
//!
//! Composition rules implemented exactly as §III-D describes them:
//!
//! * each core has its **own RNG** (core 2 is seeded with the
//!   complemented seed) and its own GA memory bank holding its half of
//!   every individual;
//! * the **fitness module** sees the concatenated `{MSB, LSB}`
//!   candidate; `fit_valid` is sent to both cores. (We also mirror the
//!   fitness *value* to core 2 — the one wire beyond the paper's text,
//!   which is what keeps both cores' elite/fitness-sum registers
//!   tracking the same 32-bit individual; without it core 2's elitism
//!   has no fitness to rank by.)
//! * **parent selection** is decided by core 1 alone. The scaling
//!   logic (a) forces core 2's threshold draw to zero (its `rn` input
//!   is muxed to 0 during the threshold state — the status wire is part
//!   of the core's Moore outputs) and (b) intercepts core 2's
//!   memory-read fitness during the scan: zero until core 1's exported
//!   `sel_hit` wire fires, full-scale on that cycle — so core 2's
//!   cumulative sum crosses its (zero) threshold at exactly core 1's
//!   parent index.
//!
//! Because the two FSMs are identical, take data-independent paths
//! through crossover/mutation (one state each), and re-synchronize at
//! every fitness handshake, the cores run in **lockstep** — asserted by
//! the differential tests against [`crate::scaling::GaEngine32`].
//!
//! The run loop moves the clock with [`GaSystem32::advance`], which
//! jumps a quiet window in one step as [`crate::GaSystem::advance`]
//! does, when both cores enter it together. In a selection window core
//! 1's walk picks the hit; core 2 walks the same window with the
//! threshold draw and the reads `scalingLogic_parSel` forces on it
//! (`rn` zero, fitness zero until core 1's hit, full-scale on it), so
//! both cores land on the same member and core 2's `cum` stays put; the
//! jump applies only when core 2's forced walk ends on core 1's hit. In
//! a handshake window the shared module answers the concatenated
//! candidate once and both cores latch it on the same cycle.

use std::fmt;

use hwsim::{Clocked, Reg, Sim, SimError};

use crate::memory::{pack, unpack, GaMemory};
use crate::params::GaParams;
use crate::ports::GaCoreIn;
use crate::rngmod::RngModule;
use crate::scaling::{GaRun32, GenStats32, Individual32};
use crate::system::UserIn;
use crate::GaCoreHw;

/// The shared 32-bit fitness module: same handshake and latency as the
/// 16-bit block-ROM FEM, evaluating the concatenated candidate.
struct Fem32<F: FnMut(u32) -> u16> {
    f: F,
    state: Reg<u8>, // 0 idle, 1 fetch, 2 hold
    value: Reg<u16>,
    valid: Reg<bool>,
}

impl<F: FnMut(u32) -> u16> Fem32<F> {
    fn new(f: F) -> Self {
        Fem32 {
            f,
            state: Reg::default(),
            value: Reg::default(),
            valid: Reg::default(),
        }
    }

    fn eval(&mut self, req_both: bool, cand32: u32) {
        match self.state.get() {
            0 => {
                if req_both {
                    self.value.set((self.f)(cand32));
                    self.state.set(1);
                }
            }
            1 => {
                self.valid.set(true);
                self.state.set(2);
            }
            _ => {
                if !req_both {
                    self.valid.set(false);
                    self.state.set(0);
                }
            }
        }
    }

    fn commit(&mut self) {
        self.state.commit();
        self.value.commit();
        self.valid.commit();
    }

    fn reset(&mut self) {
        self.state.reset_to(0);
        self.value.reset_to(0);
        self.valid.reset_to(false);
    }

    /// Idle with `fit_valid` low: a cycle without a request changes
    /// nothing.
    fn quiescent(&self) -> bool {
        self.state.get() == 0 && !self.valid.get()
    }

    /// [`ga_fitness::Fem::answer`] for the shared module, called while
    /// it is quiescent: edge 1 evaluates (`fetch`), edge 2 raises
    /// `fit_valid` (`hold`).
    fn answer(&mut self, cand32: u32, max_edges: u64) -> Option<u64> {
        if max_edges < 2 {
            return None;
        }
        self.value.reset_to((self.f)(cand32));
        self.valid.reset_to(true);
        self.state.reset_to(2);
        Some(2)
    }
}

/// The dual-core 32-bit GA system.
pub struct GaSystem32<F: FnMut(u32) -> u16> {
    core1: GaCoreHw,
    core2: GaCoreHw,
    rng1: RngModule,
    rng2: RngModule,
    mem1: GaMemory,
    mem2: GaMemory,
    fem: Fem32<F>,
    sim: Sim,
    history: Vec<GenStats32>,
    pop_size: u8,
}

/// Every register a clock edge can change, as the testbench compares
/// them: the cycle count, each core's half and the shared module.
impl<F: FnMut(u32) -> u16> fmt::Debug for GaSystem32<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GaSystem32")
            .field("cycles", &self.sim.cycles())
            .field("halves", &self.halves())
            .field("fem_state", &self.fem.state)
            .field("fem_value", &self.fem.value)
            .field("fem_valid", &self.fem.valid)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u32) -> u16> GaSystem32<F> {
    /// Build the composite around a 32-bit fitness function.
    pub fn new(fitness: F) -> Self {
        let mut s = GaSystem32 {
            core1: GaCoreHw::new(),
            core2: GaCoreHw::new(),
            rng1: RngModule::new_ca(1),
            rng2: RngModule::new_ca(2),
            mem1: GaMemory::new(),
            mem2: GaMemory::new(),
            fem: Fem32::new(fitness),
            sim: Sim::new_50mhz(),
            history: Vec::new(),
            pop_size: GaParams::default().pop_size,
        };
        s.core1.reset();
        s.core2.reset();
        s.fem.reset();
        s
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// The clocked modules of each core's half, core 1 (MSB) first
    /// (testbench probe).
    pub fn halves(&self) -> [(&GaCoreHw, &RngModule, &GaMemory); 2] {
        [
            (&self.core1, &self.rng1, &self.mem1),
            (&self.core2, &self.rng2, &self.mem2),
        ]
    }

    /// One clock of the whole composite.
    pub fn step(&mut self, user: UserIn) {
        // Sample all registered outputs.
        let o1 = self.core1.out();
        let o2 = self.core2.out();
        let rn1 = self.rng1.rn();
        let rn2 = self.rng2.rn();
        let m1 = self.mem1.dout();
        let m2 = self.mem2.dout();
        let fem_valid = self.fem.valid.get();
        let fem_value = self.fem.value.get();

        // --- core 1 (master) -----------------------------------------
        let comb1 = self.core1.eval(&GaCoreIn {
            ga_load: user.ga_load,
            index: user.index,
            value: user.value,
            data_valid: user.data_valid,
            fit_value: fem_value,
            fit_valid: fem_valid,
            mem_data_in: m1,
            start_ga: user.start_ga,
            rn: rn1,
            ..Default::default()
        });

        // --- scalingLogic_parSel ---------------------------------------
        // Core 2's threshold draw is forced to zero; its selection-scan
        // fitness reads are 0 until core 1's same-cycle hit, then max.
        let rn2_in = if self.core2.is_sel_draw() { 0 } else { rn2 };
        let mem2_in = if self.core2.is_sel_scanning() {
            let ind = unpack(m2);
            let forced = if comb1.sel_hit { 0xFFFF } else { 0 };
            pack(crate::behavioral::Individual {
                chrom: ind.chrom,
                fitness: forced,
            })
        } else {
            m2
        };

        // --- core 2 (slave) --------------------------------------------
        let comb2 = self.core2.eval(&GaCoreIn {
            ga_load: user.ga_load,
            index: user.index,
            value: user.value,
            data_valid: user.data_valid,
            // fit_valid to both cores; the value is mirrored (see the
            // module docs for why).
            fit_value: fem_value,
            fit_valid: fem_valid,
            mem_data_in: mem2_in,
            start_ga: user.start_ga,
            rn: rn2_in,
            ..Default::default()
        });

        // --- shared FEM -------------------------------------------------
        let cand32 = ((o1.candidate as u32) << 16) | o2.candidate as u32;
        self.fem.eval(o1.fit_request && o2.fit_request, cand32);

        // --- RNGs and memories ------------------------------------------
        // Core 2's RNG powers on with the complemented seed (matching
        // the behavioral GaEngine32 convention) regardless of what its
        // seed register was programmed with.
        let seed2 = comb2
            .rn_seed_load
            .map(|_| !self.core1.programmed_params().seed);
        self.rng1.eval(comb1.rn_consume, comb1.rn_seed_load);
        self.rng2.eval(comb2.rn_consume, seed2);
        self.mem1.eval(o1.mem_address, o1.mem_data_out, o1.mem_wr);
        self.mem2.eval(o2.mem_address, o2.mem_data_out, o2.mem_wr);

        // Probe: the generation event fires on both cores the same
        // cycle (lockstep); core 1 carries the fitness, core 2 the LSB.
        if let (Some((gen, msb, fit, sum)), Some((gen2, lsb, _, _))) =
            (comb1.stats_event, comb2.stats_event)
        {
            debug_assert_eq!(gen, gen2, "cores out of lockstep at a generation boundary");
            self.history.push(GenStats32 {
                gen,
                best: Individual32 {
                    chrom: ((msb as u32) << 16) | lsb as u32,
                    fitness: fit,
                },
                fit_sum: sum,
            });
        }

        // Commit everything: one clock edge.
        self.core1.commit();
        self.core2.commit();
        self.rng1.commit();
        self.rng2.commit();
        self.mem1.commit();
        self.mem2.commit();
        self.fem.commit();
        // Count the cycle (the composite commits its modules itself).
        struct Nop;
        impl Clocked for Nop {
            fn reset(&mut self) {}
            fn commit(&mut self) {}
        }
        let mut nop = Nop;
        self.sim.step(&mut nop, |_| {});
    }

    /// Advance the run by at most `limit` cycles (`limit ≥ 1`) with
    /// idle user inputs, and return how many cycles passed: a whole
    /// quiet window when both cores enter it together and it fits in
    /// `limit` (see the module docs), one [`GaSystem32::step`]
    /// otherwise.
    pub fn advance(&mut self, limit: u64) -> u64 {
        match self.jump(limit) {
            Some(cycles) => cycles,
            None => {
                self.step(UserIn::default());
                1
            }
        }
    }

    /// The window jump of [`GaSystem32::advance`], if it applies.
    fn jump(&mut self, limit: u64) -> Option<u64> {
        if !self.fem.quiescent() {
            return None;
        }
        let mem1 = &self.mem1;
        let mut w1 = self.core1.walk(self.rng1.rn(), |addr, _| mem1.word(addr))?;
        // Core 2 draws a forced zero and reads its own chromosomes with
        // the fitness half forced by scalingLogic_parSel, member for
        // member in lockstep.
        let mem2 = &self.mem2;
        let hit_at = w1.cycles;
        let mut w2 = self.core2.walk(0, |addr, at| {
            pack(crate::behavioral::Individual {
                chrom: unpack(mem2.word(addr)).chrom,
                fitness: if at == hit_at { 0xFFFF } else { 0 },
            })
        })?;
        match (w1.request(), w2.request()) {
            (None, None) => {}
            (Some(msb), Some(lsb)) => {
                if w1.cycles >= limit {
                    return None;
                }
                let cand32 = ((msb as u32) << 16) | lsb as u32;
                let edges = self.fem.answer(cand32, limit - w1.cycles)?;
                let value = self.fem.value.get();
                w1.answer(value, edges);
                w2.answer(value, edges);
            }
            _ => return None,
        }
        if w2.cycles != w1.cycles || w1.cycles > limit {
            return None;
        }
        if w1.draws() {
            self.rng1.eval(true, None);
            self.rng1.commit();
        }
        if w2.draws() {
            self.rng2.eval(true, None);
            self.rng2.commit();
        }
        self.core1.apply(&w1);
        self.core2.apply(&w2);
        self.mem1.settle_read(self.core1.out().mem_address);
        self.mem2.settle_read(self.core2.out().mem_address);
        self.sim.advance(w1.cycles);
        Some(w1.cycles)
    }

    /// Program both cores with the same parameters (the user programs
    /// one init bus; both cores listen — Fig. 6 shows a single
    /// initialization path).
    pub fn program(&mut self, params: &GaParams) -> u64 {
        params.validate().expect("invalid GA parameters");
        self.pop_size = params.pop_size;
        let start = self.sim.cycles();
        let mut init = crate::init::InitModule::new(params);
        init.reset();
        init.start();
        let mut guard = 0;
        while !init.out().done {
            let io = init.out();
            let ack = self.core1.out().data_ack;
            init.eval(ack);
            self.step(UserIn {
                ga_load: io.ga_load,
                index: io.index,
                value: io.value,
                data_valid: io.data_valid,
                ..Default::default()
            });
            init.commit();
            guard += 1;
            assert!(guard < 1000, "init handshake hung");
        }
        self.step(UserIn::default());
        self.sim.cycles() - start
    }

    /// Pulse start and run to completion on both cores.
    pub fn run(&mut self, max_cycles: u64) -> Result<GaRun32, SimError> {
        self.run_with_deadline(max_cycles, None)
    }

    /// [`GaSystem32::run`] with an additional wall-clock budget,
    /// mirroring [`crate::GaSystem::run_with_deadline`]: the cycle
    /// watchdog bounds *simulated* time, the [`hwsim::Deadline`] bounds
    /// *host* time. Checked between cycles, so an in-flight cycle
    /// always completes.
    pub fn run_with_deadline(
        &mut self,
        max_cycles: u64,
        mut deadline: Option<&mut hwsim::Deadline>,
    ) -> Result<GaRun32, SimError> {
        self.history.clear();
        let start = self.sim.cycles();
        self.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        loop {
            let done1 = self.core1.out().ga_done;
            let done2 = self.core2.out().ga_done;
            if done1 && done2 {
                break;
            }
            let guard = self.sim.cycles() - start;
            if guard >= max_cycles {
                return Err(SimError::Timeout { cycles: guard });
            }
            if let Some(d) = deadline.as_deref_mut() {
                if d.expired() {
                    return Err(SimError::DeadlineExceeded { cycles: guard });
                }
            }
            // A jump ends on the watchdog bound at the latest.
            self.advance(max_cycles - guard);
        }
        let chrom = ((self.core1.out().candidate as u32) << 16) | self.core2.out().candidate as u32;
        let fitness = self
            .history
            .last()
            .map(|s| s.best.fitness)
            .unwrap_or_default();
        Ok(GaRun32 {
            best: Individual32 { chrom, fitness },
            history: self.history.clone(),
            evaluations: 0,
        })
    }

    /// Program, then run.
    pub fn program_and_run(
        &mut self,
        params: &GaParams,
        max_cycles: u64,
    ) -> Result<GaRun32, SimError> {
        self.program(params);
        self.run(max_cycles)
    }

    /// Testbench probe: the final 32-bit population, concatenated from
    /// both memories' current banks.
    pub fn population(&self) -> Vec<Individual32> {
        let b1 = self.core1.current_bank_base();
        let b2 = self.core2.current_bank_base();
        let p1 = self.mem1.backdoor_population(b1, self.pop_size);
        let p2 = self.mem2.backdoor_population(b2, self.pop_size);
        p1.iter()
            .zip(&p2)
            .map(|(m, l)| Individual32 {
                chrom: ((m.chrom as u32) << 16) | l.chrom as u32,
                fitness: m.fitness,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::GaEngine32;
    use carng::CaRng;

    fn sum_halves(c: u32) -> u16 {
        (((c >> 16) + (c & 0xFFFF)) / 2) as u16
    }

    fn minimax(c: u32) -> u16 {
        let msb = (c >> 16) as i64;
        let lsb = (c & 0xFFFF) as i64;
        ((msb - lsb) / 2 + 32768).clamp(0, 65535) as u16
    }

    /// The cycle-accurate composite must match the behavioral dual-core
    /// engine generation for generation.
    fn assert_32bit_models_agree(f: fn(u32) -> u16, params: GaParams) {
        let sw =
            GaEngine32::new(params, CaRng::new(params.seed), CaRng::new(!params.seed), f).run();
        let mut hw = GaSystem32::new(f);
        let run = hw
            .program_and_run(&params, 1_000_000_000)
            .expect("hardware run timed out");
        assert_eq!(run.history.len(), sw.history.len());
        for (h, s) in run.history.iter().zip(sw.history.iter()) {
            assert_eq!(h.gen, s.gen);
            assert_eq!(h.best, s.best, "best at gen {}", s.gen);
            assert_eq!(h.fit_sum, s.fit_sum, "fit_sum at gen {}", s.gen);
        }
        assert_eq!(run.best.chrom, sw.best.chrom);
        assert_eq!(run.best.fitness, sw.best.fitness);
    }

    #[test]
    fn models_agree_small() {
        assert_32bit_models_agree(sum_halves, GaParams::new(8, 4, 10, 1, 0x2961));
    }

    #[test]
    fn models_agree_paper_setting() {
        assert_32bit_models_agree(sum_halves, GaParams::new(32, 16, 10, 1, 0xB342));
    }

    #[test]
    fn models_agree_minimax_odd_pop() {
        assert_32bit_models_agree(minimax, GaParams::new(15, 8, 12, 3, 0x061F));
    }

    #[test]
    fn composite_population_is_consistent() {
        let params = GaParams::new(16, 6, 10, 1, 0xAAAA);
        let mut hw = GaSystem32::new(sum_halves);
        hw.program_and_run(&params, 500_000_000).unwrap();
        let pop = hw.population();
        assert_eq!(pop.len(), 16);
        // Every stored fitness must match the 32-bit function of the
        // stored chromosome (the mirrored-fitness wiring is coherent).
        for ind in &pop {
            assert_eq!(ind.fitness, sum_halves(ind.chrom), "{:#010X}", ind.chrom);
        }
    }

    #[test]
    fn dual_core_optimizes() {
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let mut hw = GaSystem32::new(sum_halves);
        let run = hw.program_and_run(&params, 1_000_000_000).unwrap();
        assert!(run.best.fitness > 55_000, "fitness {}", run.best.fitness);
    }
}
