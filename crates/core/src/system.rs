//! The complete GA module of Fig. 4: core + RNG + GA memory + FEM bank,
//! wired exactly as the paper's block diagram, plus the user-side
//! initialization module and a Chipscope-style probe.
//!
//! The per-cycle evaluation order implements the combinational wiring:
//! every module's registered outputs are sampled first, then each module
//! evaluates against those samples; the core's same-cycle combinational
//! outputs (RNG consume/seed wires) feed the RNG module inside the same
//! phase (an acyclic combinational path). A single commit latches the
//! whole system — one rising clock edge at 50 MHz.
//!
//! The run loops move the clock with [`GaSystem::advance`]. It steps one
//! cycle, except at the start of a quiet window that nothing observes
//! cycle by cycle (see [`crate::hwcore`]): a parent selection from
//! `SelDraw`, `SelMulWait` or `SelScanAddr` through the hit's data
//! cycle, or a fitness handshake from the request through the cycle
//! that latches `fit_valid`. There it computes the window
//! (`GaCoreHw::walk`) and jumps to the clock edge after it, with the
//! core's registers, the RNG (one draw for a window that starts at
//! `SelDraw`), the memory read register, the fitness module and the
//! cycle count exactly as single steps leave them. A handshake jumps
//! only when the selected module answers in a fixed number of edges
//! ([`Fem::answer`]: the block-ROM [`ga_fitness::LookupFem`]) and the
//! application clock runs at the GA clock (`fast_domain_ratio` 1). A
//! VCD capture, a protocol monitor, test mode, a pending memory write, a
//! fitness module that is not [`Fem::quiescent`], or a watchdog or
//! scheduled fault inside the window keeps single steps.

use ga_fitness::fem::{Fem, FemBank, FemBankIn, FemIn};
use hwsim::vcd::VcdVar;
use hwsim::{Clocked, HandshakeMonitor, Sim, SimError, Trace, VcdWriter};

use crate::behavioral::{GaRun, GenStats, Individual};
use crate::hwcore::GaCoreHw;
use crate::memory::GaMemory;
use crate::params::GaParams;
use crate::ports::GaCoreIn;
use crate::rngmod::RngModule;

/// User-driven inputs for one clock cycle (everything in [`GaCoreIn`]
/// that does not come from the wired modules).
#[derive(Debug, Clone, Copy, Default)]
pub struct UserIn {
    /// `start_GA` pulse.
    pub start_ga: bool,
    /// `ga_load` — parameter initialization mode.
    pub ga_load: bool,
    /// Parameter index bus.
    pub index: u8,
    /// Parameter value bus.
    pub value: u16,
    /// Initialization handshake strobe.
    pub data_valid: bool,
    /// Scan-test enable.
    pub test: bool,
    /// Scan-chain input.
    pub scanin: bool,
}

/// The clocked modules of the GA system (one commit = one clock edge).
pub struct GaModules {
    /// The GA IP core.
    pub core: GaCoreHw,
    /// The RNG module.
    pub rng: RngModule,
    /// The 256×32 GA memory.
    pub mem: GaMemory,
    /// The 8-slot fitness bank.
    pub fems: FemBank,
    /// Optional external fitness module "on another chip" (hybrid
    /// intrinsic EHW, Fig. 5). Driven by the bank's forwarded request.
    pub ext_fem: Option<Box<dyn Fem>>,
}

impl Clocked for GaModules {
    fn reset(&mut self) {
        self.core.reset();
        self.rng.reset();
        self.mem.reset();
        self.fems.reset();
        if let Some(e) = self.ext_fem.as_mut() {
            e.reset();
        }
    }

    fn commit(&mut self) {
        self.core.commit();
        self.rng.commit();
        self.mem.commit();
        self.fems.commit();
        if let Some(e) = self.ext_fem.as_mut() {
            e.commit();
        }
    }
}

/// Result of a hardware run.
#[derive(Debug, Clone, PartialEq)]
pub struct HwRun {
    /// Best individual (from the candidate bus when `GA_done` rose,
    /// fitness from the final stats event).
    pub best: Individual,
    /// Clock cycles from `start_GA` to `GA_done`.
    pub cycles: u64,
    /// Wall-clock seconds at the 50 MHz GA clock.
    pub seconds: f64,
    /// Per-generation statistics captured by the probe.
    pub history: Vec<GenStats>,
    /// RNG draws consumed (instrumentation).
    pub rng_draws: u64,
}

impl HwRun {
    /// View as a [`GaRun`] for shared analysis code (convergence etc.).
    pub fn as_ga_run(&self) -> GaRun {
        GaRun {
            best: self.best,
            history: self.history.clone(),
            evaluations: 0,
            rng_draws: self.rng_draws,
        }
    }
}

/// The complete, wired GA system.
pub struct GaSystem {
    modules: GaModules,
    sim: Sim,
    /// 3-bit fitness function select presented to the bank and core.
    pub fitfunc_select: u8,
    /// 2-bit preset bus.
    pub preset: u8,
    /// Clock ratio of the application domain to the GA domain. The
    /// paper's board uses a DCM to run the GA module at 50 MHz and the
    /// initialization/application (FEM) modules at 200 MHz — ratio 4.
    /// The level-based handshakes make the crossing safe; a higher
    /// ratio shortens every fitness transaction as seen in GA cycles.
    pub fast_domain_ratio: u32,
    trace: Trace,
    history: Vec<GenStats>,
    pop_size_hint: u8,
    vcd: Option<VcdCapture>,
    monitor: Option<HandshakeMonitor>,
    host_steps: u64,
}

/// Waveform capture of the Table II interface (the ModelSim view).
struct VcdCapture {
    writer: VcdWriter,
    candidate: VcdVar,
    fit_request: VcdVar,
    fit_valid: VcdVar,
    mem_address: VcdVar,
    mem_wr: VcdVar,
    ga_done: VcdVar,
    rn: VcdVar,
}

impl GaSystem {
    /// Build a system around a fitness bank, with the paper's CA RNG.
    pub fn new(fems: FemBank) -> Self {
        let mut modules = GaModules {
            core: GaCoreHw::new(),
            rng: RngModule::new_ca(1),
            mem: GaMemory::new(),
            fems,
            ext_fem: None,
        };
        modules.reset();
        GaSystem {
            modules,
            sim: Sim::new_50mhz(),
            fitfunc_select: 0,
            preset: 0,
            fast_domain_ratio: 1,
            trace: Trace::new(),
            history: Vec::new(),
            pop_size_hint: GaParams::default().pop_size,
            vcd: None,
            monitor: None,
            host_steps: 0,
        }
    }

    /// Attach a protocol-assertion monitor to the fitness handshake;
    /// inspect it with [`GaSystem::protocol_monitor`] after the run.
    pub fn enable_protocol_monitor(&mut self) {
        // The slowest in-tree FEM (mShubert CORDIC) answers within ~350
        // fast-domain cycles; the drain bound only polices the *release*
        // side, which is a handful of cycles for every FEM.
        self.monitor = Some(HandshakeMonitor::new("fitness", 8));
    }

    /// The attached protocol monitor, if any.
    pub fn protocol_monitor(&self) -> Option<&HandshakeMonitor> {
        self.monitor.as_ref()
    }

    /// Start capturing a VCD waveform of the Table II interface signals
    /// (one sample per clock). Call [`GaSystem::finish_vcd`] to render.
    pub fn start_vcd(&mut self) {
        let mut writer = VcdWriter::new("ga_system", self.sim.period_ps());
        let candidate = writer.add_var("candidate", 16);
        let fit_request = writer.add_var("fit_request", 1);
        let fit_valid = writer.add_var("fit_valid", 1);
        let mem_address = writer.add_var("mem_address", 8);
        let mem_wr = writer.add_var("mem_wr", 1);
        let ga_done = writer.add_var("GA_done", 1);
        let rn = writer.add_var("rn", 16);
        self.vcd = Some(VcdCapture {
            writer,
            candidate,
            fit_request,
            fit_valid,
            mem_address,
            mem_wr,
            ga_done,
            rn,
        });
    }

    /// Stop capturing and render the VCD document, if capture was on.
    pub fn finish_vcd(&mut self) -> Option<String> {
        self.vcd.take().map(|c| c.writer.finish())
    }

    /// Replace the RNG module (e.g. with the LFSR kernel).
    pub fn with_rng(mut self, rng: RngModule) -> Self {
        self.modules.rng = rng;
        self
    }

    /// Attach an external fitness module (hybrid EHW configuration,
    /// Fig. 5). Route requests to it by selecting the bank slot that is
    /// declared [`ga_fitness::FemSlot::External`].
    pub fn with_external_fem(mut self, fem: Box<dyn Fem>) -> Self {
        self.modules.ext_fem = Some(fem);
        self
    }

    /// Access the wired modules (testbench backdoors).
    pub fn modules(&self) -> &GaModules {
        &self.modules
    }

    /// Elapsed cycles since construction.
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// [`GaSystem::advance`] calls since construction: the host steps
    /// the run loops took, one per cycle or quiet window
    /// (instrumentation).
    pub fn host_steps(&self) -> u64 {
        self.host_steps
    }

    /// The Chipscope-style trace (best/sum per generation).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// One clock cycle of the whole system.
    pub fn step(&mut self, user: UserIn) {
        let select = self.fitfunc_select;
        let preset = self.preset;
        let ratio = self.fast_domain_ratio.max(1);
        let m = &mut self.modules;
        let mut stats: Option<(u32, u16, u16, u32)> = None;

        self.sim.step(m, |m| {
            // Sample registered outputs.
            let core_out = m.core.out();
            let ext_out = m.ext_fem.as_ref().map(|e| e.out()).unwrap_or_default();
            let fem_out = m.fems.out(select, ext_out.fit_value, ext_out.fit_valid);
            let rn = m.rng.rn();
            let mem_dout = m.mem.dout();
            let ext_req = m.fems.ext_request();

            // Core evaluation (combinational RNG wires come back).
            let comb = m.core.eval(&GaCoreIn {
                ga_load: user.ga_load,
                index: user.index,
                value: user.value,
                data_valid: user.data_valid,
                fit_value: fem_out.fit_value,
                fit_valid: fem_out.fit_valid,
                mem_data_in: mem_dout,
                start_ga: user.start_ga,
                test: user.test,
                scanin: user.scanin,
                preset,
                rn,
                fitfunc_select: select,
                fit_value_ext: 0,
                fit_valid_ext: false,
            });
            stats = comb.stats_event;

            // RNG sees the core's same-cycle wires.
            m.rng.eval(comb.rn_consume, comb.rn_seed_load);
            // Memory and FEM bank see the core's registered outputs.
            m.mem
                .eval(core_out.mem_address, core_out.mem_data_out, core_out.mem_wr);
            // The FEM bank (and external module) live in the fast
            // application-clock domain: they get `ratio` clock edges per
            // GA cycle, seeing the core's (stable) registered outputs.
            for sub in 0..ratio {
                let ext_now = m.ext_fem.as_ref().map(|e| e.out()).unwrap_or_default();
                let ext_req_now = m.fems.ext_request();
                m.fems.eval(FemBankIn {
                    fit_request: core_out.fit_request,
                    candidate: core_out.candidate,
                    select,
                    ext_value: ext_now.fit_value,
                    ext_valid: ext_now.fit_valid,
                });
                if let Some(e) = m.ext_fem.as_mut() {
                    e.eval(FemIn {
                        fit_request: if sub == 0 { ext_req } else { ext_req_now },
                        candidate: core_out.candidate,
                    });
                }
                // All but the last fast edge commit inside the GA cycle;
                // the final one rides the common commit below.
                if sub + 1 < ratio {
                    m.fems.commit();
                    if let Some(e) = m.ext_fem.as_mut() {
                        e.commit();
                    }
                }
            }
        });

        if let Some(mon) = self.monitor.as_mut() {
            let o = self.modules.core.out();
            let fem_o = self.modules.fems.out(select, 0, false);
            mon.observe(o.fit_request, fem_o.fit_valid);
        }

        if let Some(cap) = self.vcd.as_mut() {
            let t = self.sim.cycles();
            let o = self.modules.core.out();
            let fem_o = self.modules.fems.out(select, 0, false);
            cap.writer.change(cap.candidate, t, o.candidate as u64);
            cap.writer.change(cap.fit_request, t, o.fit_request as u64);
            cap.writer.change(cap.fit_valid, t, fem_o.fit_valid as u64);
            cap.writer.change(cap.mem_address, t, o.mem_address as u64);
            cap.writer.change(cap.mem_wr, t, o.mem_wr as u64);
            cap.writer.change(cap.ga_done, t, o.ga_done as u64);
            cap.writer.change(cap.rn, t, self.modules.rng.rn() as u64);
        }

        if let Some((gen, chrom, fitness, sum)) = stats {
            let s = GenStats {
                gen,
                best: Individual { chrom, fitness },
                fit_sum: sum,
                pop_size: self.pop_size_hint,
            };
            self.history.push(s);
            // Chipscope-style: samples are stamped with the capture
            // clock cycle (monotone across reruns), not the generation.
            let t = self.sim.cycles();
            self.trace.record("best_fitness", t, fitness as u64);
            self.trace.record("sum_fitness", t, sum as u64);
        }
    }

    /// Advance the run by at most `limit` cycles (`limit ≥ 1`) with
    /// idle user inputs, and return how many cycles passed. At the start
    /// of a quiet window that fits in `limit` (see the module docs), this
    /// jumps the window in one step: the core's registers, its cycle
    /// profile and draw count, the RNG, the memory read register, the
    /// fitness modules and the cycle count end exactly where
    /// [`GaSystem::step`] would leave them. Anywhere else it is one
    /// [`GaSystem::step`].
    pub fn advance(&mut self, limit: u64) -> u64 {
        self.host_steps += 1;
        match self.jump(limit) {
            Some(cycles) => cycles,
            None => {
                self.step(UserIn::default());
                1
            }
        }
    }

    /// The window jump of [`GaSystem::advance`], if it applies.
    fn jump(&mut self, limit: u64) -> Option<u64> {
        if self.vcd.is_some() || self.monitor.is_some() {
            return None;
        }
        let (select, ratio) = (self.fitfunc_select, self.fast_domain_ratio.max(1));
        let m = &mut self.modules;
        if !m.fems.quiescent() || m.ext_fem.as_ref().is_some_and(|e| !e.quiescent()) {
            return None;
        }
        let mem = &m.mem;
        let mut window = m.core.walk(m.rng.rn(), |addr, _| mem.word(addr))?;
        if let Some(candidate) = window.request() {
            if ratio != 1 || window.cycles >= limit {
                return None;
            }
            let edges = m.fems.answer(select, candidate, limit - window.cycles)?;
            window.answer(m.fems.out(select, 0, false).fit_value, edges);
        }
        if window.cycles > limit {
            return None;
        }
        if window.draws() {
            m.rng.eval(true, None);
            m.rng.commit();
        }
        m.core.apply(&window);
        m.mem.settle_read(m.core.out().mem_address);
        self.sim.advance(window.cycles);
        Some(window.cycles)
    }

    /// Program the parameter registers through the initialization
    /// handshake (§III-B.6, Table III), driven by the Fig. 4
    /// initialization-module FSM. Returns the cycles consumed.
    pub fn program(&mut self, params: &GaParams) -> u64 {
        params.validate().expect("invalid GA parameters");
        self.pop_size_hint = params.pop_size;
        let start = self.sim.cycles();
        let mut init = crate::init::InitModule::new(params);
        init.reset();
        init.start();
        let mut guard = 0;
        while !init.out().done {
            let io = init.out();
            // Both modules evaluate in the same phase against each
            // other's registered outputs, then latch together.
            let ack = self.modules.core.out().data_ack;
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
        // One idle cycle for the core to fall back to Idle.
        self.step(UserIn::default());
        self.sim.cycles() - start
    }

    /// Pulse `start_GA` and run until `GA_done`. `max_cycles` is the
    /// watchdog bound.
    pub fn run(&mut self, max_cycles: u64) -> Result<HwRun, SimError> {
        self.run_with_deadline(max_cycles, None)
    }

    /// [`GaSystem::run`] with an additional wall-clock budget: the
    /// cycle watchdog bounds *simulated* time, the [`Deadline`] bounds
    /// *host* time (the serving layer's per-job timeout). The deadline
    /// is checked between cycles with amortized clock reads, so an
    /// in-flight cycle always completes.
    pub fn run_with_deadline(
        &mut self,
        max_cycles: u64,
        deadline: Option<&mut hwsim::Deadline>,
    ) -> Result<HwRun, SimError> {
        self.run_inner(max_cycles, deadline, None)
            .map(|(run, _)| run)
    }

    /// Run to `GA_done` with one scan-chain fault injection: at
    /// `at_cycle` cycles after `start_GA`, the FSM is frozen in test
    /// mode and `ops` is applied to the architectural state through the
    /// scan chain ([`GaSystem::scan_inject`]), then the run resumes.
    /// The returned flag reports whether the injection actually landed
    /// (`false` when the run finished before `at_cycle`). The
    /// scan-shift cycles count toward both the watchdog and the
    /// reported cycle total, exactly as they would on silicon.
    pub fn run_with_faults(
        &mut self,
        max_cycles: u64,
        at_cycle: u64,
        ops: &[hwsim::ScanBitOp],
    ) -> Result<(HwRun, bool), SimError> {
        self.run_inner(max_cycles, None, Some((at_cycle, ops)))
    }

    fn run_inner(
        &mut self,
        max_cycles: u64,
        mut deadline: Option<&mut hwsim::Deadline>,
        fault: Option<(u64, &[hwsim::ScanBitOp])>,
    ) -> Result<(HwRun, bool), SimError> {
        self.history.clear();
        let start = self.sim.cycles();
        let mut injected = false;
        self.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        let mut guard = self.sim.cycles() - start;
        while !self.modules.core.out().ga_done {
            if guard >= max_cycles {
                return Err(SimError::Timeout { cycles: guard });
            }
            if let Some(d) = deadline.as_deref_mut() {
                if d.expired() {
                    return Err(SimError::DeadlineExceeded { cycles: guard });
                }
            }
            // A jump may end on the watchdog bound or the fault cycle,
            // never past it, so both trip on the cycle they would with
            // single steps.
            let mut limit = max_cycles - guard;
            if let Some((at, ops)) = fault {
                if !injected {
                    if guard >= at {
                        self.scan_inject(ops);
                        injected = true;
                        guard = self.sim.cycles() - start;
                        continue;
                    }
                    limit = limit.min(at - guard);
                }
            }
            guard += self.advance(limit);
        }
        let cycles = self.sim.cycles() - start;
        let best_fitness = self
            .history
            .last()
            .map(|s| s.best.fitness)
            .unwrap_or_default();
        Ok((
            HwRun {
                best: Individual {
                    chrom: self.modules.core.out().candidate,
                    fitness: best_fitness,
                },
                cycles,
                seconds: cycles as f64 * self.sim.period_ps() as f64 * 1e-12,
                history: self.history.clone(),
                rng_draws: self.modules.core.rng_draws(),
            },
            injected,
        ))
    }

    /// Corrupt the core's architectural state **through the scan chain**
    /// (§III-C.2), the way a DFT-based SEU campaign would on silicon:
    ///
    /// 1. raise `test` for [`GaCoreHw::SCAN_LENGTH`] cycles, capturing
    ///    the chain at `scanout` while shifting zeros in;
    /// 2. keep `test` high another full length, feeding the captured
    ///    stream back in with `ops` applied to their chain positions;
    /// 3. drop `test`, which deserializes the chain into the registers
    ///    and lets the (frozen, unscanned) FSM state resume.
    ///
    /// The RNG holds (no consume wires fire in test mode) and the FSM
    /// state register is outside the chain, so the only disturbance is
    /// the injected bits — plus any overwrite the resuming FSM itself
    /// performs, which is precisely the masking a real campaign
    /// measures. Returns the *pre-fault* chain contents in scan order
    /// (position 0 first).
    pub fn scan_inject(&mut self, ops: &[hwsim::ScanBitOp]) -> Vec<bool> {
        let len = crate::hwcore::GaCoreHw::SCAN_LENGTH;
        // Phase 1: capture. The k-th bit out is chain position len-1-k.
        let mut shifted_out = Vec::with_capacity(len);
        for _ in 0..len {
            self.step(UserIn {
                test: true,
                scanin: false,
                ..Default::default()
            });
            shifted_out.push(self.modules.core.out().scanout);
        }
        // Phase 2: feed the captured stream straight back. Re-feeding
        // in capture order restores every bit to its original position
        // (first bit fed ends deepest in the chain). A fault at chain
        // position p therefore corrupts stream index len-1-p.
        let mut feed = shifted_out.clone();
        for op in ops {
            assert!(
                op.position < len,
                "scan position {} out of range",
                op.position
            );
            let k = len - 1 - op.position;
            feed[k] = op.kind.apply(feed[k]);
        }
        for &bit in &feed {
            self.step(UserIn {
                test: true,
                scanin: bit,
                ..Default::default()
            });
        }
        // Falling edge: deserialize and hand control back to the FSM.
        self.step(UserIn::default());
        let mut chain = shifted_out;
        chain.reverse(); // scan order: position 0 first
        chain
    }

    /// Program, then run: the full usage flow of §III-B.8.
    pub fn program_and_run(
        &mut self,
        params: &GaParams,
        max_cycles: u64,
    ) -> Result<HwRun, SimError> {
        self.program(params);
        self.run(max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};

    fn system_for(f: TestFunction) -> GaSystem {
        GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(f),
        )]))
    }

    #[test]
    fn program_loads_all_parameters() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(16, 0x0002_0005, 9, 3, 0xCAFE);
        let cycles = sys.program(&params);
        assert_eq!(sys.modules.core.programmed_params(), params);
        assert!(cycles > 12, "six writes need at least two cycles each");
    }

    #[test]
    fn run_reaches_done_and_outputs_best() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let run = sys.program_and_run(&params, 2_000_000).unwrap();
        assert!(run.cycles > 0);
        assert_eq!(run.history.len(), 5, "gen 0 + 4 generations");
        // Best fitness must equal the fitness of the output candidate.
        assert_eq!(run.best.fitness, TestFunction::F3.eval_u16(run.best.chrom));
    }

    #[test]
    fn candidate_bus_outputs_best_each_generation() {
        let mut sys = system_for(TestFunction::F2);
        let params = GaParams::new(8, 6, 10, 1, 0x061F);
        let run = sys.program_and_run(&params, 2_000_000).unwrap();
        // History is monotone (elitism) and ends at the reported best.
        let mut prev = 0;
        for s in &run.history {
            assert!(s.best.fitness >= prev);
            prev = s.best.fitness;
        }
        assert_eq!(run.best.fitness, prev);
    }

    #[test]
    fn trace_records_chipscope_series() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 3, 10, 1, 0xB342);
        sys.program_and_run(&params, 2_000_000).unwrap();
        let t = sys.trace();
        assert_eq!(t.series("best_fitness").unwrap().samples.len(), 4);
        assert_eq!(t.series("sum_fitness").unwrap().samples.len(), 4);
    }

    #[test]
    fn watchdog_times_out_on_empty_bank_deadlock_free() {
        // An Empty slot answers zero fitness: the system must still
        // complete (no deadlock) even with no real FEM.
        let mut sys = GaSystem::new(FemBank::new(vec![]));
        let params = GaParams::new(4, 2, 10, 1, 0x2961);
        let run = sys.program_and_run(&params, 1_000_000).unwrap();
        assert_eq!(run.best.fitness, 0);
    }

    #[test]
    fn restart_reruns_from_fresh_state() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 3, 10, 1, 0xAAAA);
        let run1 = sys.program_and_run(&params, 2_000_000).unwrap();
        // Second run without reprogramming: Done → Start on start_GA.
        let run2 = sys.run(2_000_000).unwrap();
        assert_eq!(run1.best, run2.best, "same seed ⇒ same result");
        assert_eq!(run1.history, run2.history);
    }

    #[test]
    fn scan_inject_captures_state_in_documented_order() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 4, 10, 1, 0xA5C3);
        sys.program(&params);
        let chain = sys.scan_inject(&[]);
        assert_eq!(chain.len(), crate::hwcore::GaCoreHw::SCAN_LENGTH);
        // Chain head: seed[0..16], pop_size[16..24] (LSB first).
        let field = |lo: usize, w: usize| -> u64 {
            (0..w).fold(0u64, |v, b| v | ((chain[lo + b] as u64) << b))
        };
        assert_eq!(field(0, 16) as u16, 0xA5C3, "seed field");
        assert_eq!(field(16, 8) as u8, 8, "pop_size field");
        assert_eq!(field(24, 32) as u32, 4, "n_gens field");
    }

    #[test]
    fn scan_inject_with_no_ops_preserves_the_run() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut golden_sys = system_for(TestFunction::F3);
        let golden = golden_sys.program_and_run(&params, 2_000_000).unwrap();

        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let (run, injected) = sys.run_with_faults(2_000_000, 800, &[]).unwrap();
        assert!(injected, "injection point is mid-run");
        assert_eq!(run.best, golden.best, "empty fault list is a no-op");
        assert_eq!(run.history, golden.history);
        assert_eq!(run.rng_draws, golden.rng_draws);
        assert!(
            run.cycles > golden.cycles,
            "the 2×{}-cycle scan shift must show up in the cycle count",
            crate::hwcore::GaCoreHw::SCAN_LENGTH
        );
    }

    #[test]
    fn scan_fault_on_generation_counter_hangs_the_fsm() {
        // Force the MSB of the generation counter (the last chain bit):
        // the Fig. 6 FSM terminates on `gen == n_gens` (an equality
        // compare, as synthesized), so a counter thrown *past* the
        // target can never match and the run must spin until the
        // watchdog fires — the canonical "hung" outcome class.
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let op = hwsim::ScanBitOp {
            position: crate::hwcore::GaCoreHw::SCAN_LENGTH - 1,
            kind: hwsim::BitFault::Force1,
        };
        let err = sys
            .run_with_faults(200_000, 800, &[op])
            .expect_err("corrupted gen counter cannot reach GA_done");
        assert!(matches!(err, SimError::Timeout { .. }), "got {err:?}");
    }

    #[test]
    fn run_finishing_before_the_injection_point_reports_no_injection() {
        let params = GaParams::new(8, 2, 10, 1, 0x2961);
        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let (run, injected) = sys
            .run_with_faults(2_000_000, u64::MAX, &[])
            .expect("clean run");
        assert!(!injected, "fault scheduled after GA_done never lands");
        assert!(run.cycles > 0);
    }

    #[test]
    fn preset_mode_runs_without_programming() {
        let mut sys = system_for(TestFunction::F3);
        sys.preset = 0b01; // Table IV Small: pop 32, 512 gens
        sys.pop_size_hint = 32;
        let run = sys.run(200_000_000).unwrap();
        assert_eq!(run.history.len(), 513);
        assert_eq!(run.best.fitness, 3060, "512 generations solve F3");
    }
}
