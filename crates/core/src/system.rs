//! The complete GA module of Fig. 4: core + RNG + GA memory + FEM bank,
//! wired exactly as the paper's block diagram, plus the user-side
//! initialization module and a Chipscope-style probe. The same system
//! with a second core is the 32-bit GA of Fig. 6 (§III-D).
//!
//! The per-cycle evaluation order implements the combinational wiring:
//! every module's registered outputs are sampled first, then each module
//! evaluates against those samples; the core's same-cycle combinational
//! outputs (RNG consume/seed wires) feed the RNG module inside the same
//! phase (an acyclic combinational path). A single commit latches the
//! whole system — one rising clock edge at 50 MHz.
//!
//! # Two cores for 32 bits
//!
//! Built around a 32-bit fitness function ([`GaSystem32Hw`]), the system
//! gangs two unmodified 16-bit cores, each with its own RNG and GA
//! memory holding its half of every individual; core 1 holds the MSB
//! half. One fitness bank serves both: its block-ROM module
//! ([`LookupFem::from_fn32`]) answers while both cores request, reading
//! the concatenated `{MSB, LSB}` candidate, and `fit_valid` goes to both
//! cores. (We also mirror the fitness *value* to core 2 — the one wire
//! beyond the paper's text, which keeps both cores' elite/fitness-sum
//! registers tracking the same 32-bit individual.) The initialization
//! bus, `start_GA`, `preset` and `test` reach both cores, and the scan
//! chain runs through core 1, core 1's `scanout` flop, then core 2.
//! Everything else that differs is the `scalingLogic_parSel` block:
//!
//! * parent selection is decided by core 1 alone: core 2's `rn` input is
//!   forced to zero in its threshold state (`SelDraw`), and its
//!   selection-scan fitness reads are forced to zero until core 1's
//!   `sel_hit` wire fires and to full scale on that cycle, so core 2's
//!   cumulative sum crosses its zero threshold at core 1's parent;
//! * core 2's RNG loads the complemented seed, as in
//!   [`crate::behavioral::GaEngine32`];
//! * the candidate bus and the generation event concatenate both halves.
//!
//! The two FSMs are identical, take data-independent paths through
//! crossover and mutation, and resynchronize at every fitness handshake,
//! so the cores run in lockstep — asserted by the differential tests
//! against [`crate::behavioral::GaEngine32`].
//!
//! # Jumping run windows
//!
//! The run loops move the clock with [`GaSystem::advance`], which either
//! jumps a run window or steps one cycle. Where a generation starts
//! (`ElitWrite`) it jumps the whole generation through `GenEnd`'s edge
//! in one host step, and where the initial population starts (its first
//! `InitPopDraw`) the whole population through the last
//! `InitPopUpdate`. Each core breeds every candidate through the
//! generation loop ([`crate::ops::breed`]), the selections found on the
//! current bank's prefix sums, which no store reaches during a
//! generation, or draws one per member ([`crate::ops::sow`]); then the
//! block ROM answers the whole window's candidates in one call
//! ([`ga_fitness::fem::RomAnswer::answer`]), which reads each candidate
//! bus's word once and lands the module where the last release edge
//! leaves it; then each core stores its members and lands its registers
//! ([`crate::hwcore`]). The cores' registers, cycle
//! profiles and draw counts, the RNGs, the memories with their read
//! registers, the fitness modules and the cycle count end exactly where
//! single steps leave them; the history and the trace get the
//! generation's event stamped with the cycle of its last edge. With two
//! cores, core 2 takes its own member at core 1's hit at every
//! selection, where its forced scan stops, breeds from its own RNG, and
//! stores its own half of each answer to the concatenated candidate.
//!
//! A run window applies only out of test mode with no memory write or
//! fitness request pending, when `pop_size ≥ 2` and the current and new
//! banks do not overlap (for a generation), the fitness bank is
//! [`FemBank::quiescent`] and the selected module answers in a fixed
//! number of edges (the block-ROM [`ga_fitness::LookupFem`]), the
//! external module is [`Fem::quiescent`], the application clock runs at
//! the GA clock (`fast_domain_ratio` 1), no VCD capture or protocol
//! monitor is attached, and the window's longest course, every scan
//! walking the whole bank, fits in the limit with the module's answer
//! edges. The bank is asked first ([`FemBank::answering`]), before
//! anything breeds, so a module that does not answer leaves the system
//! untouched. Everywhere else, including a watchdog bound or
//! a scheduled fault inside a generation, `advance` is one
//! [`GaSystem::step`]. The run loops check a wall-clock deadline between
//! host steps, so about once per generation.

use std::fmt;
use std::marker::PhantomData;

use ga_fitness::fem::{Fem, FemBank, FemBankIn, FemIn};
use ga_fitness::{FemSlot, LookupFem};
use hwsim::vcd::VcdVar;
use hwsim::{Clocked, HandshakeMonitor, Sim, SimError, Trace, VcdWriter};

use crate::behavioral::{GenStats, Individual};
use crate::hwcore::{Brood, GaCoreHw};
use crate::memory::{pack, unpack, GaMemory};
use crate::ops;
use crate::params::GaParams;
use crate::ports::GaCoreIn;
use crate::rngmod::RngModule;
use crate::scaling::{self, GaRun32, GenStats32, Individual32};

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
    /// The GA IP core; core 1 (the MSB half) of the 32-bit GA.
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
    /// Core 2 of the 32-bit GA, holding the LSB half of every
    /// individual; `None` in the 16-bit system.
    pub lsb: Option<Half>,
}

/// A second core with its own RNG module and GA memory.
#[derive(Debug)]
pub struct Half {
    /// The core.
    pub core: GaCoreHw,
    /// Its RNG module.
    pub rng: RngModule,
    /// Its GA memory.
    pub mem: GaMemory,
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
        if let Some(h) = self.lsb.as_mut() {
            h.core.reset();
            h.rng.reset();
            h.mem.reset();
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
        if let Some(h) = self.lsb.as_mut() {
            h.core.commit();
            h.rng.commit();
            h.mem.commit();
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

/// What a [`GaSystem`] is built around. A [`FemBank`] serves one 16-bit
/// core; a 32-bit fitness function is the shared module of the 32-bit
/// GA, two ganged cores (see the module docs).
pub trait Port: Sized {
    /// What a run to `GA_done` reports.
    type Run;
    /// The fitness bank, and core 2 for the 32-bit GA.
    fn wire(self) -> (FemBank, Option<Half>);
    /// The report of a run that raised `GA_done` `cycles` after
    /// `start_GA`.
    fn report(sys: &GaSystem<Self>, cycles: u64) -> Self::Run;
}

impl Port for FemBank {
    type Run = HwRun;

    fn wire(self) -> (FemBank, Option<Half>) {
        (self, None)
    }

    fn report(sys: &GaSystem<Self>, cycles: u64) -> HwRun {
        HwRun {
            best: Individual {
                chrom: sys.modules.core.out().candidate,
                fitness: sys.best_fitness(),
            },
            cycles,
            seconds: cycles as f64 * sys.sim.period_ps() as f64 * 1e-12,
            history: sys.history.iter().map(|&(s, _)| s).collect(),
            rng_draws: sys.modules.core.rng_draws(),
        }
    }
}

impl<F: Fn(u32) -> u16 + Send + Sync + 'static> Port for F {
    type Run = GaRun32;

    fn wire(self) -> (FemBank, Option<Half>) {
        let core2 = Half {
            core: GaCoreHw::new(),
            rng: RngModule::new_ca(2),
            mem: GaMemory::new(),
        };
        let fem = FemSlot::Lookup(LookupFem::from_fn32(self));
        (FemBank::new(vec![fem]), Some(core2))
    }

    fn report(sys: &GaSystem<Self>, _cycles: u64) -> GaRun32 {
        let history = sys.history.iter().map(|&(s, lsb)| GenStats32 {
            gen: s.gen,
            best: Individual32 {
                chrom: concat(s.best.chrom, Some(lsb)),
                fitness: s.best.fitness,
            },
            fit_sum: s.fit_sum,
        });
        GaRun32 {
            best: Individual32 {
                chrom: sys.candidate(),
                fitness: sys.best_fitness(),
            },
            history: history.collect(),
            evaluations: sys.modules.core.evaluations(),
        }
    }
}

/// The complete, wired GA system, built around the [`Port`] `P`.
pub struct GaSystem<P = FemBank> {
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
    /// Each generation event: core 1's statistics, with core 2's best
    /// half at width 32 (0 at width 16).
    history: Vec<(GenStats, u16)>,
    vcd: Option<VcdCapture>,
    monitor: Option<HandshakeMonitor>,
    host_steps: u64,
    /// The buffers of the generation windows.
    scratch: Scratch,
    /// The [`Port`] the system was built around, which fixes what a run
    /// reports.
    port: PhantomData<P>,
}

/// The 32-bit GA of Fig. 6: [`GaSystem`] built around a 32-bit fitness
/// function `F`.
pub type GaSystem32Hw<F> = GaSystem<F>;

/// Every register a clock edge can change, as the testbench compares
/// them: the cycle count, each core's modules and the fitness modules.
impl<P> fmt::Debug for GaSystem<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.modules;
        f.debug_struct("GaSystem")
            .field("cycles", &self.sim.cycles())
            .field("halves", &self.halves())
            .field("fems", &m.fems)
            .field("ext_fem", &m.ext_fem.as_ref().map(|e| e.out()))
            .finish_non_exhaustive()
    }
}

/// Waveform capture of the Table II interface (the ModelSim view).
struct VcdCapture {
    writer: VcdWriter,
    /// `candidate`, `fit_request`, `fit_valid`, `mem_address`, `mem_wr`,
    /// `GA_done` and `rn`, in the order `GaSystem::probe` samples them.
    vars: Vec<VcdVar>,
}

/// The candidate bus: a core's chromosome, or `{MSB, LSB}` with core 2.
fn concat(msb: u16, lsb: Option<u16>) -> u32 {
    lsb.map_or(u32::from(msb), |lsb| scaling::concat(msb, lsb))
}

/// `scalingLogic_parSel`'s view of a core-2 memory word in a selection
/// scan: its own chromosome half, with the fitness at full scale on core
/// 1's hit and zero before it.
fn forced(word: u32, hit: bool) -> u32 {
    pack(Individual {
        chrom: unpack(word).chrom,
        fitness: if hit { 0xFFFF } else { 0 },
    })
}

/// A core's generation event: the generation, its best chromosome and
/// fitness, and the population's fitness sum.
type StatsEvent = (u32, u16, u16, u32);

/// A run window's candidate buses, in request order: core 1's halves
/// from `msb` and, with two cores, core 2's from `lsb`.
fn candidates<'a>(msb: &'a [u16], lsb: Option<&'a [u16]>) -> impl Iterator<Item = u32> + 'a {
    (0..)
        .zip(msb)
        .map(move |(k, &half)| concat(half, lsb.map(|lsb| lsb[k])))
}

/// `GenEnd`'s edge ([`GaCoreHw::tick`]) with the memory's, a read of
/// the last store's address; it draws no random number. Returns the
/// generation event.
fn gen_end(core: &mut GaCoreHw, mem: &mut GaMemory) -> Option<StatsEvent> {
    let out = core.out();
    let comb = core.tick();
    mem.eval(out.mem_address, out.mem_data_out, out.mem_wr);
    mem.commit();
    comb.stats_event
}

/// Buffers a generation window reuses from one generation to the next.
#[derive(Default)]
struct Scratch {
    /// The current bank's selection sums.
    prefix: Vec<u32>,
    /// Each core's brood.
    broods: [Brood; 2],
    /// The module's answer to each offspring.
    values: Vec<u16>,
}

impl<P: Port> GaSystem<P> {
    /// Build a system around a fitness bank (one core) or a 32-bit
    /// fitness function (two cores), with the paper's CA RNG.
    pub fn new(port: P) -> Self {
        let (fems, lsb) = port.wire();
        let mut modules = GaModules {
            core: GaCoreHw::new(),
            rng: RngModule::new_ca(1),
            mem: GaMemory::new(),
            fems,
            ext_fem: None,
            lsb,
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
            vcd: None,
            monitor: None,
            host_steps: 0,
            scratch: Scratch::default(),
            port: PhantomData,
        }
    }

    /// Pulse `start_GA` and run until `GA_done`. `max_cycles` is the
    /// watchdog bound.
    pub fn run(&mut self, max_cycles: u64) -> Result<P::Run, SimError> {
        self.run_with_deadline(max_cycles, None)
    }

    /// [`GaSystem::run`] with an additional wall-clock budget: the
    /// cycle watchdog bounds *simulated* time, the [`Deadline`] bounds
    /// *host* time (the serving layer's per-job timeout). The deadline
    /// is checked between host steps ([`GaSystem::advance`]) with
    /// amortized clock reads, so about once per generation, and an
    /// in-flight step always completes.
    ///
    /// [`Deadline`]: hwsim::Deadline
    pub fn run_with_deadline(
        &mut self,
        max_cycles: u64,
        deadline: Option<&mut hwsim::Deadline>,
    ) -> Result<P::Run, SimError> {
        self.run_inner(max_cycles, deadline, None)
            .map(|(run, _)| run)
    }

    /// Run to `GA_done` with one scan-chain fault injection: at
    /// `at_cycle` cycles after `start_GA`, the FSMs are frozen in test
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
    ) -> Result<(P::Run, bool), SimError> {
        self.run_inner(max_cycles, None, Some((at_cycle, ops)))
    }

    /// The run loop: pulse `start_GA`, then advance to `GA_done`,
    /// injecting `fault` on its cycle. Returns the report and whether
    /// the fault landed.
    fn run_inner(
        &mut self,
        max_cycles: u64,
        mut deadline: Option<&mut hwsim::Deadline>,
        fault: Option<(u64, &[hwsim::ScanBitOp])>,
    ) -> Result<(P::Run, bool), SimError> {
        self.history.clear();
        let start = self.sim.cycles();
        let mut injected = false;
        self.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        let mut guard = self.sim.cycles() - start;
        while !self.done() {
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
        Ok((P::report(self, cycles), injected))
    }

    /// Program, then run: the full usage flow of §III-B.8.
    pub fn program_and_run(
        &mut self,
        params: &GaParams,
        max_cycles: u64,
    ) -> Result<P::Run, SimError> {
        self.program(params);
        self.run(max_cycles)
    }
}

impl<P> GaSystem<P> {
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
        let vars = [
            ("candidate", 16 * self.halves().len() as u32),
            ("fit_request", 1),
            ("fit_valid", 1),
            ("mem_address", 8),
            ("mem_wr", 1),
            ("GA_done", 1),
            ("rn", 16),
        ]
        .map(|(name, width)| writer.add_var(name, width));
        self.vcd = Some(VcdCapture {
            writer,
            vars: vars.to_vec(),
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

    /// Testbench backdoor: core 1, to corrupt the registers the scan
    /// chain does not reach.
    #[cfg(test)]
    pub(crate) fn core_mut(&mut self) -> &mut GaCoreHw {
        &mut self.modules.core
    }

    /// The clocked modules of each core, core 1 first (testbench probe).
    pub fn halves(&self) -> Vec<(&GaCoreHw, &RngModule, &GaMemory)> {
        let m = &self.modules;
        let mut halves = vec![(&m.core, &m.rng, &m.mem)];
        halves.extend(m.lsb.as_ref().map(|h| (&h.core, &h.rng, &h.mem)));
        halves
    }

    /// Elapsed cycles since construction.
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// [`GaSystem::advance`] calls since construction: the host steps
    /// the run loops took, one per stepped cycle, generation or initial
    /// population (instrumentation).
    pub fn host_steps(&self) -> u64 {
        self.host_steps
    }

    /// The Chipscope-style trace (best/sum per generation).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The `candidate` bus: 16 bits, or `{MSB, LSB}` with two cores.
    fn candidate(&self) -> u32 {
        let m = &self.modules;
        concat(
            m.core.out().candidate,
            m.lsb.as_ref().map(|h| h.core.out().candidate),
        )
    }

    /// The `fit_request` the fitness bank sees: raised while every core
    /// requests.
    fn fit_request(&self) -> bool {
        let m = &self.modules;
        m.core.out().fit_request && m.lsb.as_ref().is_none_or(|h| h.core.out().fit_request)
    }

    /// `GA_done` on every core.
    fn done(&self) -> bool {
        let m = &self.modules;
        m.core.out().ga_done && m.lsb.as_ref().is_none_or(|h| h.core.out().ga_done)
    }

    /// Fitness of the last generation event's best individual.
    fn best_fitness(&self) -> u16 {
        self.history
            .last()
            .map(|(s, _)| s.best.fitness)
            .unwrap_or_default()
    }

    /// One clock cycle of the whole system.
    pub fn step(&mut self, user: UserIn) {
        let select = self.fitfunc_select;
        let preset = self.preset;
        let ratio = self.fast_domain_ratio.max(1);
        let m = &mut self.modules;
        let mut stats = None;

        self.sim.step(m, |m| {
            // Sample registered outputs.
            let core_out = m.core.out();
            let ext_out = m.ext_fem.as_ref().map(|e| e.out()).unwrap_or_default();
            let fem_out = m.fems.out(select, ext_out.fit_value, ext_out.fit_valid);
            let ext_req = m.fems.ext_request();

            // Core evaluation (combinational RNG wires come back).
            let mut bus = GaCoreIn {
                ga_load: user.ga_load,
                index: user.index,
                value: user.value,
                data_valid: user.data_valid,
                fit_value: fem_out.fit_value,
                fit_valid: fem_out.fit_valid,
                mem_data_in: m.mem.dout(),
                start_ga: user.start_ga,
                test: user.test,
                scanin: user.scanin,
                preset,
                rn: m.rng.rn(),
                fitfunc_select: select,
                fit_value_ext: 0,
                fit_valid_ext: false,
            };
            let comb = m.core.eval(&bus);
            stats = comb.stats_event.map(|e| (e, 0));
            let mut candidate = u32::from(core_out.candidate);
            let mut fit_request = core_out.fit_request;

            if let Some(h) = m.lsb.as_mut() {
                // scalingLogic_parSel: core 2 sees a zero threshold draw
                // and, in the scan, fitness 0 until core 1's same-cycle
                // hit and full scale on it.
                let out2 = h.core.out();
                bus.rn = if h.core.is_sel_draw() { 0 } else { h.rng.rn() };
                bus.mem_data_in = h.mem.dout();
                if h.core.is_sel_scanning() {
                    bus.mem_data_in = forced(bus.mem_data_in, comb.sel_hit);
                }
                bus.scanin = core_out.scanout;
                let comb2 = h.core.eval(&bus);
                // Core 2's RNG powers on with the complement of the seed
                // core 1 loads (a preset's, on a preset run), whatever
                // core 2's own seed register holds.
                let seed1 = || comb.rn_seed_load.unwrap_or(m.core.programmed_params().seed);
                let seed2 = comb2.rn_seed_load.map(|_| !seed1());
                h.rng.eval(comb2.rn_consume, seed2);
                h.mem.eval(out2.mem_address, out2.mem_data_out, out2.mem_wr);
                // The generation event fires on both cores in lockstep.
                stats = stats.zip(comb2.stats_event).map(|((e, _), e2)| (e, e2.1));
                candidate = concat(core_out.candidate, Some(out2.candidate));
                fit_request &= out2.fit_request;
            }

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
                    fit_request,
                    candidate,
                    select,
                    ext_value: ext_now.fit_value,
                    ext_valid: ext_now.fit_valid,
                });
                if let Some(e) = m.ext_fem.as_mut() {
                    e.eval(FemIn {
                        fit_request: if sub == 0 { ext_req } else { ext_req_now },
                        candidate,
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

        if self.vcd.is_some() || self.monitor.is_some() {
            self.probe(select);
        }

        if let Some(event) = stats {
            self.record(event);
        }
    }

    /// Record a generation event, core 1's with core 2's best half, in
    /// the history and the trace.
    fn record(&mut self, ((gen, chrom, fitness, sum), lsb): (StatsEvent, u16)) {
        let s = GenStats {
            gen,
            best: Individual { chrom, fitness },
            fit_sum: sum,
            pop_size: self.modules.core.programmed_params().pop_size,
        };
        self.history.push((s, lsb));
        // Chipscope-style: samples are stamped with the capture clock
        // cycle (monotone across reruns), not the generation.
        let t = self.sim.cycles();
        self.trace.record("best_fitness", t, fitness as u64);
        self.trace.record("sum_fitness", t, sum as u64);
    }

    /// Sample the Table II interface after a clock edge into the
    /// protocol monitor and the VCD capture, whichever is attached.
    fn probe(&mut self, select: u8) {
        let t = self.sim.cycles();
        let o = self.modules.core.out();
        let fit_request = self.fit_request();
        let fit_valid = self.modules.fems.out(select, 0, false).fit_valid;
        if let Some(mon) = self.monitor.as_mut() {
            mon.observe(fit_request, fit_valid);
        }
        let values = [
            u64::from(self.candidate()),
            fit_request as u64,
            fit_valid as u64,
            o.mem_address as u64,
            o.mem_wr as u64,
            self.done() as u64,
            self.modules.rng.rn() as u64,
        ];
        if let Some(cap) = self.vcd.as_mut() {
            for (&var, value) in cap.vars.iter().zip(values) {
                cap.writer.change(var, t, value);
            }
        }
    }

    /// Advance the run by at most `limit` cycles (`limit ≥ 1`) with
    /// idle user inputs, and return how many cycles passed. At the start
    /// of a generation or of the initial population whose run window
    /// fits in `limit` (see the module docs), this jumps it in one step:
    /// the cores' registers, their cycle profiles and draw counts, the
    /// RNGs, the memories with their read registers, the fitness
    /// modules, the cycle count, the history and the trace end exactly
    /// where [`GaSystem::step`] would leave them. Anywhere else it is
    /// one [`GaSystem::step`].
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

    /// The run window of [`GaSystem::advance`], if one starts here and
    /// its longest course fits in `limit` (see the module docs): a whole
    /// generation from `ElitWrite`, or the initial population from its
    /// first `InitPopDraw`, through the edge into `GenCheck`. The bank is
    /// asked first, so a module that does not answer within the room
    /// left leaves the system untouched.
    fn jump(&mut self, limit: u64) -> Option<u64> {
        let m = &self.modules;
        let stretch = m.core.stretch()?;
        if self.vcd.is_some()
            || self.monitor.is_some()
            || m.lsb
                .as_ref()
                .is_some_and(|h| h.core.stretch() != Some(stretch))
            || self.fast_domain_ratio.max(1) != 1
            || m.ext_fem.as_ref().is_some_and(|e| !e.quiescent())
        {
            return None;
        }
        // Each handshake's answer edges must fit in what the longest
        // course of the window leaves of `limit`.
        let room = limit.checked_sub(stretch.most)? / stretch.handshakes;
        let (cycles, event) = if stretch.selects {
            self.generation(room)?
        } else {
            self.initial_population(room)?
        };
        self.sim.advance(cycles);
        if let Some(e) = event {
            self.record(e);
        }
        Some(cycles)
    }

    /// A whole generation from `ElitWrite` through `GenEnd`'s edge, if
    /// the bank answers within `room` edges: each core breeds it
    /// ([`GaCoreHw::breed`]), the block ROM answers every offspring's
    /// candidate bus in one call, and each core stores its half
    /// ([`GaCoreHw::store`]). Core 1 selects on its current bank's sums;
    /// core 2 takes its own members at core 1's hits
    /// ([`GaCoreHw::follow`]), where its forced scan stops.
    /// Returns the cycles and the generation event.
    fn generation(&mut self, room: u64) -> Option<(u64, Option<(StatsEvent, u16)>)> {
        let m = &mut self.modules;
        let rom = m.fems.answering(self.fitfunc_select, room)?;
        let Scratch {
            prefix,
            broods: [brood, brood2],
            values,
        } = &mut self.scratch;
        let base = m.core.current_bank_base();
        let pop = m.core.programmed_params().pop_size;
        let fitness = (0..pop).map(|k| unpack(m.mem.word(base.wrapping_add(k))).fitness);
        ops::selection_prefix(fitness, prefix);
        let (rng, mem) = (&mut m.rng, &m.mem);
        let select = |core: &GaCoreHw, _, rn| core.pick(rn, prefix, |addr| mem.word(addr));
        m.core.breed(|| rng.draw(), select, brood);
        if let Some(h) = m.lsb.as_mut() {
            let (rng, mem) = (&mut h.rng, &h.mem);
            let hits = &brood.hits;
            let select = |core: &GaCoreHw, k, _| core.follow(hits[k], |addr| mem.word(addr));
            h.core.breed(|| rng.draw(), select, brood2);
        }
        let lsb = m.lsb.as_ref().map(|_| brood2.cands.as_slice());
        rom.answer(candidates(&brood.cands, lsb), values);
        let edges = LookupFem::ANSWER_EDGES;
        m.core.store(brood, values, edges, &mut m.mem);
        let event = gen_end(&mut m.core, &mut m.mem);
        let event = match m.lsb.as_mut() {
            Some(h) => {
                h.core.store(brood2, values, edges, &mut h.mem);
                let event2 = gen_end(&mut h.core, &mut h.mem);
                event.zip(event2).map(|(e, e2)| (e, e2.1))
            }
            None => event.map(|e| (e, 0)),
        };
        let cycles = brood.cycles + edges * values.len() as u64 + 1;
        Some((cycles, event))
    }

    /// The initial population, from its first `InitPopDraw` through the
    /// last `InitPopUpdate`, if the bank answers within `room` edges:
    /// each core draws its members ([`ops::sow`]), the block ROM answers
    /// every member's candidate bus in one call, and each core stores
    /// its half ([`GaCoreHw::seed`]). Returns the cycles and the
    /// generation-0 event.
    fn initial_population(&mut self, room: u64) -> Option<(u64, Option<(StatsEvent, u16)>)> {
        let m = &mut self.modules;
        let rom = m.fems.answering(self.fitfunc_select, room)?;
        let Scratch {
            broods: [brood, brood2],
            values,
            ..
        } = &mut self.scratch;
        let members = usize::from(m.core.programmed_params().pop_size);
        let rng = &mut m.rng;
        ops::sow(members, &mut brood.cands, || rng.draw());
        if let Some(h) = m.lsb.as_mut() {
            ops::sow(members, &mut brood2.cands, || h.rng.draw());
        }
        let lsb = m.lsb.as_ref().map(|_| brood2.cands.as_slice());
        rom.answer(candidates(&brood.cands, lsb), values);
        let edges = LookupFem::ANSWER_EDGES;
        let event = m.core.seed(&brood.cands, values, edges, &mut m.mem);
        let lsb = m.lsb.as_mut().map_or(0, |h| {
            h.core.seed(&brood2.cands, values, edges, &mut h.mem).1
        });
        // Per member: the draw, request, latch, store and update cycles.
        let cycles = (5 + edges) * values.len() as u64;
        Some((cycles, Some((event, lsb))))
    }

    /// Program the parameter registers through the initialization
    /// handshake (§III-B.6, Table III), driven by the Fig. 4
    /// initialization-module FSM. Both cores of the 32-bit GA listen to
    /// the one bus. Returns the cycles consumed.
    pub fn program(&mut self, params: &GaParams) -> u64 {
        params.validate().expect("invalid GA parameters");
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

    /// Bits on the scan chain: [`GaCoreHw::SCAN_LENGTH`] per core and,
    /// with two cores, core 1's `scanout` flop between them.
    pub fn scan_length(&self) -> usize {
        let cores = self.halves().len();
        cores * GaCoreHw::SCAN_LENGTH + cores - 1
    }

    /// Corrupt the cores' architectural state **through the scan chain**
    /// (§III-C.2), the way a DFT-based SEU campaign would on silicon:
    ///
    /// 1. raise `test` for [`GaSystem::scan_length`] cycles, capturing
    ///    the chain at its `scanout` while shifting zeros in;
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
    /// (position 0 first; with two cores, core 1's bits, the link flop,
    /// then core 2's).
    pub fn scan_inject(&mut self, ops: &[hwsim::ScanBitOp]) -> Vec<bool> {
        let len = self.scan_length();
        // Phase 1: capture. The k-th bit out is chain position len-1-k.
        let shifted_out: Vec<bool> = (0..len).map(|_| self.shift(false)).collect();
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
            self.shift(bit);
        }
        // Falling edge: deserialize and hand control back to the FSM.
        self.step(UserIn::default());
        let mut chain = shifted_out;
        chain.reverse(); // scan order: position 0 first
        chain
    }

    /// One test-mode clock shifting `scanin` into the scan chain; returns
    /// the bit at the chain's end, the last core's `scanout`.
    fn shift(&mut self, scanin: bool) -> bool {
        self.step(UserIn {
            test: true,
            scanin,
            ..Default::default()
        });
        let m = &self.modules;
        m.lsb.as_ref().map_or(&m.core, |h| &h.core).out().scanout
    }

    /// Testbench probe: the current population from the memories'
    /// current banks, each chromosome as the candidate bus carries it.
    pub fn population(&self) -> Vec<Individual32> {
        let pop_size = self.modules.core.programmed_params().pop_size;
        let banks: Vec<Vec<Individual>> = self
            .halves()
            .iter()
            .map(|(c, _, mem)| mem.backdoor_population(c.current_bank_base(), pop_size))
            .collect();
        let (msb, lsb) = (&banks[0], banks.get(1));
        let ind = |i: usize| Individual32 {
            chrom: concat(msb[i].chrom, lsb.map(|l| l[i].chrom)),
            fitness: msb[i].fitness,
        };
        (0..msb.len()).map(ind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;
    use ga_fitness::TestFunction;

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

    /// An empty-op injection at cycle 800 of a run on `new()` keeps
    /// the best individual, the history and every core's draws, and adds
    /// exactly the two passes over the chain.
    fn assert_no_op_injection_preserves_the_run<P: Port>(
        width: u32,
        new: impl Fn() -> GaSystem<P>,
    ) {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut golden = new();
        golden.program(&params);
        let start = golden.cycles();
        golden.run(2_000_000).unwrap();
        let golden_cycles = golden.cycles() - start;

        let mut sys = new();
        sys.program(&params);
        let start = sys.cycles();
        let (_, injected) = sys.run_with_faults(2_000_000, 800, &[]).unwrap();
        assert!(injected, "width {width}: injection point is mid-run");
        assert_eq!(sys.candidate(), golden.candidate(), "width {width}: best");
        assert_eq!(sys.history, golden.history, "width {width}");
        let draws = |s: &GaSystem<P>| -> Vec<u64> {
            s.halves().iter().map(|(c, _, _)| c.rng_draws()).collect()
        };
        assert_eq!(draws(&sys), draws(&golden), "width {width}");
        assert_eq!(
            sys.cycles() - start,
            golden_cycles + 2 * sys.scan_length() as u64,
            "width {width}: the scan shift shows up in the cycle count"
        );
    }

    #[test]
    fn scan_inject_with_no_ops_preserves_the_run() {
        assert_no_op_injection_preserves_the_run(16, || system_for(TestFunction::F3));
        assert_no_op_injection_preserves_the_run(32, || GaSystem32Hw::new(sum_halves));
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
        let run = sys.run(200_000_000).unwrap();
        assert_eq!(run.history.len(), 513);
        assert_eq!(run.best.fitness, 3060, "512 generations solve F3");
    }

    #[test]
    fn preset_history_records_the_preset_population() {
        // Table IV Medium runs pop 64 without `program()`; the first
        // generation events must average over 64, not the power-on 32.
        let mut sys = system_for(TestFunction::F3);
        sys.preset = 0b10;
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        while sys.history.len() < 2 {
            sys.advance(u64::MAX);
        }
        for (s, _) in &sys.history {
            assert_eq!(s.pop_size, 64, "gen {}", s.gen);
        }
    }

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
        let sw = crate::GaEngine::new32(params, CaRng::new(params.seed), f).run();
        let mut hw = GaSystem32Hw::new(f);
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
        let mut hw = GaSystem32Hw::new(sum_halves);
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
        let mut hw = GaSystem32Hw::new(sum_halves);
        let run = hw.program_and_run(&params, 1_000_000_000).unwrap();
        assert!(run.best.fitness > 55_000, "fitness {}", run.best.fitness);
    }
}
