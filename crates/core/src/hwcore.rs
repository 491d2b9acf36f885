//! The cycle-accurate GA core — the FSM + datapath the AUDI HLS flow
//! synthesizes from the behavioral model.
//!
//! Faithful to the paper's sequential, unpipelined HLS output: every
//! micro-operation occupies its own state, block-RAM reads take the
//! architectural two cycles (address register + output register), the
//! 24×16 selection multiply occupies four states (a sequential
//! multiplier allocation), and all I/O follows the handshake protocols
//! of §III-B. The RNG consume enable and seed load are same-cycle wires
//! to the RNG module inside the GA-module boundary (Fig. 4).
//!
//! The FSM consumes random draws in **exactly** the order of the
//! behavioral [`crate::behavioral::GaEngine`]; the differential tests
//! exploit this to check population-for-population equality.
//!
//! Most of the core's cycles are spent in runs that nothing outside the
//! core, the GA memory, the RNG and the selected fitness module sees
//! cycle by cycle, and a system jumps two of them whole
//! (`GaSystem::advance`), when nothing but the fitness module's answers
//! enters them (`GaCoreHw::stretch`):
//!
//! * a whole generation, `ElitWrite` through `GenEnd`'s edge. The
//!   current bank cannot change during it, so `GaCoreHw::breed` runs
//!   the generation loop ([`ops::breed`]) with each selection found on
//!   the bank's prefix sums (`GaCoreHw::pick`, counting the `5 + 3 ×`
//!   members-walked cycles of the scan), and leaves the candidates;
//!   once the module has answered each, `GaCoreHw::store` lands the
//!   stores and the new population's sum and best (`OffUpdate`'s
//!   datapath, `joined`). `ElitWrite` and `GenEnd` run as ordinary
//!   edges (`GaCoreHw::tick`);
//! * the initial population, its first `InitPopDraw` through the last
//!   `InitPopUpdate`: the system draws the candidates ([`ops::sow`])
//!   and `GaCoreHw::seed` lands the members (`InitPopUpdate`'s
//!   datapath, `sown`).
//!
//! Such a run consumes exactly the random numbers its edges draw: one at
//! each `InitPopDraw` and `SelDraw`, one each at `XoverDecide` and
//! `MutDecide`. Each handshake reads the fitness module's word once: the
//! block ROM answers a run window's candidates in one call
//! ([`ga_fitness::LookupFem::answer`]).
//! The cycle counts are those of the FSM; only the host stops paying for
//! them one at a time. Every other cycle is one clock edge.

use hwsim::{AckSlave, Clocked, Reg};

use crate::behavioral::Individual;
use crate::memory::{pack, unpack, GaMemory, BANK0_BASE, BANK1_BASE};
use crate::ops;
use crate::params::{GaParams, ParamIndex, PresetMode};
use crate::ports::{GaCoreComb, GaCoreIn, GaCoreOut};

/// FSM states. The sub-phase registers `sel_phase` (parent 1/2) and
/// `off_phase` (offspring 1/2) keep the state count at the level the
/// paper's controller (synthesized via KISS/SIS) would have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    #[default]
    Idle,
    /// Parameter initialization mode (two-way handshake, Table III).
    InitParams,
    /// Resolve presets, load the RNG seed, clear the loop registers.
    Start,
    // --- initial population ---
    InitPopDraw,
    InitPopFitReq,
    InitPopFitWait,
    InitPopStore,
    InitPopUpdate,
    /// Loop header: next generation or done.
    GenCheck,
    // --- one generation ---
    ElitWrite,
    SelDraw,
    SelMulWait,
    SelScanAddr,
    SelScanWait,
    SelScanData,
    XoverDecide,
    MutDecide,
    OffFitReq,
    OffFitWait,
    OffStore,
    OffUpdate,
    GenEnd,
    Done,
}

/// The cycle-accurate GA IP core.
#[derive(Debug, Clone)]
pub struct GaCoreHw {
    state: Reg<State>,

    // Programmable parameter registers (Table III).
    pop_size: Reg<u8>,
    n_gens: Reg<u32>,
    xover_threshold: Reg<u8>,
    mut_threshold: Reg<u8>,
    seed: Reg<u16>,

    // Population bookkeeping.
    cur_base: Reg<u8>,
    new_base: Reg<u8>,
    gen: Reg<u32>,
    fit_sum: Reg<u32>,
    new_sum: Reg<u32>,
    best: Reg<u32>,     // packed Individual
    new_best: Reg<u32>, // packed Individual

    // Loop counters.
    i: Reg<u8>,        // initial-population index
    idx: Reg<u8>,      // new-population fill index
    scan_idx: Reg<u8>, // selection scan index

    // Selection datapath.
    threshold: Reg<u32>,
    cum: Reg<u32>,
    mult_cnt: Reg<u8>,
    sel_phase: Reg<bool>, // false: selecting parent 1

    // Breeding datapath.
    parent1: Reg<u16>,
    parent2: Reg<u16>,
    off1: Reg<u16>,
    off2: Reg<u16>,
    off_phase: Reg<bool>, // false: offspring 1

    // Candidate/fitness interface registers.
    cand: Reg<u16>,
    fit_reg: Reg<u16>,
    fit_request: Reg<bool>,

    // Memory interface registers.
    mem_address: Reg<u8>,
    mem_data_out: Reg<u32>,
    mem_wr: Reg<bool>,

    // Status.
    ga_done: Reg<bool>,

    // Init handshake.
    init_hs: AckSlave,

    // Scan chain.
    test_prev: Reg<bool>,
    scanout: Reg<bool>,
    scan_chain: Vec<bool>,

    // Instrumentation (not synthesized): draw and evaluation counters
    // for differential testing against the behavioral engine, and a
    // per-phase cycle profile for the speedup analysis.
    rng_draws: u64,
    evaluations: u64,
    profile: CyclesByPhase,
}

/// The start value of `mult_cnt`: the sequential 24×16 selection
/// multiplier holds the FSM in `SelMulWait` for `MUL_WAIT + 1` cycles
/// after `SelDraw` while `mult_cnt` counts down to zero.
const MUL_WAIT: u8 = 3;

/// The bounds of a whole-generation or initial-population window
/// ([`GaCoreHw::stretch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stretch {
    /// The most cycles the window takes besides its handshakes' answer
    /// edges: every scan walks the whole bank.
    pub(crate) most: u64,
    /// The fitness handshakes in the window.
    pub(crate) handshakes: u64,
    /// True for a whole generation ([`GaCoreHw::breed`]); false for the
    /// initial population ([`GaCoreHw::seed`]).
    pub(crate) selects: bool,
}

/// A generation's selections and breeding, run ahead of the clock by
/// [`GaCoreHw::breed`] for [`GaCoreHw::store`] to finish once the
/// fitness module has answered every candidate.
#[derive(Debug, Default)]
pub(crate) struct Brood {
    /// The bank offset each selection stops at, in draw order.
    pub(crate) hits: Vec<u8>,
    /// Each offspring's candidate, in request order.
    pub(crate) cands: Vec<u16>,
    /// The generation's cycles through its last `OffUpdate`, but its
    /// handshakes' answer edges.
    pub(crate) cycles: u64,
    /// The elite's store, `(address, word)`, that `ElitWrite` stages.
    elite: (u8, u32),
}

/// A parent selection found by [`GaCoreHw::pick`]: where the scan from
/// `SelDraw` stops, and what its hit's `SelScanData` cycle sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pick {
    /// The threshold the `SelDraw` edge computes.
    pub(crate) threshold: u32,
    /// Bank offset of the member the scan stops at (its `scan_idx`).
    pub(crate) hit: u8,
    /// The `cum` register on the hit's cycle: the sum of the members
    /// walked before the hit.
    pub(crate) cum: u32,
    /// The memory word the hit's cycle reads.
    pub(crate) word: u32,
}

/// Where the clock cycles go, by FSM phase (instrumentation; the
/// hardware analog of a software profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CyclesByPhase {
    /// Idle / Done / Start / GenCheck / GenEnd overhead.
    pub control: u64,
    /// Parameter-initialization handshake cycles.
    pub init_params: u64,
    /// Initial population generation (draw/store/update).
    pub init_pop: u64,
    /// Proportionate selection (threshold multiply + memory scan).
    pub selection: u64,
    /// Crossover + mutation states.
    pub breeding: u64,
    /// Fitness handshake cycles (request + wait).
    pub fitness_wait: u64,
    /// Offspring store/update cycles.
    pub store: u64,
}

impl CyclesByPhase {
    /// Total profiled cycles.
    pub fn total(&self) -> u64 {
        self.control
            + self.init_params
            + self.init_pop
            + self.selection
            + self.breeding
            + self.fitness_wait
            + self.store
    }
}

/// `OffUpdate`'s datapath: the new population's fitness sum once
/// `stored` joins it, and its packed best when `stored` replaces the
/// best `best` (only a strictly fitter offspring does). The register is
/// written only then, so on the cycle the scan chain unloads into the
/// registers an unreplaced best keeps the unloaded value.
fn joined(sum: u32, best: u32, stored: Individual) -> (u32, Option<u32>) {
    let fitter = stored.fitness > unpack(best).fitness;
    (
        sum.wrapping_add(u32::from(stored.fitness)),
        fitter.then(|| pack(stored)),
    )
}

/// `InitPopUpdate`'s datapath: the population's fitness sum once member
/// `i`, `member`, joins it, and its packed best when `member` replaces
/// the best `best`, as [`joined`] does. The first member is the best so
/// far; after it, only a strictly fitter one replaces it.
fn sown(i: u8, sum: u32, best: u32, member: Individual) -> (u32, Option<u32>) {
    let fitter = i == 0 || member.fitness > unpack(best).fitness;
    (
        sum.wrapping_add(u32::from(member.fitness)),
        fitter.then(|| pack(member)),
    )
}

impl Default for GaCoreHw {
    fn default() -> Self {
        Self::new()
    }
}

impl GaCoreHw {
    /// A core with power-on default parameters ([`GaParams::default`]).
    pub fn new() -> Self {
        let d = GaParams::default();
        GaCoreHw {
            state: Reg::default(),
            pop_size: Reg::new(d.pop_size),
            n_gens: Reg::new(d.n_gens),
            xover_threshold: Reg::new(d.xover_threshold),
            mut_threshold: Reg::new(d.mut_threshold),
            seed: Reg::new(d.seed),
            cur_base: Reg::new(BANK0_BASE),
            new_base: Reg::new(BANK1_BASE),
            gen: Reg::default(),
            fit_sum: Reg::default(),
            new_sum: Reg::default(),
            best: Reg::default(),
            new_best: Reg::default(),
            i: Reg::default(),
            idx: Reg::default(),
            scan_idx: Reg::default(),
            threshold: Reg::default(),
            cum: Reg::default(),
            mult_cnt: Reg::default(),
            sel_phase: Reg::default(),
            parent1: Reg::default(),
            parent2: Reg::default(),
            off1: Reg::default(),
            off2: Reg::default(),
            off_phase: Reg::default(),
            cand: Reg::default(),
            fit_reg: Reg::default(),
            fit_request: Reg::default(),
            mem_address: Reg::default(),
            mem_data_out: Reg::default(),
            mem_wr: Reg::default(),
            ga_done: Reg::default(),
            init_hs: AckSlave::default(),
            test_prev: Reg::default(),
            scanout: Reg::default(),
            scan_chain: Vec::new(),
            rng_draws: 0,
            evaluations: 0,
            profile: CyclesByPhase::default(),
        }
    }

    /// Registered outputs (Table II).
    pub fn out(&self) -> GaCoreOut {
        GaCoreOut {
            data_ack: self.init_hs.ack(),
            fit_request: self.fit_request.get(),
            candidate: self.cand.get(),
            mem_address: self.mem_address.get(),
            mem_data_out: self.mem_data_out.get(),
            mem_wr: self.mem_wr.get(),
            ga_done: self.ga_done.get(),
            scanout: self.scanout.get(),
        }
    }

    /// The parameter registers as currently programmed.
    pub fn programmed_params(&self) -> GaParams {
        GaParams {
            pop_size: self.pop_size.get(),
            n_gens: self.n_gens.get(),
            xover_threshold: self.xover_threshold.get(),
            mut_threshold: self.mut_threshold.get(),
            seed: self.seed.get(),
        }
    }

    /// Number of RNG draws consumed since reset (instrumentation).
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    /// Fitness values stored since reset, one per evaluation
    /// (instrumentation).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Per-phase cycle profile since reset (instrumentation).
    pub fn profile(&self) -> CyclesByPhase {
        self.profile
    }

    /// Base address of the bank holding the *current* population
    /// (testbench probe for differential checks).
    pub fn current_bank_base(&self) -> u8 {
        self.cur_base.get()
    }

    /// Status wire for the dual-core scaling logic: the core is in its
    /// selection-scan data state this cycle (its memory-read fitness may
    /// be intercepted by `scalingLogic_parSel`).
    pub fn is_sel_scanning(&self) -> bool {
        self.state.get() == State::SelScanData
    }

    /// Status wire: the core computes its selection threshold this
    /// cycle (the slave core's `rn` is forced to zero here so any
    /// forced-max fitness wins the scan).
    pub fn is_sel_draw(&self) -> bool {
        self.state.get() == State::SelDraw
    }

    fn best_ind(&self) -> Individual {
        unpack(self.best.get())
    }

    fn new_best_ind(&self) -> Individual {
        unpack(self.new_best.get())
    }

    /// Evaluation phase. Returns the same-cycle combinational outputs
    /// (RNG wires + probe event).
    pub fn eval(&mut self, i: &GaCoreIn) -> GaCoreComb {
        let mut comb = GaCoreComb::default();

        // --- scan-chain test mode freezes the FSM ---------------------
        if i.test || self.test_prev.get() {
            self.eval_scan(i);
            if i.test {
                self.test_prev.set(true);
                return comb;
            }
        }
        self.test_prev.set(i.test);

        // Per-phase cycle tally (instrumentation only).
        match self.state.get() {
            State::Idle | State::Start | State::GenCheck | State::GenEnd | State::Done => {
                self.profile.control += 1;
            }
            State::InitParams => self.profile.init_params += 1,
            State::InitPopDraw | State::InitPopStore | State::InitPopUpdate => {
                self.profile.init_pop += 1;
            }
            State::InitPopFitReq | State::InitPopFitWait => self.profile.fitness_wait += 1,
            State::SelDraw
            | State::SelMulWait
            | State::SelScanAddr
            | State::SelScanWait
            | State::SelScanData => self.profile.selection += 1,
            State::XoverDecide | State::MutDecide => self.profile.breeding += 1,
            State::OffFitReq | State::OffFitWait => self.profile.fitness_wait += 1,
            State::ElitWrite | State::OffStore | State::OffUpdate => self.profile.store += 1,
        }

        // Defaults staged every cycle; states override below.
        self.mem_wr.set(false);

        // Fitness response mux: internal FEM bank or the external ports
        // (Table II 24–25) — unselected modules keep quiet, so the
        // first asserted valid wins.
        let valid_any = i.fit_valid || i.fit_valid_ext;
        let value_any = if i.fit_valid {
            i.fit_value
        } else {
            i.fit_value_ext
        };

        let pop = self.pop_size.get();

        match self.state.get() {
            State::Idle => {
                self.ga_done.set(false);
                if i.ga_load {
                    self.state.set(State::InitParams);
                } else if i.start_ga {
                    self.state.set(State::Start);
                }
            }

            State::InitParams => {
                let payload = ((i.index as u32) << 16) | i.value as u32;
                if let Some(p) = self.init_hs.eval(i.data_valid, payload) {
                    let idx = ((p >> 16) & 0x7) as u8;
                    let value = (p & 0xFFFF) as u16;
                    if let Some(pi) = ParamIndex::from_bus(idx) {
                        self.apply_param_write(pi, value);
                    }
                }
                if !i.ga_load {
                    self.state.set(State::Idle);
                }
            }

            State::Start => {
                // Preset resolution (Table IV): a nonzero preset bus
                // overrides the programmed registers, providing the
                // ASIC fault-tolerance path of §III-C.1.
                let mode = PresetMode::from_bus(i.preset);
                let effective = match GaParams::preset(mode) {
                    Some(p) => {
                        self.pop_size.set(p.pop_size);
                        self.n_gens.set(p.n_gens);
                        self.xover_threshold.set(p.xover_threshold);
                        self.mut_threshold.set(p.mut_threshold);
                        self.seed.set(p.seed);
                        p
                    }
                    None => self.programmed_params(),
                };
                comb.rn_seed_load = Some(effective.seed);
                self.cur_base.set(BANK0_BASE);
                self.new_base.set(BANK1_BASE);
                self.gen.set(0);
                self.fit_sum.set(0);
                self.best.set(0);
                self.i.set(0);
                self.ga_done.set(false);
                self.state.set(State::InitPopDraw);
            }

            // --- initial population ----------------------------------
            State::InitPopDraw => {
                self.cand.set(i.rn);
                comb.rn_consume = true;
                self.rng_draws += 1;
                self.state.set(State::InitPopFitReq);
            }
            State::InitPopFitReq => {
                self.fit_request.set(true);
                self.state.set(State::InitPopFitWait);
            }
            State::InitPopFitWait => {
                if valid_any {
                    self.fit_reg.set(value_any);
                    self.fit_request.set(false);
                    self.state.set(State::InitPopStore);
                }
            }
            State::InitPopStore => {
                self.evaluations += 1;
                self.mem_address
                    .set(self.cur_base.get().wrapping_add(self.i.get()));
                self.mem_data_out.set(pack(Individual {
                    chrom: self.cand.get(),
                    fitness: self.fit_reg.get(),
                }));
                self.mem_wr.set(true);
                self.state.set(State::InitPopUpdate);
            }
            State::InitPopUpdate => {
                let member = Individual {
                    chrom: self.cand.get(),
                    fitness: self.fit_reg.get(),
                };
                let (sum, best) = sown(self.i.get(), self.fit_sum.get(), self.best.get(), member);
                self.fit_sum.set(sum);
                if let Some(best) = best {
                    self.best.set(best);
                }
                let ni = self.i.get().wrapping_add(1);
                self.i.set(ni);
                if ni == pop {
                    let best = best.map_or_else(|| self.best_ind(), unpack);
                    comb.stats_event = Some((0, best.chrom, best.fitness, sum));
                    self.state.set(State::GenCheck);
                } else {
                    self.state.set(State::InitPopDraw);
                }
            }

            State::GenCheck => {
                if self.gen.get() == self.n_gens.get() {
                    self.cand.set(self.best_ind().chrom);
                    self.ga_done.set(true);
                    self.state.set(State::Done);
                } else {
                    self.state.set(State::ElitWrite);
                }
            }

            // --- one generation --------------------------------------
            State::ElitWrite => {
                let elite = self.best_ind();
                self.mem_address.set(self.new_base.get());
                self.mem_data_out.set(pack(elite));
                self.mem_wr.set(true);
                self.new_sum.set(elite.fitness as u32);
                self.new_best.set(pack(elite));
                self.idx.set(1);
                self.sel_phase.set(false);
                self.state.set(State::SelDraw);
            }

            State::SelDraw => {
                self.threshold
                    .set(ops::selection_threshold(self.fit_sum.get(), i.rn));
                comb.rn_consume = true;
                self.rng_draws += 1;
                self.cum.set(0);
                self.scan_idx.set(0);
                // Sequential 24×16 multiplier: MUL_WAIT + 1 further cycles.
                self.mult_cnt.set(MUL_WAIT);
                self.state.set(State::SelMulWait);
            }
            State::SelMulWait => {
                let c = self.mult_cnt.get();
                if c == 0 {
                    self.state.set(State::SelScanAddr);
                } else {
                    self.mult_cnt.set(c - 1);
                }
            }
            State::SelScanAddr => {
                self.mem_address
                    .set(self.cur_base.get().wrapping_add(self.scan_idx.get()));
                self.state.set(State::SelScanWait);
            }
            State::SelScanWait => {
                self.state.set(State::SelScanData);
            }
            State::SelScanData => {
                let ind = unpack(i.mem_data_in);
                let cum = self.cum.get().wrapping_add(ind.fitness as u32);
                // An 8-bit equality comparator: a pop_size of 0 (only
                // reachable through the scan chain) wraps to 255.
                let last = self.scan_idx.get() == pop.wrapping_sub(1);
                if ops::selection_hit(cum, self.threshold.get()) || last {
                    comb.sel_hit = true;
                    if !self.sel_phase.get() {
                        self.parent1.set(ind.chrom);
                        self.sel_phase.set(true);
                        self.state.set(State::SelDraw);
                    } else {
                        self.parent2.set(ind.chrom);
                        self.state.set(State::XoverDecide);
                    }
                } else {
                    self.cum.set(cum);
                    self.scan_idx.set(self.scan_idx.get().wrapping_add(1));
                    self.state.set(State::SelScanAddr);
                }
            }

            State::XoverDecide => {
                comb.rn_consume = true;
                self.rng_draws += 1;
                let parents = [self.parent1.get(), self.parent2.get()];
                let xover = ops::xover_fields(i.rn);
                let [o1, o2] = ops::crossed(parents, xover, self.xover_threshold.get());
                self.off1.set(o1);
                self.off2.set(o2);
                self.off_phase.set(false);
                self.state.set(State::MutDecide);
            }
            State::MutDecide => {
                comb.rn_consume = true;
                self.rng_draws += 1;
                let off = if self.off_phase.get() {
                    &mut self.off2
                } else {
                    &mut self.off1
                };
                let fields = ops::mut_fields(i.rn);
                off.set(ops::mutated(off.get(), fields, self.mut_threshold.get()));
                self.state.set(State::OffFitReq);
            }
            State::OffFitReq => {
                let chrom = if self.off_phase.get() {
                    self.off2.get()
                } else {
                    self.off1.get()
                };
                self.cand.set(chrom);
                self.fit_request.set(true);
                self.state.set(State::OffFitWait);
            }
            State::OffFitWait => {
                if valid_any {
                    self.fit_reg.set(value_any);
                    self.fit_request.set(false);
                    self.state.set(State::OffStore);
                }
            }
            State::OffStore => {
                self.evaluations += 1;
                self.mem_address
                    .set(self.new_base.get().wrapping_add(self.idx.get()));
                self.mem_data_out.set(pack(Individual {
                    chrom: self.cand.get(),
                    fitness: self.fit_reg.get(),
                }));
                self.mem_wr.set(true);
                self.state.set(State::OffUpdate);
            }
            State::OffUpdate => {
                let stored = Individual {
                    chrom: self.cand.get(),
                    fitness: self.fit_reg.get(),
                };
                let (sum, best) = joined(self.new_sum.get(), self.new_best.get(), stored);
                self.new_sum.set(sum);
                if let Some(best) = best {
                    self.new_best.set(best);
                }
                let ni = self.idx.get().wrapping_add(1);
                self.idx.set(ni);
                if ni == pop {
                    self.state.set(State::GenEnd);
                } else if !self.off_phase.get() {
                    self.off_phase.set(true);
                    self.state.set(State::MutDecide);
                } else {
                    self.sel_phase.set(false);
                    self.state.set(State::SelDraw);
                }
            }
            State::GenEnd => {
                // Swap population banks; publish the generation's best
                // on the candidate bus (§III-C.3: available "in case of
                // an emergency").
                let cb = self.cur_base.get();
                self.cur_base.set(self.new_base.get());
                self.new_base.set(cb);
                self.fit_sum.set(self.new_sum.get());
                let nb = self.new_best_ind();
                self.best.set(pack(nb));
                let g = self.gen.get().wrapping_add(1);
                self.gen.set(g);
                self.cand.set(nb.chrom);
                comb.stats_event = Some((g, nb.chrom, nb.fitness, self.new_sum.get()));
                self.state.set(State::GenCheck);
            }

            State::Done => {
                self.cand.set(self.best_ind().chrom);
                if i.start_ga {
                    // Restart: drop GA_done immediately so the
                    // application's completion edge is unambiguous.
                    self.ga_done.set(false);
                    self.state.set(State::Start);
                } else if i.ga_load {
                    self.ga_done.set(false);
                    self.state.set(State::InitParams);
                } else {
                    self.ga_done.set(true);
                }
            }
        }

        comb
    }

    // --- run windows --------------------------------------------------

    /// Where a run window to the next `GenCheck` may start, out of
    /// test mode with no memory write or fitness request pending:
    ///
    /// * `ElitWrite`, for a whole generation through `GenEnd`'s edge,
    ///   when `pop_size ≥ 2` and the current and new banks,
    ///   `[cur_base, +pop_size)` and `[new_base, +pop_size)`, do not
    ///   overlap, so no store lands on a member a selection reads;
    /// * the first `InitPopDraw` (`i` 0), for the initial population
    ///   through the last `InitPopUpdate`.
    ///
    /// Returns `None` anywhere else.
    pub(crate) fn stretch(&self) -> Option<Stretch> {
        if self.test_prev.get() || self.mem_wr.get() || self.fit_request.get() {
            return None;
        }
        let pop = self.pop_size.get();
        match self.state.get() {
            State::ElitWrite => {
                let apart = u16::from(self.new_base.get().wrapping_sub(self.cur_base.get()));
                let pop = u16::from(pop);
                if pop < 2 || apart < pop || 256 - apart < pop {
                    return None;
                }
                let (pop, offspring) = (u64::from(pop), u64::from(pop) - 1);
                // `ElitWrite`, two selections of `5 + 3 × pop_size`
                // cycles per pair of offspring, a crossover draw per
                // pair, per offspring the mutation draw, request,
                // latch, store and update, then `GenEnd`.
                let pairs = offspring.div_ceil(2);
                Some(Stretch {
                    most: 2 + pairs * (2 * (5 + 3 * pop) + 1) + offspring * 5,
                    handshakes: offspring,
                    selects: true,
                })
            }
            State::InitPopDraw if self.i.get() == 0 && pop > 0 => {
                // Per member: draw, request, latch, store, update.
                let members = u64::from(pop);
                Some(Stretch {
                    most: members * 5,
                    handshakes: members,
                    selects: false,
                })
            }
            _ => None,
        }
    }

    /// The parent selection from `SelDraw` under draw `rn`, found on
    /// `prefix`, the sums the scan's `cum` register holds member by
    /// member ([`ops::selection_prefix`]), instead of by a walk: the
    /// scan stops at the first member [`ops::selection_pick`] finds, or
    /// falls through to `prefix`'s last. `word(addr)` must return the
    /// word at `addr`. The scan takes [`GaCoreHw::scan_cycles`].
    pub(crate) fn pick(&self, rn: u16, prefix: &[u32], word: impl FnOnce(u8) -> u32) -> Pick {
        let threshold = ops::selection_threshold(self.fit_sum.get(), rn);
        let at = ops::selection_pick(prefix, threshold).unwrap_or(prefix.len() - 1);
        let hit = at as u8;
        Pick {
            threshold,
            hit,
            cum: at.checked_sub(1).map_or(0, |k| prefix[k]),
            word: word(self.cur_base.get().wrapping_add(hit)),
        }
    }

    /// Core 2's parent selection in the 32-bit GA, where
    /// `scalingLogic_parSel` forces its scan to stop where core 1's
    /// stops, at bank offset `hit`: every member walked before the hit
    /// reads zero fitness and the hit full scale, so the threshold its
    /// `SelDraw` computes and the `cum` the hit's cycle holds are both
    /// 0, whatever it drew. `word(addr)` must return the word at `addr`.
    pub(crate) fn follow(&self, hit: u8, word: impl FnOnce(u8) -> u32) -> Pick {
        Pick {
            threshold: 0,
            hit,
            cum: 0,
            word: word(self.cur_base.get().wrapping_add(hit)),
        }
    }

    /// Cycles from `SelDraw` through the `SelScanData` of a hit at bank
    /// offset `hit`: `SelDraw`, the multiplier wait, and three per
    /// member walked.
    fn scan_cycles(hit: u8) -> u64 {
        1 + u64::from(MUL_WAIT) + 1 + 3 * (u64::from(hit) + 1)
    }

    /// Run a generation's selections and breeding ahead of the clock,
    /// from `ElitWrite` ([`GaCoreHw::stretch`]) through the last
    /// offspring's request: `ElitWrite`'s edge ([`GaCoreHw::tick`]),
    /// then the generation loop ([`ops::breed`]) with the `k`-th
    /// selection `select(self, k, rn)` for the draw `rn`: a
    /// [`GaCoreHw::pick`] or a [`GaCoreHw::follow`]. `draw()` returns
    /// the RNG's output and steps it. The current bank holds still
    /// throughout: no store lands in it.
    ///
    /// Every register ends as the last `OffUpdate`'s edge leaves it but
    /// those the fitness values set, which [`GaCoreHw::store`] lands.
    pub(crate) fn breed(
        &mut self,
        draw: impl FnMut() -> u16,
        select: impl Fn(&Self, usize, u16) -> Pick,
        brood: &mut Brood,
    ) {
        brood.hits.clear();
        brood.cands.clear();
        self.tick();
        let out = self.out();
        brood.elite = (out.mem_address, out.mem_data_out);
        let offspring = self.pop_size.get() - 1;
        let thresholds = (self.xover_threshold.get(), self.mut_threshold.get());
        // The last selection's `threshold` and `cum` registers.
        let mut last = (0, 0);
        let core = &*self;
        // `SelDraw` through the hit's `SelScanData` for each parent,
        // `XoverDecide` per pair, then `MutDecide` through `OffUpdate`
        // for each offspring.
        let ([p1, p2], [o1, o2]) = ops::breed(
            usize::from(offspring),
            thresholds,
            draw,
            |rn| {
                let pick = select(core, brood.hits.len(), rn);
                brood.hits.push(pick.hit);
                last = (pick.threshold, pick.cum);
                unpack(pick.word).chrom
            },
            |chrom| brood.cands.push(chrom),
        );
        let selecting: u64 = brood.hits.iter().map(|&hit| Self::scan_cycles(hit)).sum();
        if let Some(&hit) = brood.hits.last() {
            self.threshold.reset_to(last.0);
            self.cum.reset_to(last.1);
            self.scan_idx.reset_to(hit);
        }
        self.parent1.reset_to(p1);
        self.parent2.reset_to(p2);
        self.mult_cnt.reset_to(0);
        self.sel_phase.reset_to(true);
        self.off1.reset_to(o1);
        self.off2.reset_to(o2);
        // The last pair bred its second offspring when the count is even.
        self.off_phase.reset_to(offspring.is_multiple_of(2));
        self.cand
            .reset_to(brood.cands.last().copied().unwrap_or_default());
        self.mem_address
            .reset_to(self.new_base.get().wrapping_add(offspring));
        self.mem_wr.reset_to(false);
        self.idx.reset_to(self.pop_size.get());
        self.state.reset_to(State::GenEnd);
        let (offspring, pairs) = (u64::from(offspring), u64::from(offspring.div_ceil(2)));
        self.rng_draws += brood.hits.len() as u64 + pairs + offspring;
        // Per offspring: the mutation draw, the request and latch
        // cycles, `OffStore` and `OffUpdate`.
        self.profile.selection += selecting;
        self.profile.breeding += pairs + offspring;
        self.profile.fitness_wait += 2 * offspring;
        self.profile.store += 2 * offspring;
        brood.cycles = 1 + selecting + pairs + 5 * offspring;
    }

    /// Land the fitness `values` of the offspring [`GaCoreHw::breed`]
    /// bred, each answered `edges` edges after its request: `mem` takes
    /// the elite and each offspring where `ElitWrite` and `OffStore`
    /// address them, and every register ends as the last `OffUpdate`'s
    /// edge leaves it.
    pub(crate) fn store(&mut self, brood: &Brood, values: &[u16], edges: u64, mem: &mut GaMemory) {
        let (addr, elite) = brood.elite;
        mem.write(addr, elite);
        let (mut sum, mut best) = (self.new_sum.get(), self.new_best.get());
        for (k, (&chrom, &fitness)) in (1..).zip(brood.cands.iter().zip(values)) {
            let stored = Individual { chrom, fitness };
            mem.write(addr.wrapping_add(k), pack(stored));
            self.fit_reg.reset_to(fitness);
            self.mem_data_out.reset_to(pack(stored));
            let (next, fitter) = joined(sum, best, stored);
            (sum, best) = (next, fitter.unwrap_or(best));
        }
        self.new_sum.reset_to(sum);
        self.new_best.reset_to(best);
        self.evaluations += values.len() as u64;
        self.profile.fitness_wait += edges * values.len() as u64;
    }

    /// Land the initial population `cands`, drawn one per member
    /// ([`ops::sow`]) from its first `InitPopDraw`
    /// ([`GaCoreHw::stretch`]), with its fitness `values`, each answered
    /// `edges` edges after its request: `mem` takes each member where
    /// `InitPopStore` addresses it, its read register ends on what the
    /// last `InitPopStore` cycle reads, and every register ends as the
    /// last `InitPopUpdate`'s edge leaves it. Returns that edge's
    /// generation-0 event.
    pub(crate) fn seed(
        &mut self,
        cands: &[u16],
        values: &[u16],
        edges: u64,
        mem: &mut GaMemory,
    ) -> (u32, u16, u16, u32) {
        let base = self.cur_base.get();
        let (mut sum, mut best) = (self.fit_sum.get(), self.best.get());
        for (i, (&chrom, &fitness)) in (0..).zip(cands.iter().zip(values)) {
            let member = Individual { chrom, fitness };
            // `InitPopStore` reads the address the last store left, then
            // `InitPopUpdate` writes the member.
            mem.settle_read(self.mem_address.get());
            self.mem_address.reset_to(base.wrapping_add(i));
            mem.write(base.wrapping_add(i), pack(member));
            let (next, fitter) = sown(i, sum, best, member);
            (sum, best) = (next, fitter.unwrap_or(best));
            self.cand.reset_to(chrom);
            self.fit_reg.reset_to(fitness);
            self.mem_data_out.reset_to(pack(member));
        }
        let members = values.len() as u64;
        self.fit_sum.reset_to(sum);
        self.best.reset_to(best);
        self.i.reset_to(self.pop_size.get());
        self.state.reset_to(State::GenCheck);
        self.rng_draws += members;
        self.evaluations += members;
        // Per member: the draw, store and update cycles, the request and
        // latch cycles and the answer edges.
        self.profile.init_pop += 3 * members;
        self.profile.fitness_wait += (2 + edges) * members;
        let best = unpack(best);
        (0, best.chrom, best.fitness, sum)
    }

    /// One clock edge with idle inputs: a generation window's
    /// `ElitWrite` and `GenEnd`, which read none.
    pub(crate) fn tick(&mut self) -> GaCoreComb {
        let comb = self.eval(&GaCoreIn::default());
        self.commit();
        comb
    }

    fn apply_param_write(&mut self, idx: ParamIndex, value: u16) {
        match idx {
            ParamIndex::NumGensLo => {
                self.n_gens
                    .set((self.n_gens.get() & 0xFFFF_0000) | value as u32);
            }
            ParamIndex::NumGensHi => {
                self.n_gens
                    .set((self.n_gens.get() & 0x0000_FFFF) | ((value as u32) << 16));
            }
            ParamIndex::PopSize => self.pop_size.set(value as u8),
            ParamIndex::CrossoverRate => self.xover_threshold.set((value & 0xF) as u8),
            ParamIndex::MutationRate => self.mut_threshold.set((value & 0xF) as u8),
            ParamIndex::RngSeed => self.seed.set(value),
        }
    }

    // --- scan chain (§III-C.2) ---------------------------------------

    /// Serialize the architectural registers into the scan chain, in the
    /// documented order (LSB first within each field).
    fn scan_serialize(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(Self::SCAN_LENGTH);
        let mut push = |v: u64, w: u32| {
            for b in 0..w {
                bits.push((v >> b) & 1 == 1);
            }
        };
        push(self.seed.get() as u64, 16);
        push(self.pop_size.get() as u64, 8);
        push(self.n_gens.get() as u64, 32);
        push(self.xover_threshold.get() as u64, 4);
        push(self.mut_threshold.get() as u64, 4);
        push(self.cand.get() as u64, 16);
        push(self.fit_reg.get() as u64, 16);
        push(self.parent1.get() as u64, 16);
        push(self.parent2.get() as u64, 16);
        push(self.off1.get() as u64, 16);
        push(self.off2.get() as u64, 16);
        push(self.best.get() as u64, 32);
        push(self.new_best.get() as u64, 32);
        push(self.fit_sum.get() as u64, 32);
        push(self.new_sum.get() as u64, 32);
        push(self.threshold.get() as u64, 32);
        push(self.cum.get() as u64, 32);
        push(self.i.get() as u64, 8);
        push(self.idx.get() as u64, 8);
        push(self.scan_idx.get() as u64, 8);
        push(self.gen.get() as u64, 32);
        debug_assert_eq!(bits.len(), Self::SCAN_LENGTH);
        bits
    }

    /// Deserialize the scan chain back into the registers.
    fn scan_deserialize(&mut self, bits: &[bool]) {
        let mut pos = 0usize;
        let mut pull = |w: u32| -> u64 {
            let mut v = 0u64;
            for b in 0..w {
                if bits[pos + b as usize] {
                    v |= 1 << b;
                }
            }
            pos += w as usize;
            v
        };
        let seed = pull(16) as u16;
        let pop = pull(8) as u8;
        let ngens = pull(32) as u32;
        let xt = pull(4) as u8;
        let mt = pull(4) as u8;
        let cand = pull(16) as u16;
        let fit = pull(16) as u16;
        let p1 = pull(16) as u16;
        let p2 = pull(16) as u16;
        let o1 = pull(16) as u16;
        let o2 = pull(16) as u16;
        let best = pull(32) as u32;
        let nbest = pull(32) as u32;
        let fsum = pull(32) as u32;
        let nsum = pull(32) as u32;
        let thr = pull(32) as u32;
        let cum = pull(32) as u32;
        let i = pull(8) as u8;
        let idx = pull(8) as u8;
        let sidx = pull(8) as u8;
        let gen = pull(32) as u32;
        self.seed.set(seed);
        self.pop_size.set(pop);
        self.n_gens.set(ngens);
        self.xover_threshold.set(xt);
        self.mut_threshold.set(mt);
        self.cand.set(cand);
        self.fit_reg.set(fit);
        self.parent1.set(p1);
        self.parent2.set(p2);
        self.off1.set(o1);
        self.off2.set(o2);
        self.best.set(best);
        self.new_best.set(nbest);
        self.fit_sum.set(fsum);
        self.new_sum.set(nsum);
        self.threshold.set(thr);
        self.cum.set(cum);
        self.i.set(i);
        self.idx.set(idx);
        self.scan_idx.set(sidx);
        self.gen.set(gen);
    }

    /// Total scan-chain length in bits.
    pub const SCAN_LENGTH: usize = 16 + 8 + 32 + 4 + 4 + 16 * 6 + 32 * 6 + 8 * 3 + 32;

    /// `(field, width)` of every architectural register on the scan
    /// chain, in serialization order (LSB first within each field).
    /// This is the bit-position map of `scan_serialize` /
    /// `scan_deserialize`; static analyses join fault-campaign scan
    /// positions with gate-level register indices through it.
    pub const SCAN_FIELDS: &'static [(&'static str, usize)] = &[
        ("seed", 16),
        ("pop_size", 8),
        ("n_gens", 32),
        ("xover_threshold", 4),
        ("mut_threshold", 4),
        ("cand", 16),
        ("fit_reg", 16),
        ("parent1", 16),
        ("parent2", 16),
        ("off1", 16),
        ("off2", 16),
        ("best", 32),
        ("new_best", 32),
        ("fit_sum", 32),
        ("new_sum", 32),
        ("threshold", 32),
        ("cum", 32),
        ("i", 8),
        ("idx", 8),
        ("scan_idx", 8),
        ("gen", 32),
    ];

    fn eval_scan(&mut self, i: &GaCoreIn) {
        let rising = i.test && !self.test_prev.get();
        let falling = !i.test && self.test_prev.get();
        if rising {
            self.scan_chain = self.scan_serialize();
        }
        if i.test && !self.scan_chain.is_empty() {
            // Shift one position: scanout takes the tail, scanin enters
            // at the head.
            let out = self.scan_chain.pop().expect("chain non-empty");
            self.scanout.set(out);
            self.scan_chain.insert(0, i.scanin);
        }
        if falling && self.scan_chain.len() == Self::SCAN_LENGTH {
            let bits = std::mem::take(&mut self.scan_chain);
            self.scan_deserialize(&bits);
        } else if falling {
            self.scan_chain.clear();
        }
    }
}

impl Clocked for GaCoreHw {
    fn reset(&mut self) {
        *self = GaCoreHw::new();
    }

    fn commit(&mut self) {
        self.state.commit();
        self.pop_size.commit();
        self.n_gens.commit();
        self.xover_threshold.commit();
        self.mut_threshold.commit();
        self.seed.commit();
        self.cur_base.commit();
        self.new_base.commit();
        self.gen.commit();
        self.fit_sum.commit();
        self.new_sum.commit();
        self.best.commit();
        self.new_best.commit();
        self.i.commit();
        self.idx.commit();
        self.scan_idx.commit();
        self.threshold.commit();
        self.cum.commit();
        self.mult_cnt.commit();
        self.sel_phase.commit();
        self.parent1.commit();
        self.parent2.commit();
        self.off1.commit();
        self.off2.commit();
        self.off_phase.commit();
        self.cand.commit();
        self.fit_reg.commit();
        self.fit_request.commit();
        self.mem_address.commit();
        self.mem_data_out.commit();
        self.mem_wr.commit();
        self.ga_done.commit();
        self.init_hs.commit();
        self.test_prev.commit();
        self.scanout.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_on_defaults_are_sane() {
        let core = GaCoreHw::new();
        assert!(core.programmed_params().validate().is_ok());
        assert!(!core.out().ga_done);
        assert!(!core.out().fit_request);
    }

    #[test]
    fn scan_length_counts_every_register() {
        let core = GaCoreHw::new();
        assert_eq!(core.scan_serialize().len(), GaCoreHw::SCAN_LENGTH);
        assert_eq!(GaCoreHw::SCAN_LENGTH, 408);
    }

    #[test]
    fn scan_fields_tile_the_chain() {
        let total: usize = GaCoreHw::SCAN_FIELDS.iter().map(|&(_, w)| w).sum();
        assert_eq!(total, GaCoreHw::SCAN_LENGTH);
        // Field positions must match the serializer: setting one field
        // to all-ones lights up exactly its bit span.
        let mut offset = 0usize;
        for &(name, width) in GaCoreHw::SCAN_FIELDS {
            let mut core = GaCoreHw::new();
            match name {
                "seed" => core.seed.reset_to(0xFFFF),
                "pop_size" => core.pop_size.reset_to(0xFF),
                "n_gens" => core.n_gens.reset_to(u32::MAX),
                "xover_threshold" => core.xover_threshold.reset_to(0xF),
                "mut_threshold" => core.mut_threshold.reset_to(0xF),
                "cand" => core.cand.reset_to(0xFFFF),
                "fit_reg" => core.fit_reg.reset_to(0xFFFF),
                "parent1" => core.parent1.reset_to(0xFFFF),
                "parent2" => core.parent2.reset_to(0xFFFF),
                "off1" => core.off1.reset_to(0xFFFF),
                "off2" => core.off2.reset_to(0xFFFF),
                "best" => core.best.reset_to(u32::MAX),
                "new_best" => core.new_best.reset_to(u32::MAX),
                "fit_sum" => core.fit_sum.reset_to(u32::MAX),
                "new_sum" => core.new_sum.reset_to(u32::MAX),
                "threshold" => core.threshold.reset_to(u32::MAX),
                "cum" => core.cum.reset_to(u32::MAX),
                "i" => core.i.reset_to(0xFF),
                "idx" => core.idx.reset_to(0xFF),
                "scan_idx" => core.scan_idx.reset_to(0xFF),
                "gen" => core.gen.reset_to(u32::MAX),
                other => panic!("unmapped scan field {other}"),
            }
            let baseline = GaCoreHw::new().scan_serialize();
            let bits = core.scan_serialize();
            for (i, (&b, &base)) in bits.iter().zip(&baseline).enumerate() {
                if (offset..offset + width).contains(&i) {
                    assert!(b, "field '{name}' bit {i} not in its span");
                } else {
                    assert_eq!(b, base, "field '{name}' leaked into bit {i}");
                }
            }
            offset += width;
        }
    }

    #[test]
    fn scan_roundtrip_preserves_registers() {
        let mut core = GaCoreHw::new();
        core.seed.reset_to(0xDEAD);
        core.fit_sum.reset_to(123_456);
        core.parent1.reset_to(0x5A5A);
        let bits = core.scan_serialize();
        let mut other = GaCoreHw::new();
        other.scan_deserialize(&bits);
        other.commit();
        assert_eq!(other.seed.get(), 0xDEAD);
        assert_eq!(other.fit_sum.get(), 123_456);
        assert_eq!(other.parent1.get(), 0x5A5A);
    }

    #[test]
    fn full_scan_shift_restores_state() {
        // Shifting the entire chain through test mode with the original
        // serial stream re-fed must restore the registers bit-exactly.
        let mut core = GaCoreHw::new();
        core.seed.reset_to(0xBEEF);
        core.best.reset_to(0x1234_5678);
        let reference = core.scan_serialize();

        // Enter test mode and shift SCAN_LENGTH bits, feeding the
        // captured stream back in (out bit k is chain tail; feeding the
        // same stream back in restores the original contents).
        let mut captured = Vec::new();
        for k in 0..GaCoreHw::SCAN_LENGTH {
            // Feed the original stream tail-first so a full rotation
            // leaves the chain exactly as captured: after L shifts the
            // chain is the reversed feed, so feed[k] = reference[L-1-k].
            let feed = reference[GaCoreHw::SCAN_LENGTH - 1 - k];
            let input = GaCoreIn {
                test: true,
                scanin: feed,
                ..Default::default()
            };
            core.eval(&input);
            core.commit();
            captured.push(core.out().scanout);
        }
        // The captured stream is the chain tail-first.
        let expected: Vec<bool> = reference.iter().rev().copied().collect();
        assert_eq!(captured, expected);

        // Drop test: registers reload from the (rotated-back) chain.
        let input = GaCoreIn::default();
        core.eval(&input);
        core.commit();
        assert_eq!(core.seed.get(), 0xBEEF);
        assert_eq!(core.best.get(), 0x1234_5678);
    }

    #[test]
    fn test_mode_freezes_the_fsm() {
        let mut core = GaCoreHw::new();
        let input = GaCoreIn {
            test: true,
            start_ga: true,
            ..Default::default()
        };
        for _ in 0..5 {
            core.eval(&input);
            core.commit();
        }
        assert_eq!(
            core.state.get(),
            State::Idle,
            "start_GA ignored in test mode"
        );
    }

    #[test]
    fn start_enters_optimization() {
        let mut core = GaCoreHw::new();
        let start = GaCoreIn {
            start_ga: true,
            ..Default::default()
        };
        let comb = core.eval(&start);
        assert!(comb.rn_seed_load.is_none(), "seed loads in Start, not Idle");
        core.commit();
        assert_eq!(core.state.get(), State::Start);
        let comb = core.eval(&GaCoreIn::default());
        assert_eq!(comb.rn_seed_load, Some(GaParams::default().seed));
        core.commit();
        assert_eq!(core.state.get(), State::InitPopDraw);
    }

    #[test]
    fn profile_accounts_for_every_cycle() {
        use crate::system::{GaSystem, UserIn};
        use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};
        let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(TestFunction::F3),
        )]));
        let params = GaParams::new(8, 3, 10, 1, 0x2961);
        sys.program_and_run(&params, 10_000_000).unwrap();
        // One more idle step so the final Done-state cycle is tallied.
        sys.step(UserIn::default());
        let p = sys.modules().core.profile();
        // Every clocked cycle lands in exactly one bucket.
        assert_eq!(p.total(), sys.cycles());
        // Selection dominates the paper's workload shape even at pop 8.
        assert!(p.selection > p.breeding);
        assert!(p.fitness_wait > 0 && p.init_params > 0);
    }

    /// A 16-bit mBF6_2 system programmed with `params`, one cycle into
    /// its run.
    fn started(params: &GaParams) -> crate::system::GaSystem {
        use crate::system::{GaSystem, UserIn};
        use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};
        let fem = FemSlot::Lookup(LookupFem::for_function(TestFunction::Mbf6_2));
        let mut sys = GaSystem::new(FemBank::new(vec![fem]));
        sys.program(params);
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        sys
    }

    /// From each `SelDraw` of a run, single steps through the hit's
    /// `SelScanData` leave the scan index, the running sum, the parent
    /// register and the cycles that a pick on the bank's sums finds.
    #[test]
    fn picks_on_the_bank_sums_stop_where_the_scan_stops() {
        use crate::system::UserIn;
        let params = GaParams::new(24, 6, 10, 1, 0xB342);
        let mut sys = started(&params);
        let mut prefix = Vec::new();
        let mut picks = 0;
        while !sys.modules().core.out().ga_done {
            if !sys.modules().core.is_sel_draw() {
                sys.step(UserIn::default());
                continue;
            }
            let m = sys.modules();
            let base = m.core.cur_base.get();
            let fitness =
                (0..params.pop_size).map(|k| unpack(m.mem.word(base.wrapping_add(k))).fitness);
            ops::selection_prefix(fitness, &mut prefix);
            let pick = m.core.pick(m.rng.rn(), &prefix, |addr| m.mem.word(addr));
            let mut cycles = 0;
            loop {
                sys.step(UserIn::default());
                cycles += 1;
                let state = sys.modules().core.state.get();
                if state == State::SelDraw || state == State::XoverDecide {
                    break;
                }
            }
            let core = &sys.modules().core;
            let parent = if core.state.get() == State::SelDraw {
                core.parent1.get()
            } else {
                core.parent2.get()
            };
            let stepped = Pick {
                threshold: core.threshold.get(),
                hit: core.scan_idx.get(),
                cum: core.cum.get(),
                word: pick.word,
            };
            assert_eq!(stepped, pick, "selection {picks}");
            assert_eq!(cycles, GaCoreHw::scan_cycles(pick.hit), "selection {picks}");
            assert_eq!(parent, unpack(pick.word).chrom, "selection {picks}");
            picks += 1;
        }
        assert!(picks > 100, "{picks} selections checked");
    }

    /// Bank bases moved as the second generation's window would start,
    /// which the scan chain does not reach, and three faults inside the
    /// first generation: an `off_phase` flip, aliased banks, and a store
    /// onto the address the read register holds. Banks that overlap
    /// fall back to single steps, banks apart take run windows, and
    /// either way the system matches single steps after every run window
    /// and at `GA_done`.
    #[test]
    fn generation_windows_fall_back_when_the_banks_overlap() {
        use crate::system::UserIn;
        type Fault = Box<dyn Fn(&mut GaCoreHw)>;
        let banks_at = |offset: u8| -> Fault {
            Box::new(move |c| c.new_base.reset_to(c.cur_base.get().wrapping_add(offset)))
        };
        // The fault lands on the `n`-th cycle in `state`, and whether run
        // windows follow it. New-bank offsets from the current bank at the
        // second `ElitWrite`: aliased, one member of overlap on either
        // side, and adjacent, which does not overlap.
        let cases: [(State, usize, Fault, bool); 7] = [
            (State::ElitWrite, 2, banks_at(0), false),
            (State::ElitWrite, 2, banks_at(15), false),
            (State::ElitWrite, 2, banks_at(241), false),
            (State::ElitWrite, 2, banks_at(16), true),
            (
                State::MutDecide,
                20,
                Box::new(|c| c.off_phase.reset_to(!c.off_phase.get())),
                true,
            ),
            (
                State::XoverDecide,
                20,
                Box::new(|c| c.new_base.reset_to(c.cur_base.get())),
                false,
            ),
            // The store lands on the address the read register holds, a
            // member the last scan read, so the banks overlap.
            (
                State::OffFitReq,
                20,
                Box::new(|c| {
                    let base = c.mem_address.get().wrapping_sub(c.idx.get());
                    c.new_base.reset_to(base);
                }),
                false,
            ),
        ];
        let params = GaParams::new(16, 5, 10, 1, 0x2961);
        for (i, (state, n, fault, windows)) in cases.into_iter().enumerate() {
            let (mut fast, mut slow) = (started(&params), started(&params));
            let mut seen = 0;
            loop {
                seen += usize::from(fast.modules().core.state.get() == state);
                if seen == n {
                    break;
                }
                fast.step(UserIn::default());
                slow.step(UserIn::default());
            }
            fault(fast.core_mut());
            fault(slow.core_mut());
            let (mut jumps, mut first) = (0, None);
            while !fast.modules().core.out().ga_done {
                let n = fast.advance(u64::MAX);
                for _ in 0..n {
                    slow.step(UserIn::default());
                }
                first.get_or_insert(n > 1);
                if n > 1 {
                    jumps += 1;
                    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "case {i}");
                }
            }
            assert_eq!(jumps > 0, windows, "case {i}");
            if state == State::ElitWrite {
                // Banks moved at `ElitWrite` decide that very generation.
                assert_eq!(first, Some(windows), "case {i}");
            }
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "case {i}");
            for name in ["best_fitness", "sum_fitness"] {
                let series = |s: &crate::system::GaSystem| s.trace().series(name).cloned();
                assert_eq!(series(&fast), series(&slow), "case {i}: {name}");
            }
        }
    }

    /// An update that keeps the best writes no best: on the cycle the
    /// scan chain unloads into the registers, `OffUpdate` and
    /// `InitPopUpdate` leave the best the chain unloaded.
    #[test]
    fn updates_that_keep_the_best_keep_the_best_the_scan_chain_unloads() {
        use crate::system::UserIn;
        let bit = |field: &str| {
            let at = GaCoreHw::SCAN_FIELDS
                .iter()
                .position(|&(name, _)| name == field);
            GaCoreHw::SCAN_FIELDS[..at.expect("a scan field")]
                .iter()
                .map(|&(_, w)| w)
                .sum::<usize>()
        };
        let best = |core: &GaCoreHw, field: &str| match field {
            "new_best" => core.new_best.get(),
            _ => core.best.get(),
        };
        let cases = [
            (State::OffUpdate, "new_best"),
            (State::InitPopUpdate, "best"),
        ];
        for (update, field) in cases {
            let mut sys = started(&GaParams::new(16, 3, 10, 1, 0x2961));
            loop {
                let core = &sys.modules().core;
                let kept = core.fit_reg.get() <= unpack(best(core, field)).fitness;
                if core.state.get() == update && core.i.get() != 0 && kept {
                    break;
                }
                sys.step(UserIn::default());
            }
            let before = best(&sys.modules().core, field);
            sys.scan_inject(&[hwsim::ScanBitOp {
                position: bit(field),
                kind: hwsim::BitFault::Flip,
            }]);
            assert_eq!(best(&sys.modules().core, field), before ^ 1, "{field}");
        }
    }

    /// The parameter registers of a fresh core after `writes` go
    /// through the Table III init handshake: `ga_load` held, each write
    /// strobed with `data_valid` until `data_ack` rises, then released
    /// until it falls.
    fn programmed(writes: &[(ParamIndex, u16)]) -> GaParams {
        let mut core = GaCoreHw::new();
        let load = GaCoreIn {
            ga_load: true,
            ..Default::default()
        };
        for &(index, value) in writes {
            for data_valid in [true, false] {
                let input = GaCoreIn {
                    index: index as u8,
                    value,
                    data_valid,
                    ..load
                };
                for _ in 0..4 {
                    if core.out().data_ack == data_valid {
                        break;
                    }
                    core.eval(&input);
                    core.commit();
                }
                assert_eq!(core.out().data_ack, data_valid, "init handshake stalled");
            }
        }
        core.eval(&GaCoreIn::default());
        core.commit();
        assert_eq!(core.state.get(), State::Idle, "dropping ga_load ends init");
        core.programmed_params()
    }

    #[test]
    fn thirty_two_bit_generation_count_from_two_writes() {
        let p = programmed(&[
            (ParamIndex::NumGensLo, 0x1234),
            (ParamIndex::NumGensHi, 0xABCD),
        ]);
        assert_eq!(p.n_gens, 0xABCD_1234);
        // Writing halves in the other order must work too.
        let q = programmed(&[
            (ParamIndex::NumGensHi, 0x0001),
            (ParamIndex::NumGensLo, 0x0000),
        ]);
        assert_eq!(q.n_gens, 0x0001_0000);
    }

    #[test]
    fn threshold_writes_truncate_to_four_bits() {
        let p = programmed(&[
            (ParamIndex::CrossoverRate, 0xFFFA),
            (ParamIndex::MutationRate, 0x0013),
        ]);
        assert_eq!((p.xover_threshold, p.mut_threshold), (10, 3));
    }

    #[test]
    fn preset_bus_overrides_programmed_registers() {
        let mut core = GaCoreHw::new();
        core.eval(&GaCoreIn {
            start_ga: true,
            ..Default::default()
        });
        core.commit();
        let comb = core.eval(&GaCoreIn {
            preset: 0b10,
            ..Default::default()
        });
        core.commit();
        let p = GaParams::preset(PresetMode::Medium).unwrap();
        assert_eq!(core.programmed_params(), p);
        assert_eq!(comb.rn_seed_load, Some(p.seed));
    }
}
