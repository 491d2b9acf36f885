//! Clock-accurate fitness-evaluation module (FEM) models.
//!
//! The GA core and the FEM speak the paper's two-way handshake
//! (§III-B.7): the core drives `candidate` and raises `fit_request`;
//! the FEM computes, drives `fit_value`, and raises `fit_valid`; the
//! core samples and drops `fit_request`; the FEM drops `fit_valid`.
//!
//! Three FEM implementations are provided, mirroring §III and §IV-B:
//!
//! * [`LookupFem`] — the block-ROM lookup used in the paper's hardware
//!   experiments (1-cycle synchronous ROM read inside a 3-state FSM);
//! * [`CordicFem`] — the "combinational implementation" alternative the
//!   paper rejected for speed: an iterative fixed-point CORDIC datapath
//!   with a ~34-cycle evaluation latency;
//! * [`FemSlot::External`] — pass-through wiring for a fitness module on
//!   another chip/board, exercised through the `fit_value_ext` /
//!   `fit_valid_ext` ports (Table II signals 24–25).
//!
//! [`FemBank`] multiplexes up to **eight** slots under the 3-bit
//! `fitfunc_select` input — the headline "support for multiple fitness
//! functions without re-synthesis" feature.

use std::fmt;
use std::sync::Arc;

use hwsim::{Clocked, Reg};

use crate::fixed;
use crate::rom::FitnessRom;
use crate::TestFunction;

/// Input bundle sampled by a FEM each cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct FemIn {
    /// GA core's registered fitness request.
    pub fit_request: bool,
    /// The `candidate` bus. A 16-bit module reads the low half; the
    /// 32-bit GA's shared module reads the whole `{MSB, LSB}` word.
    pub candidate: u32,
}

/// Output bundle of a FEM (registered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FemOut {
    /// Fitness value bus.
    pub fit_value: u16,
    /// Fitness validity strobe.
    pub fit_valid: bool,
}

/// Common FEM behaviour: a clocked slave on the fitness handshake.
///
/// A module is stepped one edge at a time: [`Fem::eval`] against the
/// requester's registered `fit_request` and `candidate`, then a commit,
/// with [`Fem::out`] read between edges. A module never has to answer
/// faster than its edges: the one shortcut a system takes, answering a
/// whole run window's requests in one call, is the block ROM's
/// ([`LookupFem::answer`]), and only where the bank knows its timing
/// ([`FemBank::answering`]). Every other module, the interconnect
/// wrapper, the iterative CORDIC and external or user modules alike,
/// keeps single steps.
pub trait Fem: Clocked {
    /// Evaluation phase.
    fn eval(&mut self, i: FemIn);
    /// Registered outputs.
    fn out(&self) -> FemOut;
    /// True when evaluating with `fit_request` low changes no register:
    /// the module is idle and presents no `fit_valid`. A system may then
    /// skip cycles in which the core raises no request without stepping
    /// the module. The default, `false`, is always safe.
    fn quiescent(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Lookup FEM
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum LookupState {
    #[default]
    Idle,
    /// ROM address presented; data arrives next cycle.
    Fetch,
    /// `fit_valid` asserted; waiting for the request to drop.
    Hold,
}

/// Block-ROM lookup fitness module (the paper's choice for hardware
/// experiments: "a lookup-based implementation has been used ... as this
/// resulted in better operational speed than a combinational
/// implementation").
///
/// The paper fills the ROM offline with the fitness of every 2^16
/// encoding. The model keeps the ROM's interface — one registered read
/// per request — but computes each word when it is read, from the same
/// function the offline table holds. A GA run reads one word per
/// fitness evaluation, far fewer than the 65 536 a table build
/// evaluates; the block-RAM cost is still that of the full table
/// ([`LookupFem::bram_cost`]).
#[derive(Clone)]
pub struct LookupFem {
    read: Arc<dyn Fn(u32) -> u16 + Send + Sync>,
    dout: Reg<u16>,
    state: Reg<LookupState>,
    fit_value: Reg<u16>,
    fit_valid: Reg<bool>,
}

impl LookupFem {
    /// ROM whose word at address `c` is `f(c)`, computed on read: a
    /// 16-bit module, addressed by the low half of the candidate bus.
    pub fn from_fn(f: impl Fn(u16) -> u16 + Send + Sync + 'static) -> Self {
        Self::from_fn32(move |c| f(c as u16))
    }

    /// [`LookupFem::from_fn`] addressed by the whole 32-bit candidate
    /// bus: the shared fitness module of the 32-bit GA (Fig. 6).
    pub fn from_fn32(f: impl Fn(u32) -> u16 + Send + Sync + 'static) -> Self {
        LookupFem {
            read: Arc::new(f),
            dout: Reg::default(),
            state: Reg::default(),
            fit_value: Reg::default(),
            fit_valid: Reg::default(),
        }
    }

    /// Build from a tabulated ROM image.
    pub fn new(image: FitnessRom) -> Self {
        Self::from_fn(move |c| image.lookup(c))
    }

    /// ROM holding one of the paper functions.
    pub fn for_function(f: TestFunction) -> Self {
        Self::from_fn(move |c| f.eval_u16(c))
    }

    /// Block-RAM cost of this FEM on the xc2vp30 (Table VI row 4): one
    /// 16-bit word per 16-bit encoding.
    pub fn bram_cost(&self) -> u32 {
        crate::rom::bram16_count(1 << 16, 16)
    }

    /// Edges from the first one that sees a request to the one that
    /// raises `fit_valid`: edge 1 registers the ROM word (`Fetch`), edge
    /// 2 presents it with `fit_valid` (`Hold`).
    pub const ANSWER_EDGES: u64 = 2;
}

/// A block ROM that [`FemBank::answering`] found idle in a quiescent
/// bank, ready to answer a run window's fitness requests in one call.
pub struct RomAnswer<'a>(&'a mut LookupFem);

impl RomAnswer<'_> {
    /// The requester raises `fit_request` with each of `candidates` in
    /// turn, holds it until it samples `fit_valid`, and drops it for one
    /// release edge. This reads each candidate's word once into
    /// `values`, in order, and leaves every register as the last release
    /// edge leaves it. The ROM holds its registers while the request
    /// stays high, so the requester's latch cycles change nothing in it.
    pub fn answer(self, candidates: impl IntoIterator<Item = u32>, values: &mut Vec<u16>) {
        let rom = self.0;
        values.clear();
        values.extend(candidates.into_iter().map(|c| (rom.read)(c)));
        if let Some(&word) = values.last() {
            rom.dout.reset_to(word);
            rom.fit_value.reset_to(word);
            rom.fit_valid.reset_to(false);
            rom.state.reset_to(LookupState::Idle);
        }
    }
}

impl fmt::Debug for LookupFem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LookupFem")
            .field("dout", &self.dout)
            .field("state", &self.state)
            .field("fit_value", &self.fit_value)
            .field("fit_valid", &self.fit_valid)
            .finish_non_exhaustive()
    }
}

impl Clocked for LookupFem {
    fn reset(&mut self) {
        self.dout.reset_to(0);
        self.state.reset_to(LookupState::Idle);
        self.fit_value.reset_to(0);
        self.fit_valid.reset_to(false);
    }

    #[inline]
    fn commit(&mut self) {
        self.dout.commit();
        self.state.commit();
        self.fit_value.commit();
        self.fit_valid.commit();
    }
}

impl Fem for LookupFem {
    #[inline]
    fn eval(&mut self, i: FemIn) {
        match self.state.get() {
            LookupState::Idle => {
                if i.fit_request {
                    self.dout.set((self.read)(i.candidate));
                    self.state.set(LookupState::Fetch);
                }
            }
            LookupState::Fetch => {
                self.fit_value.set(self.dout.get());
                self.fit_valid.set(true);
                self.state.set(LookupState::Hold);
            }
            LookupState::Hold => {
                if !i.fit_request {
                    self.fit_valid.set(false);
                    self.state.set(LookupState::Idle);
                }
            }
        }
    }

    #[inline]
    fn out(&self) -> FemOut {
        FemOut {
            fit_value: self.fit_value.get(),
            fit_valid: self.fit_valid.get(),
        }
    }

    #[inline]
    fn quiescent(&self) -> bool {
        self.state.get() == LookupState::Idle && !self.fit_valid.get()
    }
}

// ---------------------------------------------------------------------
// CORDIC FEM
// ---------------------------------------------------------------------

/// Cycles an iterative CORDIC evaluation occupies: argument reduction
/// (2) + 30 micro-rotations + scale/accumulate (2). Two-variable
/// functions run their sine/cosine evaluations back to back.
pub fn cordic_latency(f: TestFunction) -> u32 {
    match f {
        TestFunction::F2 | TestFunction::F3 => 2,
        TestFunction::Bf6 | TestFunction::Mbf6_2 => 34,
        TestFunction::Mbf7_2 => 2 * 34 + 2,
        // Ten cosines (five per variable) plus the product/scale stage.
        TestFunction::MShubert2D => 10 * 34 + 4,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CordicState {
    #[default]
    Idle,
    Busy,
    Hold,
}

/// Iterative fixed-point FEM. The datapath result is computed with the
/// bit-exact [`crate::fixed`] kernels; the FSM occupies the same number
/// of cycles the sequential hardware would (transaction-level timing,
/// bit-true data).
#[derive(Debug, Clone)]
pub struct CordicFem {
    function: TestFunction,
    state: Reg<CordicState>,
    countdown: Reg<u32>,
    fit_value: Reg<u16>,
    fit_valid: Reg<bool>,
}

impl CordicFem {
    /// A CORDIC FEM evaluating `function`.
    pub fn new(function: TestFunction) -> Self {
        CordicFem {
            function,
            state: Reg::default(),
            countdown: Reg::default(),
            fit_value: Reg::default(),
            fit_valid: Reg::default(),
        }
    }

    /// The function this FEM evaluates.
    pub fn function(&self) -> TestFunction {
        self.function
    }
}

impl Clocked for CordicFem {
    fn reset(&mut self) {
        self.state.reset_to(CordicState::Idle);
        self.countdown.reset_to(0);
        self.fit_value.reset_to(0);
        self.fit_valid.reset_to(false);
    }

    fn commit(&mut self) {
        self.state.commit();
        self.countdown.commit();
        self.fit_value.commit();
        self.fit_valid.commit();
    }
}

impl Fem for CordicFem {
    fn eval(&mut self, i: FemIn) {
        match self.state.get() {
            CordicState::Idle => {
                if i.fit_request {
                    self.countdown.set(cordic_latency(self.function));
                    // Latch the datapath result now; it is presented when
                    // the iteration counter expires.
                    self.fit_value
                        .set(fixed::eval_fixed(self.function, i.candidate as u16));
                    self.state.set(CordicState::Busy);
                }
            }
            CordicState::Busy => {
                let c = self.countdown.get();
                if c <= 1 {
                    self.fit_valid.set(true);
                    self.state.set(CordicState::Hold);
                } else {
                    self.countdown.set(c - 1);
                }
            }
            CordicState::Hold => {
                if !i.fit_request {
                    self.fit_valid.set(false);
                    self.state.set(CordicState::Idle);
                }
            }
        }
    }

    fn out(&self) -> FemOut {
        FemOut {
            fit_value: self.fit_value.get(),
            fit_valid: self.fit_valid.get(),
        }
    }

    fn quiescent(&self) -> bool {
        self.state.get() == CordicState::Idle && !self.fit_valid.get()
    }
}

// ---------------------------------------------------------------------
// Interconnect latency wrapper (the §II-D EHW classes)
// ---------------------------------------------------------------------

/// Wraps any FEM behind an interconnect with `delay` cycles in each
/// direction — the knob that turns a *complete intrinsic* EHW system
/// (delay 0, intra-chip wires) into a *multichip* (a few cycles of
/// inter-chip I/O) or *multiboard* one (tens of cycles over connectors
/// and cables). §II-D: "the performance of this system is worse than
/// the complete intrinsic EHW, as the communication delays are due to
/// inter-chip wires."
#[derive(Debug, Clone)]
pub struct LatencyFem<F: Fem> {
    inner: F,
    delay: u32,
    /// Pipeline of (cycles-remaining, payload) for the request path.
    req_pipe: Reg<u32>,
    req_live: Reg<bool>,
    req_cand: Reg<u32>,
    /// Delay counter for the response path.
    rsp_pipe: Reg<u32>,
    rsp_live: Reg<bool>,
    rsp_val: Reg<u16>,
    out_valid: Reg<bool>,
    out_value: Reg<u16>,
}

impl<F: Fem> LatencyFem<F> {
    /// Wrap `inner` behind `delay` cycles of wire each way.
    pub fn new(inner: F, delay: u32) -> Self {
        LatencyFem {
            inner,
            delay,
            req_pipe: Reg::default(),
            req_live: Reg::default(),
            req_cand: Reg::default(),
            rsp_pipe: Reg::default(),
            rsp_live: Reg::default(),
            rsp_val: Reg::default(),
            out_valid: Reg::default(),
            out_value: Reg::default(),
        }
    }

    /// The configured one-way delay.
    pub fn delay(&self) -> u32 {
        self.delay
    }
}

impl<F: Fem> Clocked for LatencyFem<F> {
    fn reset(&mut self) {
        self.inner.reset();
        self.req_pipe.reset_to(0);
        self.req_live.reset_to(false);
        self.req_cand.reset_to(0);
        self.rsp_pipe.reset_to(0);
        self.rsp_live.reset_to(false);
        self.rsp_val.reset_to(0);
        self.out_valid.reset_to(false);
        self.out_value.reset_to(0);
    }

    fn commit(&mut self) {
        self.inner.commit();
        self.req_pipe.commit();
        self.req_live.commit();
        self.req_cand.commit();
        self.rsp_pipe.commit();
        self.rsp_live.commit();
        self.rsp_val.commit();
        self.out_valid.commit();
        self.out_value.commit();
    }
}

impl<F: Fem> Fem for LatencyFem<F> {
    fn eval(&mut self, i: FemIn) {
        // --- request path: level-delay the request by `delay` cycles ---
        if i.fit_request && !self.req_live.get() {
            if self.req_pipe.get() >= self.delay {
                self.req_live.set(true);
            } else {
                self.req_pipe.set(self.req_pipe.get() + 1);
            }
            // The candidate bus is held stable by the handshake for the
            // whole transaction, so the delayed copy equals the live one.
            self.req_cand.set(i.candidate);
        }
        if !i.fit_request {
            self.req_live.set(false);
            self.req_pipe.set(0);
        }

        // --- the far-end module --------------------------------------
        let far_req = self.req_live.get();
        self.inner.eval(FemIn {
            fit_request: far_req,
            candidate: self.req_cand.get(),
        });
        let far = self.inner.out();

        // --- response path --------------------------------------------
        // Gate on req_live: the far module's valid can linger from the
        // previous transaction while a new request is already rising.
        if far.fit_valid && self.req_live.get() && !self.rsp_live.get() {
            if self.rsp_pipe.get() >= self.delay {
                self.rsp_live.set(true);
                self.out_valid.set(true);
                // The far module holds fit_value until its request
                // drops, so the live value equals the delayed copy.
                self.out_value.set(far.fit_value);
            } else {
                self.rsp_pipe.set(self.rsp_pipe.get() + 1);
                self.rsp_val.set(far.fit_value);
            }
        }
        if !i.fit_request && self.rsp_live.get() {
            self.out_valid.set(false);
            self.rsp_live.set(false);
            self.rsp_pipe.set(0);
        }
    }

    fn out(&self) -> FemOut {
        FemOut {
            fit_value: self.out_value.get(),
            fit_valid: self.out_valid.get(),
        }
    }
}

// ---------------------------------------------------------------------
// The 8-slot FEM bank
// ---------------------------------------------------------------------

/// One of the eight selectable fitness-function slots.
#[derive(Debug, Clone)]
pub enum FemSlot {
    /// Internal block-ROM lookup module (synthesized with the core).
    Lookup(LookupFem),
    /// Internal iterative CORDIC module.
    Cordic(CordicFem),
    /// External module: the handshake is routed through the
    /// `fit_value_ext`/`fit_valid_ext` ports to another chip or board.
    External,
    /// Unpopulated slot. Requests to an empty slot answer fitness 0
    /// after one cycle so a misconfigured `fitfunc_select` cannot
    /// deadlock the core.
    Empty,
}

/// Extended input bundle for the bank (adds the select and external
/// ports of Table II).
#[derive(Debug, Clone, Copy, Default)]
pub struct FemBankIn {
    /// GA core's fitness request.
    pub fit_request: bool,
    /// The `candidate` bus ([`FemIn::candidate`]).
    pub candidate: u32,
    /// 3-bit fitness module select (`fitfunc_Select`, Table II #23).
    pub select: u8,
    /// Fitness value from the external FEM (Table II #24).
    pub ext_value: u16,
    /// Valid strobe from the external FEM (Table II #25).
    pub ext_valid: bool,
}

/// The multiplexed bank of up to eight fitness modules. A select past
/// the last slot given reads as [`FemSlot::Empty`].
#[derive(Debug, Clone)]
pub struct FemBank {
    slots: Vec<FemSlot>,
    /// Registered request forwarded to the external FEM when an
    /// External slot is selected.
    ext_request: Reg<bool>,
    /// Registered outputs for the Empty-slot fallback path.
    empty_valid: Reg<bool>,
}

impl FemBank {
    /// Build a bank; at most eight slots (3-bit select).
    pub fn new(slots: Vec<FemSlot>) -> Self {
        assert!(
            slots.len() <= 8,
            "the select bus is 3 bits: at most 8 slots"
        );
        FemBank {
            slots,
            ext_request: Reg::default(),
            empty_valid: Reg::default(),
        }
    }

    /// The slot behind `select`.
    #[inline]
    fn slot(&self, select: u8) -> &FemSlot {
        self.slots
            .get(usize::from(select & 0x7))
            .unwrap_or(&FemSlot::Empty)
    }

    /// The request line routed to the external fitness module.
    #[inline]
    pub fn ext_request(&self) -> bool {
        self.ext_request.get()
    }

    /// Evaluation phase.
    #[inline]
    pub fn eval(&mut self, i: FemBankIn) {
        let sel = (i.select & 0x7) as usize;
        let inner = FemIn {
            fit_request: i.fit_request,
            candidate: i.candidate,
        };
        // Non-selected internal slots see a deasserted request so they
        // drain any in-flight handshake and go idle.
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let active = idx == sel;
            let slot_in = if active {
                inner
            } else {
                FemIn {
                    fit_request: false,
                    candidate: 0,
                }
            };
            match slot {
                FemSlot::Lookup(f) => f.eval(slot_in),
                FemSlot::Cordic(f) => f.eval(slot_in),
                FemSlot::External | FemSlot::Empty => {}
            }
        }
        // External routing and the empty-slot fallback.
        match self.slot(i.select) {
            FemSlot::External => {
                self.ext_request.set(i.fit_request);
                self.empty_valid.set(false);
            }
            FemSlot::Empty => {
                self.ext_request.set(false);
                self.empty_valid.set(i.fit_request);
            }
            _ => {
                self.ext_request.set(false);
                self.empty_valid.set(false);
            }
        }
    }

    /// True when a cycle with `fit_request` low changes nothing in the
    /// bank: every internal module is [`Fem::quiescent`] and neither
    /// the external request nor the empty-slot strobe is raised.
    #[inline]
    pub fn quiescent(&self) -> bool {
        !self.ext_request.get()
            && !self.empty_valid.get()
            && self.slots.iter().all(|slot| match slot {
                FemSlot::Lookup(f) => f.quiescent(),
                FemSlot::Cordic(f) => f.quiescent(),
                FemSlot::External | FemSlot::Empty => true,
            })
    }

    /// The block ROM that answers a run window's fitness requests in one
    /// call ([`RomAnswer::answer`]): the module behind `select` when the
    /// bank is [`FemBank::quiescent`], the module is a block ROM, which
    /// raises `fit_valid` a fixed [`LookupFem::ANSWER_EDGES`] after the
    /// first edge that sees a request, and that number is at most
    /// `max_edges`. Otherwise `None`: the external and empty slots and
    /// every other module keep single steps. Asking changes nothing.
    pub fn answering(&mut self, select: u8, max_edges: u64) -> Option<RomAnswer<'_>> {
        if !self.quiescent() || max_edges < LookupFem::ANSWER_EDGES {
            return None;
        }
        match self.slots.get_mut(usize::from(select & 0x7)) {
            Some(FemSlot::Lookup(f)) => Some(RomAnswer(f)),
            _ => None,
        }
    }

    /// Registered outputs, multiplexed by the current select value.
    #[inline]
    pub fn out(&self, select: u8, ext_value: u16, ext_valid: bool) -> FemOut {
        match self.slot(select) {
            FemSlot::Lookup(f) => f.out(),
            FemSlot::Cordic(f) => f.out(),
            FemSlot::External => FemOut {
                fit_value: ext_value,
                fit_valid: ext_valid,
            },
            FemSlot::Empty => FemOut {
                fit_value: 0,
                fit_valid: self.empty_valid.get(),
            },
        }
    }
}

impl Clocked for FemBank {
    fn reset(&mut self) {
        for slot in &mut self.slots {
            match slot {
                FemSlot::Lookup(f) => f.reset(),
                FemSlot::Cordic(f) => f.reset(),
                _ => {}
            }
        }
        self.ext_request.reset_to(false);
        self.empty_valid.reset_to(false);
    }

    #[inline]
    fn commit(&mut self) {
        for slot in &mut self.slots {
            match slot {
                FemSlot::Lookup(f) => f.commit(),
                FemSlot::Cordic(f) => f.commit(),
                _ => {}
            }
        }
        self.ext_request.commit();
        self.empty_valid.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one handshake transaction against a FEM; returns
    /// (fitness, cycles from request-high to valid-high).
    fn transact(fem: &mut impl Fem, candidate: u16) -> (u16, u32) {
        let mut cycles = 0;
        let mut result = None;
        // Raise the request and hold until valid.
        for _ in 0..2000 {
            fem.eval(FemIn {
                fit_request: true,
                candidate: candidate.into(),
            });
            fem.commit();
            cycles += 1;
            let o = fem.out();
            if o.fit_valid {
                result = Some(o.fit_value);
                break;
            }
        }
        let fitness = result.expect("FEM never asserted fit_valid");
        // Drop the request; FEM must drop valid.
        for _ in 0..10 {
            fem.eval(FemIn {
                fit_request: false,
                candidate: 0,
            });
            fem.commit();
            if !fem.out().fit_valid {
                return (fitness, cycles);
            }
        }
        panic!("FEM never deasserted fit_valid");
    }

    #[test]
    fn lookup_fem_returns_rom_value() {
        let mut fem = LookupFem::for_function(TestFunction::F3);
        fem.reset();
        for c in [0u16, 0xFFFF, 0x1234, 0x8000] {
            let (fit, _) = transact(&mut fem, c);
            assert_eq!(fit, TestFunction::F3.eval_u16(c));
        }
    }

    #[test]
    fn lookup_fem_latency_is_three_cycles() {
        let mut fem = LookupFem::for_function(TestFunction::F2);
        fem.reset();
        let (_, cycles) = transact(&mut fem, 0xFF00);
        // Edge 1 registers the ROM address; edge 2 registers data +
        // valid. Synchronous block ROM cannot answer faster.
        assert_eq!(cycles, 2, "address edge + data/valid edge");
    }

    #[test]
    fn cordic_fem_matches_lookup_within_one() {
        let mut cordic = CordicFem::new(TestFunction::Mbf6_2);
        cordic.reset();
        for c in [0u16, 65521, 12345, 0xABCD] {
            let (fit, cycles) = transact(&mut cordic, c);
            let ref_fit = TestFunction::Mbf6_2.eval_u16(c);
            assert!((fit as i32 - ref_fit as i32).abs() <= 1);
            assert!(cycles > 30, "CORDIC must be slower than lookup: {cycles}");
        }
    }

    #[test]
    fn cordic_slower_than_lookup_as_paper_observed() {
        let mut lk = LookupFem::for_function(TestFunction::MShubert2D);
        let mut cd = CordicFem::new(TestFunction::MShubert2D);
        lk.reset();
        cd.reset();
        let (_, c_lookup) = transact(&mut lk, 0xC24A);
        let (_, c_cordic) = transact(&mut cd, 0xC24A);
        assert!(c_cordic > 10 * c_lookup);
    }

    #[test]
    fn fems_are_quiescent_only_between_transactions() {
        let mut lk = LookupFem::for_function(TestFunction::F3);
        let mut cd = CordicFem::new(TestFunction::F3);
        let mut bank = FemBank::new(vec![FemSlot::Lookup(lk.clone()), FemSlot::Empty]);
        for fem in [&mut lk as &mut dyn Fem, &mut cd] {
            fem.reset();
            assert!(fem.quiescent());
            fem.eval(FemIn {
                fit_request: true,
                candidate: 7,
            });
            fem.commit();
            assert!(!fem.quiescent(), "busy mid-transaction");
        }
        transact(&mut lk, 7);
        transact(&mut cd, 7);
        assert!(
            lk.quiescent() && cd.quiescent(),
            "idle again after the handshake"
        );
        // The empty-slot strobe counts as activity in the bank.
        bank.reset();
        assert!(bank.quiescent());
        bank.eval(FemBankIn {
            fit_request: true,
            select: 1,
            ..Default::default()
        });
        bank.commit();
        assert!(!bank.quiescent());
    }

    /// A bank with the block ROM in slot 0, beside the modules that keep
    /// single steps.
    fn mixed_bank() -> FemBank {
        let mut bank = FemBank::new(vec![
            FemSlot::Lookup(LookupFem::for_function(TestFunction::F3)),
            FemSlot::Cordic(CordicFem::new(TestFunction::F3)),
            FemSlot::External,
            FemSlot::Lookup(LookupFem::for_function(TestFunction::F2)),
        ]);
        bank.reset();
        bank
    }

    /// One handshake on `bank`'s `select` slot, stepped: the request
    /// edges up to `fit_valid`, the requester's latch edge with the
    /// request still high, and the release edge. Returns the word and
    /// the edges from the first request edge to `fit_valid`.
    fn stepped_handshake(bank: &mut FemBank, select: u8, candidate: u32) -> (u16, u64) {
        let edge = |bank: &mut FemBank, fit_request| {
            bank.eval(FemBankIn {
                fit_request,
                candidate,
                select,
                ..Default::default()
            });
            bank.commit();
        };
        let mut edges = 0;
        while !bank.out(select, 0, false).fit_valid {
            edge(bank, true);
            edges += 1;
        }
        let word = bank.out(select, 0, false).fit_value;
        edge(bank, true);
        edge(bank, false);
        (word, edges)
    }

    #[test]
    fn one_answer_call_matches_stepped_handshakes() {
        let candidates = [0x1234, 0, 0xFFFF, 0x8000, 0x1234];
        for k in 0..=candidates.len() {
            let mut stepped = mixed_bank();
            let mut words = Vec::new();
            let mut edges = 2;
            for &c in &candidates[..k] {
                let (word, e) = stepped_handshake(&mut stepped, 0, c);
                words.push(word);
                edges = e;
            }
            let mut called = mixed_bank();
            let mut values = vec![7; 9];
            let rom = called.answering(0, u64::MAX).expect("an idle block ROM");
            rom.answer(candidates[..k].iter().copied(), &mut values);
            assert_eq!(LookupFem::ANSWER_EDGES, edges, "{k} candidates");
            assert_eq!(values, words, "{k} candidates");
            assert_eq!(
                format!("{called:?}"),
                format!("{stepped:?}"),
                "{k} candidates"
            );
        }
    }

    #[test]
    fn bank_answers_only_from_an_idle_block_rom() {
        let mut values = Vec::new();
        let mut answer = |bank: &mut FemBank, select, max_edges| {
            let before = format!("{bank:?}");
            let got = bank.answering(select, max_edges).map(|rom| {
                rom.answer([7, 9], &mut values);
                LookupFem::ANSWER_EDGES
            });
            if got.is_none() {
                assert_eq!(format!("{bank:?}"), before, "a refusal changes nothing");
            }
            got
        };
        assert_eq!(answer(&mut mixed_bank(), 0, u64::MAX), Some(2));
        assert_eq!(answer(&mut mixed_bank(), 0, 2), Some(2));
        assert_eq!(answer(&mut mixed_bank(), 0, 1), None, "window too short");
        // The CORDIC, external and empty slots keep single steps.
        for select in [1, 2, 4] {
            assert_eq!(
                answer(&mut mixed_bank(), select, u64::MAX),
                None,
                "slot {select}"
            );
        }
        // An unselected slot still draining its handshake would change
        // on the skipped edges, and so would the ROM mid-transaction.
        for busy_slot in [1, 0] {
            let mut busy = mixed_bank();
            busy.eval(FemBankIn {
                fit_request: true,
                candidate: 7,
                select: busy_slot,
                ..Default::default()
            });
            busy.commit();
            assert_eq!(
                answer(&mut busy, 0, u64::MAX),
                None,
                "slot {busy_slot} busy"
            );
        }
    }

    #[test]
    fn bank_switches_functions_without_resynthesis() {
        let mut bank = FemBank::new(vec![
            FemSlot::Lookup(LookupFem::for_function(TestFunction::F2)),
            FemSlot::Lookup(LookupFem::for_function(TestFunction::F3)),
        ]);
        bank.reset();
        let run = |bank: &mut FemBank, select: u8, cand: u16| -> u16 {
            for _ in 0..50 {
                bank.eval(FemBankIn {
                    fit_request: true,
                    candidate: cand.into(),
                    select,
                    ext_value: 0,
                    ext_valid: false,
                });
                bank.commit();
                let o = bank.out(select, 0, false);
                if o.fit_valid {
                    // Drain.
                    for _ in 0..10 {
                        bank.eval(FemBankIn::default());
                        bank.commit();
                        if !bank.out(select, 0, false).fit_valid {
                            break;
                        }
                    }
                    return o.fit_value;
                }
            }
            panic!("bank never answered");
        };
        let c = 0x80FF; // x=128, y=255
        assert_eq!(run(&mut bank, 0, c), TestFunction::F2.eval_u16(c));
        assert_eq!(run(&mut bank, 1, c), TestFunction::F3.eval_u16(c));
    }

    #[test]
    fn external_slot_routes_handshake() {
        let mut bank = FemBank::new(vec![FemSlot::External]);
        bank.reset();
        bank.eval(FemBankIn {
            fit_request: true,
            candidate: 7,
            select: 0,
            ext_value: 0,
            ext_valid: false,
        });
        bank.commit();
        assert!(bank.ext_request(), "request must be forwarded off-chip");
        // External module answers: outputs mirror the ext ports.
        let o = bank.out(0, 4242, true);
        assert_eq!(
            o,
            FemOut {
                fit_value: 4242,
                fit_valid: true
            }
        );
    }

    #[test]
    fn empty_slot_answers_zero_not_deadlock() {
        let mut bank = FemBank::new(vec![]);
        bank.reset();
        for _ in 0..3 {
            bank.eval(FemBankIn {
                fit_request: true,
                candidate: 1,
                select: 5,
                ext_value: 0,
                ext_valid: false,
            });
            bank.commit();
        }
        let o = bank.out(5, 0, false);
        assert!(o.fit_valid);
        assert_eq!(o.fit_value, 0);
    }

    #[test]
    #[should_panic]
    fn more_than_eight_slots_rejected() {
        let _ = FemBank::new((0..9).map(|_| FemSlot::Empty).collect());
    }

    #[test]
    fn latency_fem_returns_correct_values() {
        for delay in [0u32, 1, 4, 16] {
            let mut fem = LatencyFem::new(LookupFem::for_function(TestFunction::F3), delay);
            fem.reset();
            for c in [0u16, 0xFFFF, 0x1234] {
                let (fit, _) = transact(&mut fem, c);
                assert_eq!(
                    fit,
                    TestFunction::F3.eval_u16(c),
                    "delay {delay} cand {c:#06x}"
                );
            }
        }
    }

    #[test]
    fn latency_fem_cost_grows_with_delay() {
        let time = |delay: u32| -> u32 {
            let mut fem = LatencyFem::new(LookupFem::for_function(TestFunction::F2), delay);
            fem.reset();
            transact(&mut fem, 0x1234).1
        };
        let complete = time(0);
        let multichip = time(4);
        let multiboard = time(40);
        assert!(multichip > complete);
        assert!(
            multiboard > multichip + 60,
            "two-way 40-cycle wire: {multiboard} vs {multichip}"
        );
    }

    #[test]
    fn latency_fem_back_to_back_transactions() {
        let mut fem = LatencyFem::new(LookupFem::for_function(TestFunction::F3), 3);
        fem.reset();
        for c in 0..20u16 {
            let (fit, _) = transact(&mut fem, c * 37);
            assert_eq!(fit, TestFunction::F3.eval_u16(c * 37));
        }
    }
}
