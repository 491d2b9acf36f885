//! Compiled word-level netlist simulation.
//!
//! [`Netlist::eval_comb`](crate::netlist::Netlist::eval_comb) is the
//! reference interpreter: it re-validates (a full Kahn sort) on every
//! call, allocates a fresh value vector, and looks inputs up through
//! `HashMap`s. That is fine for unit tests and hopeless for sweeps — a
//! Table VII grid steps the sequential model millions of times.
//!
//! [`CompiledNetlist`] does the expensive work **once**: validation,
//! topological ordering, and flattening of the gate graph into a dense
//! instruction stream (`out ← op(a, b, c)` over plain array indices —
//! no hashing, no per-call allocation). [`BitSimW`] then evaluates that
//! stream over `W` `u64` **words per net**, which is the classic
//! word-level logic-simulation trick: every Boolean gate is a bitwise
//! instruction, so one pass through the gate array advances **64·W
//! independent simulation lanes** at once (64·W seeds, grid cells,
//! stimulus streams). Lane *k* lives in bit `k % 64` of word `k / 64`
//! of every net, and is a complete, independent simulation — the
//! software analogue of the full-population parallelism Torquato &
//! Fernandes get from replicated hardware. `W` is a const generic, so
//! each width compiles to straight-line word ops the autovectorizer can
//! fuse ([u64; 4] is one AVX2/AVX-512 lane-slice per gate).
//!
//! [`BitSim`] is the `W = 1` (64-lane) case and keeps the original
//! scalar-word API (`net`/`set_net`/`lane_mask` over a bare `u64`). A
//! scalar caller simply uses lane 0 (the compiled scalar fast path);
//! [`CompiledNetlist::eval_comb`] / [`CompiledNetlist::step_seq`] are
//! drop-in equivalents of the `Netlist` methods for existing
//! testbenches.

use crate::error::SynthError;
use crate::netlist::{GateKind, NetId, Netlist, RegCell};
use crate::tern::Tern;
use std::collections::HashMap;

/// Word-level opcode: only gates with inputs become instructions;
/// sources (constants, inputs, register Q pins) are plain state words.
/// Public so static analyses (`galint`'s dataflow passes) can walk the
/// compiled instruction stream instead of re-deriving the gate graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// `out = a`
    Buf,
    /// `out = !a`
    Inv,
    /// `out = a & b`
    And,
    /// `out = a | b`
    Or,
    /// `out = a ^ b`
    Xor,
    /// `out = !(a & b)`
    Nand,
    /// `out = !(a | b)`
    Nor,
    /// `out = (a & b) | (!a & c)` — CarryMux with `a` as select.
    Mux,
}

/// One compiled gate: output slot plus up to three input slots, all
/// dense indices into the per-net state array. Unused input slots read
/// net 0 and are ignored by the opcode.
#[derive(Debug, Clone, Copy)]
pub struct CompiledOp {
    /// Opcode.
    pub kind: OpKind,
    /// Output net.
    pub out: u32,
    /// First input net (the select, for [`OpKind::Mux`]).
    pub a: u32,
    /// Second input net (the select-high leg, for [`OpKind::Mux`]).
    pub b: u32,
    /// Third input net (the select-low leg, for [`OpKind::Mux`]).
    pub c: u32,
}

/// A netlist compiled for repeated simulation: validated once, with the
/// topological order baked into a flat instruction stream and every
/// source net classified up front.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    ops: Vec<CompiledOp>,
    n_nets: usize,
    regs: Vec<RegCell>,
    /// Nets that must read constant one (constant zero is the reset
    /// value of the state array, so only ones need baking).
    const_ones: Vec<NetId>,
    /// Nets that read constant zero. Never written at runtime; kept so
    /// [`CompiledNetlist::specialize`] can fold through them.
    const_zeros: Vec<NetId>,
    inputs: Vec<(String, Vec<NetId>)>,
    outputs: Vec<(String, Vec<NetId>)>,
}

impl CompiledNetlist {
    /// Validate and compile. All structural errors surface here, so the
    /// per-cycle hot path is panic- and `Result`-free.
    pub fn compile(nl: &Netlist) -> Result<Self, SynthError> {
        let order = nl.validate()?;
        let mut ops = Vec::with_capacity(nl.gates.len());
        let mut const_ones = Vec::new();
        let mut const_zeros = Vec::new();
        for &id in &order {
            let g = &nl.gates[id as usize];
            let kind = match g.kind {
                GateKind::Input | GateKind::RegQ => continue,
                GateKind::Const0 => {
                    const_zeros.push(id);
                    continue;
                }
                GateKind::Const1 => {
                    const_ones.push(id);
                    continue;
                }
                GateKind::Buf => OpKind::Buf,
                GateKind::Inv => OpKind::Inv,
                GateKind::And2 => OpKind::And,
                GateKind::Or2 => OpKind::Or,
                GateKind::Xor2 => OpKind::Xor,
                GateKind::Nand2 => OpKind::Nand,
                GateKind::Nor2 => OpKind::Nor,
                GateKind::CarryMux => OpKind::Mux,
            };
            let pin = |i: usize| g.inputs.get(i).copied().unwrap_or(0);
            ops.push(CompiledOp {
                kind,
                out: id,
                a: pin(0),
                b: pin(1),
                c: pin(2),
            });
        }
        Ok(CompiledNetlist {
            ops,
            n_nets: nl.gates.len(),
            regs: nl.regs.clone(),
            const_ones,
            const_zeros,
            inputs: nl.inputs.clone(),
            outputs: nl.outputs.clone(),
        })
    }

    /// Number of nets (state-array length).
    pub fn n_nets(&self) -> usize {
        self.n_nets
    }

    /// Instructions executed per combinational pass (the logic gates;
    /// sources cost nothing at runtime).
    pub fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    /// Flip-flop count.
    pub fn ff_count(&self) -> usize {
        self.regs.len()
    }

    /// The compiled scan registers, in scan-chain order (index =
    /// fault-injection site ID for [`crate::fault::FaultInjector`]).
    pub fn regs(&self) -> &[RegCell] {
        &self.regs
    }

    /// Look up a named input bus (LSB first), resolved at compile time.
    pub fn input_bus(&self, name: &str) -> Option<&[NetId]> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Look up a named output bus (LSB first).
    pub fn output_bus(&self, name: &str) -> Option<&[NetId]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// The compiled instruction stream, in topological order. Static
    /// analyses walk this to get the gate graph with validation and
    /// ordering already done.
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// All named input buses, in declaration order.
    pub fn inputs(&self) -> &[(String, Vec<NetId>)] {
        &self.inputs
    }

    /// All named output buses, in declaration order.
    pub fn outputs(&self) -> &[(String, Vec<NetId>)] {
        &self.outputs
    }

    /// Fresh ternary state vector matching [`CompiledNetlist::sim`]'s
    /// reset semantics: every net `Zero`, constant-one sources baked to
    /// `One`. Callers then drive inputs/registers before evaluating.
    pub fn tern_state(&self) -> Vec<Tern> {
        let mut state = vec![Tern::Zero; self.n_nets];
        for &id in &self.const_ones {
            state[id as usize] = Tern::One;
        }
        state
    }

    /// One ternary combinational pass: the abstract-interpretation
    /// analogue of [`BitSimW::eval_comb`] — every logic gate once, in
    /// topological order, over the [`Tern`] domain. Because each gate
    /// op is a sound abstraction of its Boolean counterpart, a concrete
    /// evaluation from covered sources is covered on every net.
    pub fn eval_comb_tern(&self, state: &mut [Tern]) {
        debug_assert_eq!(state.len(), self.n_nets);
        for op in &self.ops {
            let a = state[op.a as usize];
            let v = match op.kind {
                OpKind::Buf => a,
                OpKind::Inv => a.not(),
                OpKind::And => a.and(state[op.b as usize]),
                OpKind::Or => a.or(state[op.b as usize]),
                OpKind::Xor => a.xor(state[op.b as usize]),
                OpKind::Nand => a.and(state[op.b as usize]).not(),
                OpKind::Nor => a.or(state[op.b as usize]).not(),
                OpKind::Mux => Tern::mux(a, state[op.b as usize], state[op.c as usize]),
            };
            state[op.out as usize] = v;
        }
    }

    /// Fresh simulation state bound to this compiled netlist, at any
    /// lane width: `W` words per net, `64·W` lanes per pass.
    pub fn sim_wide<const W: usize>(&self) -> BitSimW<'_, W> {
        let mut vals = vec![[0u64; W]; self.n_nets];
        for &id in &self.const_ones {
            vals[id as usize] = [u64::MAX; W];
        }
        BitSimW {
            cn: self,
            vals,
            latch: vec![[0u64; W]; self.regs.len()],
        }
    }

    /// Fresh 64-lane simulation state (the `W = 1` case of
    /// [`CompiledNetlist::sim_wide`]).
    pub fn sim(&self) -> BitSim<'_> {
        self.sim_wide::<1>()
    }

    /// Drop-in equivalent of [`Netlist::eval_comb`] on the compiled
    /// netlist (scalar: lane 0). Unmentioned inputs/registers read 0,
    /// exactly like the interpreter.
    pub fn eval_comb(
        &self,
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> Vec<bool> {
        let mut sim = self.sim();
        for (&net, &v) in input_values.iter().chain(reg_values.iter()) {
            sim.set_net(net, v as u64);
        }
        sim.eval_comb();
        (0..self.n_nets as u32)
            .map(|id| sim.lane_bool(id, 0))
            .collect()
    }

    /// Drop-in equivalent of [`Netlist::step_seq`]: evaluate, then
    /// latch every register, returning the new register state.
    pub fn step_seq(
        &self,
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> HashMap<NetId, bool> {
        let vals = self.eval_comb(input_values, reg_values);
        self.regs
            .iter()
            .map(|r| (r.q, vals[r.d as usize]))
            .collect()
    }

    /// The op stream that remains while every `(net, value)` in `ties`
    /// holds — typically a control input parked in one mode. The
    /// result keeps this netlist's net indices, registers, and buses,
    /// so register words carry between a full and a specialised
    /// simulation unchanged. Ops whose output the ties fix are dropped;
    /// their net is baked to the constant instead. Ops that reduce to
    /// an existing net are dropped too, and every reader, register D
    /// pin, and output bit is rewired to that net. The folds are the
    /// ones [`crate::opt::optimize`] makes: AND/OR/XOR with a constant
    /// or with equal inputs, INV of a constant, a mux with a constant
    /// select or equal legs. Like `optimize`, it keeps NAND and NOR as
    /// they are.
    ///
    /// The tied nets read their tie value in every simulation of the
    /// result; driving them otherwise leaves the stream's behaviour
    /// undefined. A dropped alias net holds a stale value — read the
    /// rewired output buses and register Q nets, not internal nets.
    pub fn specialize(&self, ties: &[(NetId, bool)]) -> CompiledNetlist {
        let mut known: Vec<Option<bool>> = vec![None; self.n_nets];
        for &id in &self.const_zeros {
            known[id as usize] = Some(false);
        }
        for &id in &self.const_ones {
            known[id as usize] = Some(true);
        }
        for &(net, v) in ties {
            known[net as usize] = Some(v);
        }
        // repl[n]: the net carrying n's value in the specialised stream.
        let mut repl: Vec<NetId> = (0..self.n_nets as NetId).collect();
        let mut ops = Vec::new();
        for op in &self.ops {
            let (a, b, c) = (
                repl[op.a as usize],
                repl[op.b as usize],
                repl[op.c as usize],
            );
            let (ka, kb) = (known[a as usize], known[b as usize]);
            let folded = match op.kind {
                OpKind::Buf => Fold::Alias(a),
                OpKind::Inv => ka.map_or(Fold::Keep, |v| Fold::Const(!v)),
                OpKind::And => match (ka, kb) {
                    (Some(false), _) | (_, Some(false)) => Fold::Const(false),
                    (Some(true), _) => Fold::Alias(b),
                    (_, Some(true)) => Fold::Alias(a),
                    _ if a == b => Fold::Alias(a),
                    _ => Fold::Keep,
                },
                OpKind::Or => match (ka, kb) {
                    (Some(true), _) | (_, Some(true)) => Fold::Const(true),
                    (Some(false), _) => Fold::Alias(b),
                    (_, Some(false)) => Fold::Alias(a),
                    _ if a == b => Fold::Alias(a),
                    _ => Fold::Keep,
                },
                OpKind::Xor => match (ka, kb) {
                    (Some(x), Some(y)) => Fold::Const(x ^ y),
                    (Some(false), _) => Fold::Alias(b),
                    (_, Some(false)) => Fold::Alias(a),
                    _ if a == b => Fold::Const(false),
                    _ => Fold::Keep,
                },
                OpKind::Nand | OpKind::Nor => Fold::Keep,
                OpKind::Mux => match ka {
                    Some(true) => Fold::Alias(b),
                    Some(false) => Fold::Alias(c),
                    None if b == c => Fold::Alias(b),
                    None => Fold::Keep,
                },
            };
            let out = op.out as usize;
            match folded {
                Fold::Const(v) => known[out] = Some(v),
                Fold::Alias(src) => {
                    repl[out] = src;
                    known[out] = known[src as usize];
                }
                Fold::Keep => ops.push(CompiledOp { a, b, c, ..*op }),
            }
        }
        let split = |want: bool| -> Vec<NetId> {
            (0..self.n_nets as NetId)
                .filter(|&n| known[n as usize] == Some(want))
                .collect()
        };
        CompiledNetlist {
            ops,
            n_nets: self.n_nets,
            regs: self
                .regs
                .iter()
                .map(|r| RegCell {
                    d: repl[r.d as usize],
                    q: r.q,
                })
                .collect(),
            const_ones: split(true),
            const_zeros: split(false),
            inputs: self.inputs.clone(),
            outputs: self
                .outputs
                .iter()
                .map(|(name, bus)| {
                    (
                        name.clone(),
                        bus.iter().map(|&n| repl[n as usize]).collect(),
                    )
                })
                .collect(),
        }
    }
}

/// What [`CompiledNetlist::specialize`] makes of one op under the ties.
enum Fold {
    /// The output is this constant.
    Const(bool),
    /// The output equals this (already rewired) net.
    Alias(NetId),
    /// The op survives, reading rewired inputs.
    Keep,
}

/// Per-word bitwise combinators over `[u64; W]` net words. Plain
/// `from_fn` loops over a const-known `W`: the optimizer unrolls them
/// and fuses adjacent words into SIMD lanes.
#[inline(always)]
fn map1<const W: usize>(a: [u64; W], f: impl Fn(u64) -> u64) -> [u64; W] {
    std::array::from_fn(|i| f(a[i]))
}

#[inline(always)]
fn map2<const W: usize>(a: [u64; W], b: [u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    std::array::from_fn(|i| f(a[i], b[i]))
}

/// Simulation state over a [`CompiledNetlist`]: `W` `u64` words per
/// net, bit `k % 64` of word `k / 64` belonging to independent lane
/// *k*. [`BitSim`] aliases the original 64-lane `W = 1` case.
#[derive(Debug, Clone)]
pub struct BitSimW<'a, const W: usize> {
    cn: &'a CompiledNetlist,
    vals: Vec<[u64; W]>,
    /// Scratch for the register latch (double-buffered so a Q net
    /// feeding another register's D directly latches the *pre-edge*
    /// value, as real flip-flops do).
    latch: Vec<[u64; W]>,
}

/// The original 64-lane simulator: one word per net.
pub type BitSim<'a> = BitSimW<'a, 1>;

impl<const W: usize> BitSimW<'_, W> {
    /// Number of independent simulation lanes in one net's words.
    pub const LANES: usize = 64 * W;

    /// Per-word mask with one bit set per *active* lane (`active` low
    /// lanes). A pack that carries fewer than `64·W` jobs must AND
    /// every per-net observation with this mask so the idle tail lanes
    /// — which sit at the all-zero reset state — can never leak into
    /// results or metrics (the padding-skew fix).
    #[inline]
    pub fn lane_mask_words(active: usize) -> [u64; W] {
        debug_assert!(active <= Self::LANES);
        std::array::from_fn(|w| match active.saturating_sub(w * 64) {
            0 => 0,
            n if n >= 64 => u64::MAX,
            n => (1u64 << n) - 1,
        })
    }

    /// The compiled netlist this state belongs to.
    pub fn compiled(&self) -> &CompiledNetlist {
        self.cn
    }

    /// Raw words of a net (all `64·W` lanes, lane 0 in bit 0 of word 0).
    #[inline]
    pub fn net_words(&self, net: NetId) -> [u64; W] {
        self.vals[net as usize]
    }

    /// Overwrite the words of a source net (input or register Q).
    /// Writing a logic net is allowed but will be recomputed by the
    /// next pass.
    #[inline]
    pub fn set_net_words(&mut self, net: NetId, words: [u64; W]) {
        self.vals[net as usize] = words;
    }

    /// Value of one lane of one net.
    #[inline]
    pub fn lane_bool(&self, net: NetId, lane: usize) -> bool {
        debug_assert!(lane < Self::LANES);
        (self.vals[net as usize][lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Broadcast `value` across **all** lanes of a bus (bit *i* of
    /// `value` drives every lane of `bus[i]`).
    pub fn set_bus_all(&mut self, bus: &[NetId], value: u64) {
        for (i, &net) in bus.iter().enumerate() {
            self.vals[net as usize] = if (value >> i) & 1 == 1 {
                [u64::MAX; W]
            } else {
                [0; W]
            };
        }
    }

    /// Drive `value` onto one lane of a bus, leaving other lanes alone.
    pub fn set_bus_lane(&mut self, bus: &[NetId], lane: usize, value: u64) {
        debug_assert!(lane < Self::LANES);
        let (word, bit) = (lane / 64, 1u64 << (lane % 64));
        for (i, &net) in bus.iter().enumerate() {
            if (value >> i) & 1 == 1 {
                self.vals[net as usize][word] |= bit;
            } else {
                self.vals[net as usize][word] &= !bit;
            }
        }
    }

    /// Read a bus back from one lane (LSB first).
    pub fn bus_lane(&self, bus: &[NetId], lane: usize) -> u64 {
        debug_assert!(lane < Self::LANES);
        let (word, shift) = (lane / 64, lane % 64);
        let mut v = 0u64;
        for (i, &net) in bus.iter().enumerate() {
            v |= ((self.vals[net as usize][word] >> shift) & 1) << i;
        }
        v
    }

    /// One combinational pass: every logic gate once, in topological
    /// order, all `64·W` lanes at a time.
    pub fn eval_comb(&mut self) {
        let vals = &mut self.vals;
        for op in &self.cn.ops {
            let a = vals[op.a as usize];
            let v = match op.kind {
                OpKind::Buf => a,
                OpKind::Inv => map1(a, |a| !a),
                OpKind::And => map2(a, vals[op.b as usize], |a, b| a & b),
                OpKind::Or => map2(a, vals[op.b as usize], |a, b| a | b),
                OpKind::Xor => map2(a, vals[op.b as usize], |a, b| a ^ b),
                OpKind::Nand => map2(a, vals[op.b as usize], |a, b| !(a & b)),
                OpKind::Nor => map2(a, vals[op.b as usize], |a, b| !(a | b)),
                OpKind::Mux => {
                    let (b, c) = (vals[op.b as usize], vals[op.c as usize]);
                    std::array::from_fn(|i| (a[i] & b[i]) | (!a[i] & c[i]))
                }
            };
            vals[op.out as usize] = v;
        }
    }

    /// One clock edge: combinational pass, then latch every register
    /// (`Q ← D`) simultaneously across all lanes.
    pub fn step(&mut self) {
        self.eval_comb();
        for (s, r) in self.latch.iter_mut().zip(&self.cn.regs) {
            *s = self.vals[r.d as usize];
        }
        for (s, r) in self.latch.iter().zip(&self.cn.regs) {
            self.vals[r.q as usize] = *s;
        }
    }
}

impl BitSim<'_> {
    /// Word mask with one bit set per *active* lane — the scalar-word
    /// (`W = 1`) form of [`BitSimW::lane_mask_words`].
    #[inline]
    pub fn lane_mask(active: usize) -> u64 {
        Self::lane_mask_words(active)[0]
    }

    /// Raw word of a net (all 64 lanes).
    #[inline]
    pub fn net(&self, net: NetId) -> u64 {
        self.vals[net as usize][0]
    }

    /// Overwrite the word of a source net (input or register Q). Writing
    /// a logic net is allowed but will be recomputed by the next pass.
    #[inline]
    pub fn set_net(&mut self, net: NetId, word: u64) {
        self.vals[net as usize] = [word];
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::netlist::{Gate, GateKind};

    fn toggle_netlist() -> Netlist {
        // q ← !q, plus a Const1-fed AND to cover constant baking.
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::RegQ,
            inputs: vec![],
        }); // 0 = q
        nl.gates.push(Gate {
            kind: GateKind::Inv,
            inputs: vec![0],
        }); // 1 = d
        nl.gates.push(Gate {
            kind: GateKind::Const1,
            inputs: vec![],
        }); // 2
        nl.gates.push(Gate {
            kind: GateKind::And2,
            inputs: vec![0, 2],
        }); // 3 = q & 1
        nl.regs.push(RegCell { d: 1, q: 0 });
        nl.outputs.push(("y".into(), vec![3]));
        nl
    }

    #[test]
    fn compile_rejects_invalid() {
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![0],
        });
        assert!(matches!(
            CompiledNetlist::compile(&nl),
            Err(SynthError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn scalar_toggle_matches_interpreter() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut state: HashMap<NetId, bool> = [(0u32, false)].into();
        let mut cstate = state.clone();
        for _ in 0..8 {
            state = nl.step_seq(&HashMap::new(), &state);
            cstate = cn.step_seq(&HashMap::new(), &cstate);
            assert_eq!(state, cstate);
        }
    }

    #[test]
    fn lanes_are_independent() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim();
        // Lane 0 starts at 0, lane 1 starts at 1: they must stay in
        // antiphase forever.
        sim.set_net(0, 0b10);
        for step in 0..16 {
            sim.step();
            assert_ne!(
                sim.lane_bool(0, 0),
                sim.lane_bool(0, 1),
                "lanes converged at step {step}"
            );
        }
    }

    #[test]
    fn const_one_is_baked() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim();
        sim.set_net(0, u64::MAX);
        sim.eval_comb();
        assert_eq!(sim.net(3), u64::MAX, "q & 1 with q = all-ones");
    }

    #[test]
    fn bus_lane_roundtrip() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim();
        let bus = [0u32, 1, 3];
        sim.set_bus_lane(&bus, 7, 0b101);
        assert_eq!(sim.bus_lane(&bus, 7), 0b101);
        assert_eq!(sim.bus_lane(&bus, 6), 0);
        sim.set_bus_all(&bus, 0b010);
        assert_eq!(sim.bus_lane(&bus, 0), 0b010);
        assert_eq!(sim.bus_lane(&bus, 63), 0b010);
    }

    #[test]
    fn mux_op_selects_per_lane() {
        let mut nl = Netlist::default();
        for _ in 0..3 {
            nl.gates.push(Gate {
                kind: GateKind::Input,
                inputs: vec![],
            });
        }
        nl.gates.push(Gate {
            kind: GateKind::CarryMux,
            inputs: vec![0, 1, 2],
        });
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim();
        sim.set_net(0, 0b01); // lane 0 selects a, lane 1 selects b
        sim.set_net(1, 0b11); // a
        sim.set_net(2, 0b00); // b
        sim.eval_comb();
        assert_eq!(sim.net(3) & 0b11, 0b01);
    }

    #[test]
    fn ternary_eval_covers_concrete_eval() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        // Abstract: register q unknown. Concretely try both q values and
        // check coverage on every net.
        let mut abs = cn.tern_state();
        abs[0] = Tern::X;
        cn.eval_comb_tern(&mut abs);
        for q in [false, true] {
            let mut sim = cn.sim();
            sim.set_net(0, if q { u64::MAX } else { 0 });
            sim.eval_comb();
            for net in 0..cn.n_nets() as u32 {
                assert!(
                    abs[net as usize].covers(sim.lane_bool(net, 0)),
                    "net {net} with q={q}"
                );
            }
        }
        // Precision: d = !q and y = q & 1 must be X, the baked Const1
        // must stay One.
        assert_eq!(abs[1], Tern::X);
        assert_eq!(abs[2], Tern::One);
        assert_eq!(abs[3], Tern::X);
    }

    #[test]
    fn ternary_eval_propagates_constants() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut abs = cn.tern_state();
        abs[0] = Tern::One; // pin q to a known value
        cn.eval_comb_tern(&mut abs);
        assert_eq!(abs[1], Tern::Zero, "d = !q");
        assert_eq!(abs[3], Tern::One, "y = q & 1");
    }

    #[test]
    fn ops_view_matches_pass_count() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        assert_eq!(cn.ops().len(), cn.ops_per_pass());
        assert!(cn.outputs().iter().any(|(n, _)| n == "y"));
    }

    #[test]
    fn step_latches_pre_edge_value_through_reg_chains() {
        // Two registers in a chain: q1 → d2. After one edge, q2 must
        // hold q1's *old* value, not the freshly latched one.
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::RegQ,
            inputs: vec![],
        }); // 0 = q1
        nl.gates.push(Gate {
            kind: GateKind::RegQ,
            inputs: vec![],
        }); // 1 = q2
        nl.gates.push(Gate {
            kind: GateKind::Inv,
            inputs: vec![0],
        }); // 2 = d1 = !q1
        nl.regs.push(RegCell { d: 2, q: 0 });
        nl.regs.push(RegCell { d: 0, q: 1 }); // d2 = q1 directly
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim();
        sim.step(); // q1: 0→1, q2: ←old q1 = 0
        assert!(sim.lane_bool(0, 0));
        assert!(!sim.lane_bool(1, 0));
        sim.step(); // q1: 1→0, q2: ←old q1 = 1
        assert!(!sim.lane_bool(0, 0));
        assert!(sim.lane_bool(1, 0));
    }

    #[test]
    fn wide_lanes_are_independent_across_word_boundaries() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim_wide::<4>();
        assert_eq!(BitSimW::<4>::LANES, 256);
        // Put lanes 1, 64, 130, and 255 in antiphase with lane 0: every
        // word boundary is crossed, and they must all stay antiphase.
        let odd = [1, 64, 130, 255];
        let mut words = [0u64; 4];
        for &lane in &odd {
            words[lane / 64] |= 1u64 << (lane % 64);
        }
        sim.set_net_words(0, words);
        for step in 0..16 {
            sim.step();
            for &lane in &odd {
                assert_ne!(
                    sim.lane_bool(0, 0),
                    sim.lane_bool(0, lane),
                    "lane {lane} converged at step {step}"
                );
            }
        }
    }

    #[test]
    fn wide_bus_lane_roundtrip_in_high_words() {
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = cn.sim_wide::<2>();
        let bus = [0u32, 1, 3];
        sim.set_bus_lane(&bus, 100, 0b101);
        assert_eq!(sim.bus_lane(&bus, 100), 0b101);
        assert_eq!(sim.bus_lane(&bus, 99), 0);
        assert_eq!(sim.bus_lane(&bus, 36), 0);
        sim.set_bus_all(&bus, 0b010);
        assert_eq!(sim.bus_lane(&bus, 0), 0b010);
        assert_eq!(sim.bus_lane(&bus, 127), 0b010);
    }

    #[test]
    fn wide_matches_narrow_lane_for_lane() {
        // The same stimulus in lane k of a W=4 sim and lane k%64 of a
        // W=1 sim must produce identical traces: widening adds lanes,
        // never changes gate semantics.
        let nl = toggle_netlist();
        let cn = CompiledNetlist::compile(&nl).unwrap();
        let mut narrow = cn.sim();
        let mut wide = cn.sim_wide::<4>();
        narrow.set_net(0, 0b1); // lane 0 starts high
        wide.set_bus_lane(&[0], 192, 0b1); // word-3 lane starts high
        for _ in 0..12 {
            narrow.step();
            wide.step();
            assert_eq!(narrow.lane_bool(0, 0), wide.lane_bool(0, 192));
            assert_eq!(narrow.lane_bool(3, 0), wide.lane_bool(3, 192));
        }
    }

    #[test]
    fn lane_mask_words_covers_word_boundaries() {
        assert_eq!(BitSim::lane_mask(0), 0);
        assert_eq!(BitSim::lane_mask(1), 1);
        assert_eq!(BitSim::lane_mask(64), u64::MAX);
        assert_eq!(BitSimW::<2>::lane_mask_words(64), [u64::MAX, 0]);
        assert_eq!(BitSimW::<2>::lane_mask_words(65), [u64::MAX, 1]);
        assert_eq!(
            BitSimW::<4>::lane_mask_words(130),
            [u64::MAX, u64::MAX, 0b11, 0]
        );
        assert_eq!(BitSimW::<4>::lane_mask_words(256), [u64::MAX; 4]);
    }
}
