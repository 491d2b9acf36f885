//! The gate-level intermediate representation.
//!
//! A [`Netlist`] is a flat array of gates; each gate defines exactly one
//! output net, so gate index and [`NetId`] coincide. Sequential elements
//! are scan registers ([`Netlist::regs`]): their Q pins appear as
//! [`GateKind::RegQ`] gates (combinational sources) and their D pins are
//! arbitrary nets — levelization and combinational simulation treat the
//! register boundary exactly like an input/output boundary, as static
//! timing requires.
//!
//! The gate alphabet matches the paper's gate-level Verilog ("simple
//! Boolean gates such as NAND, NOR, AND, OR, XOR, and SCAN_REGISTER")
//! plus the Virtex dedicated carry multiplexer, which the technology
//! mapper and the timing engine treat specially (it maps to MUXCY, not
//! to a LUT).

use crate::error::SynthError;
use std::collections::HashMap;

/// Net identifier (also the defining gate's index).
pub type NetId = u32;

/// Gate primitive kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant zero.
    Const0,
    /// Constant one.
    Const1,
    /// Primary input bit.
    Input,
    /// Register Q output (sequential source).
    RegQ,
    /// Buffer.
    Buf,
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// Carry mux (MUXCY): inputs `[sel, a, b]`, output `sel ? a : b`.
    /// Maps to the dedicated carry chain, not a LUT.
    CarryMux,
}

impl GateKind {
    /// Number of input pins.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const0 | GateKind::Const1 | GateKind::Input | GateKind::RegQ => 0,
            GateKind::Buf | GateKind::Inv => 1,
            GateKind::And2 | GateKind::Or2 | GateKind::Xor2 | GateKind::Nand2 | GateKind::Nor2 => 2,
            GateKind::CarryMux => 3,
        }
    }

    /// True for zero-arity combinational sources.
    pub fn is_source(self) -> bool {
        self.arity() == 0
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Primitive kind.
    pub kind: GateKind,
    /// Input nets (length = `kind.arity()`).
    pub inputs: Vec<NetId>,
}

/// A scan register cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegCell {
    /// D input net.
    pub d: NetId,
    /// Q output net (a `RegQ` gate).
    pub q: NetId,
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// All gates; index = output [`NetId`].
    pub gates: Vec<Gate>,
    /// Named primary input buses (name → bit nets, LSB first).
    pub inputs: Vec<(String, Vec<NetId>)>,
    /// Named primary output buses.
    pub outputs: Vec<(String, Vec<NetId>)>,
    /// Scan registers, in scan-chain order.
    pub regs: Vec<RegCell>,
}

impl Netlist {
    /// Number of gates (including sources).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Count of gates of a given kind.
    pub fn count_kind(&self, kind: GateKind) -> usize {
        self.gates.iter().filter(|g| g.kind == kind).count()
    }

    /// Flip-flop count.
    pub fn ff_count(&self) -> usize {
        self.regs.len()
    }

    /// Per-net fanout lists over combinational edges (gate input pins).
    /// Shared by validation, the optimizer, and the `galint` rules.
    pub fn fanout(&self) -> Vec<Vec<NetId>> {
        let mut fanout: Vec<Vec<NetId>> = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                fanout[inp as usize].push(i as NetId);
            }
        }
        fanout
    }

    /// Kahn topological sort over combinational edges. `None` if the
    /// gate graph has a cycle (use [`Netlist::comb_sccs`] to find it).
    pub fn topo_order(&self) -> Option<Vec<NetId>> {
        let n = self.gates.len();
        let mut indeg = vec![0u32; n];
        let fanout = self.fanout();
        for (i, g) in self.gates.iter().enumerate() {
            indeg[i] = g.inputs.len() as u32;
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(g) = queue.pop() {
            order.push(g);
            for &f in &fanout[g as usize] {
                indeg[f as usize] -= 1;
                if indeg[f as usize] == 0 {
                    queue.push(f);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Tarjan's strongly connected components over the combinational
    /// gate graph, returning only the *nontrivial* SCCs (more than one
    /// gate, or a gate feeding itself) — i.e. the combinational loops.
    /// This is the same analysis `Netlist::validate` and the `galint`
    /// `comb-loop` rule share; an empty result means the logic is
    /// acyclic. Iterative so deep carry chains can't overflow the stack.
    pub fn comb_sccs(&self) -> Vec<Vec<NetId>> {
        let n = self.gates.len();
        let fanout = self.fanout();
        const UNSET: u32 = u32::MAX;
        let mut index = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<NetId>> = Vec::new();
        // Explicit DFS: (node, next-successor-position).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNSET {
                continue;
            }
            call.push((root, 0));
            while let Some((v, pos)) = call.last().copied() {
                let vu = v as usize;
                if pos == 0 {
                    index[vu] = next_index;
                    low[vu] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[vu] = true;
                }
                if let Some(&w) = fanout[vu].get(pos) {
                    if let Some(frame) = call.last_mut() {
                        frame.1 += 1;
                    }
                    let wu = w as usize;
                    if index[wu] == UNSET {
                        call.push((w, 0));
                    } else if on_stack[wu] {
                        low[vu] = low[vu].min(index[wu]);
                    }
                } else {
                    // Done with v: close the SCC if v is a root.
                    if low[vu] == index[vu] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let self_loop = comp.len() == 1 && self.gates[vu].inputs.contains(&v);
                        if comp.len() > 1 || self_loop {
                            comp.sort_unstable();
                            sccs.push(comp);
                        }
                    }
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        let pu = p as usize;
                        low[pu] = low[pu].min(low[vu]);
                    }
                }
            }
        }
        sccs
    }

    /// Structural validation: arities match, input nets exist, every
    /// RegQ belongs to exactly one register, combinational logic is
    /// acyclic. Returns the topological order of all nets on success.
    ///
    /// This is the fast-path structural gate the rest of the crate
    /// relies on; the `galint` crate runs the same underlying analyses
    /// ([`Netlist::comb_sccs`], [`Netlist::fanout`]) as individually
    /// reportable design rules with richer diagnostics.
    pub fn validate(&self) -> Result<Vec<NetId>, SynthError> {
        let n = self.gates.len();
        for (i, g) in self.gates.iter().enumerate() {
            if g.inputs.len() != g.kind.arity() {
                return Err(SynthError::BadArity {
                    gate: i,
                    kind: format!("{:?}", g.kind),
                    got: g.inputs.len(),
                    want: g.kind.arity(),
                });
            }
            for &inp in &g.inputs {
                if inp as usize >= n {
                    return Err(SynthError::MissingNet { gate: i, net: inp });
                }
            }
        }
        let mut regq_owner: HashMap<NetId, usize> = HashMap::new();
        for (ri, r) in self.regs.iter().enumerate() {
            if r.q as usize >= n || r.d as usize >= n {
                return Err(SynthError::RegisterMissingNets { reg: ri });
            }
            if self.gates[r.q as usize].kind != GateKind::RegQ {
                return Err(SynthError::NotARegQ { reg: ri });
            }
            if regq_owner.insert(r.q, ri).is_some() {
                return Err(SynthError::DuplicateRegQ { q: r.q });
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind == GateKind::RegQ && !regq_owner.contains_key(&(i as NetId)) {
                return Err(SynthError::OrphanRegQ { gate: i });
            }
        }
        match self.topo_order() {
            Some(order) => Ok(order),
            None => {
                let trapped = self.comb_sccs().iter().map(Vec::len).sum();
                Err(SynthError::CombinationalCycle { trapped })
            }
        }
    }

    /// Evaluate the combinational network. `input_values` maps each
    /// `Input` net to a bit; `reg_values` maps each `RegQ` net. Returns
    /// the value of every net.
    ///
    /// Infallible wrapper over [`Netlist::try_eval_comb`]; panics on a
    /// structurally invalid netlist. Hot paths that evaluate the same
    /// netlist repeatedly should compile it once with
    /// [`crate::bitsim::CompiledNetlist`] instead — this interpreter
    /// re-validates (a full topological sort) on every call.
    pub fn eval_comb(
        &self,
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> Vec<bool> {
        self.try_eval_comb(input_values, reg_values)
            .expect("invalid netlist")
    }

    /// Fallible combinational evaluation: surfaces the structural
    /// defect as a [`SynthError`] instead of panicking.
    pub fn try_eval_comb(
        &self,
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> Result<Vec<bool>, SynthError> {
        let order = self.validate()?;
        Ok(self.eval_comb_with_order(&order, input_values, reg_values))
    }

    /// Combinational evaluation reusing an already-computed topological
    /// order (from [`Netlist::validate`] or [`Netlist::topo_order`]),
    /// skipping the per-call sort. The order must cover every gate of
    /// *this* netlist.
    pub fn eval_comb_with_order(
        &self,
        order: &[NetId],
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> Vec<bool> {
        let mut val = vec![false; self.gates.len()];
        for &id in order {
            let g = &self.gates[id as usize];
            let v = match g.kind {
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                GateKind::Input => *input_values.get(&id).unwrap_or(&false),
                GateKind::RegQ => *reg_values.get(&id).unwrap_or(&false),
                GateKind::Buf => val[g.inputs[0] as usize],
                GateKind::Inv => !val[g.inputs[0] as usize],
                GateKind::And2 => val[g.inputs[0] as usize] & val[g.inputs[1] as usize],
                GateKind::Or2 => val[g.inputs[0] as usize] | val[g.inputs[1] as usize],
                GateKind::Xor2 => val[g.inputs[0] as usize] ^ val[g.inputs[1] as usize],
                GateKind::Nand2 => !(val[g.inputs[0] as usize] & val[g.inputs[1] as usize]),
                GateKind::Nor2 => !(val[g.inputs[0] as usize] | val[g.inputs[1] as usize]),
                GateKind::CarryMux => {
                    if val[g.inputs[0] as usize] {
                        val[g.inputs[1] as usize]
                    } else {
                        val[g.inputs[2] as usize]
                    }
                }
            };
            val[id as usize] = v;
        }
        val
    }

    /// One sequential step: evaluate combinationally, then latch every
    /// register (returns the new register state). Infallible wrapper
    /// over [`Netlist::try_step_seq`].
    pub fn step_seq(
        &self,
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> HashMap<NetId, bool> {
        self.try_step_seq(input_values, reg_values)
            .expect("invalid netlist")
    }

    /// Fallible sequential step, consistent with the crate's `try_*`
    /// convention.
    pub fn try_step_seq(
        &self,
        input_values: &HashMap<NetId, bool>,
        reg_values: &HashMap<NetId, bool>,
    ) -> Result<HashMap<NetId, bool>, SynthError> {
        let vals = self.try_eval_comb(input_values, reg_values)?;
        Ok(self
            .regs
            .iter()
            .map(|r| (r.q, vals[r.d as usize]))
            .collect())
    }

    /// Look up a named bus in inputs.
    pub fn input_bus(&self, name: &str) -> Option<&[NetId]> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Look up a named bus in outputs.
    pub fn output_bus(&self, name: &str) -> Option<&[NetId]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }
}

/// Helpers to pack bit vectors into integers and back (LSB first).
pub fn bus_to_u64(nets: &[NetId], vals: &[bool]) -> u64 {
    let mut v = 0u64;
    for (i, &n) in nets.iter().enumerate() {
        if vals[n as usize] {
            v |= 1 << i;
        }
    }
    v
}

/// Spread an integer across a bus into an input-value map (LSB first).
pub fn u64_to_bus(nets: &[NetId], value: u64, map: &mut HashMap<NetId, bool>) {
    for (i, &n) in nets.iter().enumerate() {
        map.insert(n, (value >> i) & 1 == 1);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn xor_netlist() -> Netlist {
        // out = a ^ b built from NAND gates (the classic 4-NAND XOR).
        let mut nl = Netlist::default();
        let a = 0u32;
        let b = 1u32;
        nl.gates.push(Gate {
            kind: GateKind::Input,
            inputs: vec![],
        });
        nl.gates.push(Gate {
            kind: GateKind::Input,
            inputs: vec![],
        });
        nl.gates.push(Gate {
            kind: GateKind::Nand2,
            inputs: vec![a, b],
        }); // 2
        nl.gates.push(Gate {
            kind: GateKind::Nand2,
            inputs: vec![a, 2],
        }); // 3
        nl.gates.push(Gate {
            kind: GateKind::Nand2,
            inputs: vec![b, 2],
        }); // 4
        nl.gates.push(Gate {
            kind: GateKind::Nand2,
            inputs: vec![3, 4],
        }); // 5
        nl.inputs.push(("a".into(), vec![a]));
        nl.inputs.push(("b".into(), vec![b]));
        nl.outputs.push(("y".into(), vec![5]));
        nl
    }

    #[test]
    fn four_nand_xor_truth_table() {
        let nl = xor_netlist();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut inp = HashMap::new();
            inp.insert(0u32, a);
            inp.insert(1u32, b);
            let vals = nl.eval_comb(&inp, &HashMap::new());
            assert_eq!(vals[5], a ^ b, "a={a} b={b}");
        }
    }

    #[test]
    fn validation_rejects_cycles() {
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![1],
        });
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![0],
        });
        assert!(nl.validate().unwrap_err().to_string().contains("cycle"));
        assert_eq!(nl.comb_sccs().len(), 1);
    }

    #[test]
    fn try_eval_comb_surfaces_typed_errors() {
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![1],
        });
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![0],
        });
        let err = nl.try_eval_comb(&HashMap::new(), &HashMap::new());
        assert!(matches!(err, Err(SynthError::CombinationalCycle { .. })));
        assert!(matches!(
            nl.try_step_seq(&HashMap::new(), &HashMap::new()),
            Err(SynthError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn eval_comb_with_order_reuses_a_cached_sort() {
        let nl = xor_netlist();
        let order = nl.validate().unwrap();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut inp = HashMap::new();
            inp.insert(0u32, a);
            inp.insert(1u32, b);
            let vals = nl.eval_comb_with_order(&order, &inp, &HashMap::new());
            assert_eq!(vals[5], a ^ b, "a={a} b={b}");
        }
    }

    #[test]
    fn validation_rejects_bad_arity() {
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::And2,
            inputs: vec![0],
        });
        assert!(nl.validate().is_err());
    }

    #[test]
    fn validation_rejects_orphan_regq() {
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::RegQ,
            inputs: vec![],
        });
        assert!(nl.validate().unwrap_err().to_string().contains("orphan"));
    }

    #[test]
    fn sequential_step_latches_d() {
        // A 1-bit toggle: d = !q.
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::RegQ,
            inputs: vec![],
        }); // 0 = q
        nl.gates.push(Gate {
            kind: GateKind::Inv,
            inputs: vec![0],
        }); // 1 = d
        nl.regs.push(RegCell { d: 1, q: 0 });
        let mut state: HashMap<NetId, bool> = [(0u32, false)].into();
        for expected in [true, false, true, false] {
            state = nl.step_seq(&HashMap::new(), &state);
            assert_eq!(state[&0], expected);
        }
    }

    #[test]
    fn bus_packing_roundtrip() {
        let nets = vec![3u32, 1, 2];
        let mut map = HashMap::new();
        u64_to_bus(&nets, 0b101, &mut map);
        assert!(map[&3]);
        assert!(!map[&1]);
        assert!(map[&2]);
    }

    #[test]
    fn carry_mux_selects() {
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
        let mut inp = HashMap::new();
        inp.insert(0u32, true);
        inp.insert(1u32, true);
        inp.insert(2u32, false);
        assert!(nl.eval_comb(&inp, &HashMap::new())[3]);
        inp.insert(0u32, false);
        assert!(!nl.eval_comb(&inp, &HashMap::new())[3]);
    }
}
