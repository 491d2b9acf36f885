//! Rules over the gate-level netlist: structure, drivers, loops,
//! floating logic, scan chain, and register sanity.

use std::collections::{HashMap, HashSet};

use ga_synth::netlist::NetId;
use ga_synth::GateKind;

use super::{nets_in_range, Rule};
use crate::diag::{Element, Report, Severity};
use crate::model::DesignModel;

/// Pin-level structure: every gate has the pin count its kind demands,
/// and every net reference (gate inputs, register pins, I/O buses)
/// resolves to an existing net. The gate-level analog of a bus
/// width-mismatch check — a missing or extra pin is exactly how a
/// mis-sized bus shows up after elaboration flattens it.
pub struct WidthMismatch;

impl Rule for WidthMismatch {
    fn name(&self) -> &'static str {
        "width-mismatch"
    }
    fn description(&self) -> &'static str {
        "gate pin counts match their kind; all net references resolve"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        let nl = &model.netlist;
        let n = nl.gates.len();
        for (i, g) in nl.gates.iter().enumerate() {
            if g.inputs.len() != g.kind.arity() {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Gate(i),
                    format!(
                        "{:?} has {} input pin(s), its kind requires {}",
                        g.kind,
                        g.inputs.len(),
                        g.kind.arity()
                    ),
                );
            }
            for &inp in &g.inputs {
                if inp as usize >= n {
                    out.push(
                        self.name(),
                        Severity::Error,
                        Element::Gate(i),
                        format!("references nonexistent net {inp} (netlist has {n} nets)"),
                    );
                }
            }
        }
        for (ri, r) in nl.regs.iter().enumerate() {
            if r.d as usize >= n || r.q as usize >= n {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Register(ri),
                    format!("D/Q pins ({}, {}) reference nonexistent nets", r.d, r.q),
                );
            }
        }
        let buses = nl
            .inputs
            .iter()
            .map(|(name, bus)| (Element::InputBus(name.clone()), bus))
            .chain(
                nl.outputs
                    .iter()
                    .map(|(name, bus)| (Element::OutputBus(name.clone()), bus)),
            );
        for (element, bus) in buses {
            for &b in bus {
                if b as usize >= n {
                    out.push(
                        self.name(),
                        Severity::Error,
                        element.clone(),
                        format!("bus bit references nonexistent net {b}"),
                    );
                }
            }
        }
    }
}

/// Multiple-driver detection. In this IR each gate defines exactly one
/// net, so a contention fault appears as a register claiming a net some
/// other element already drives: two registers sharing a Q net, or a Q
/// pin pointing at a combinational gate (the gate and the flip-flop
/// would both drive it in silicon).
pub struct MultiDriver;

impl Rule for MultiDriver {
    fn name(&self) -> &'static str {
        "multi-driver"
    }
    fn description(&self) -> &'static str {
        "no net is driven by more than one sequential or combinational element"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        let nl = &model.netlist;
        if !nets_in_range(nl) {
            return; // width-mismatch already reported the dangling refs
        }
        let mut owner: HashMap<NetId, usize> = HashMap::new();
        for (ri, r) in nl.regs.iter().enumerate() {
            if let Some(&prev) = owner.get(&r.q) {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Register(ri),
                    format!("Q net {} is already driven by register {prev}", r.q),
                );
            } else {
                owner.insert(r.q, ri);
            }
            let kind = nl.gates[r.q as usize].kind;
            if kind != GateKind::RegQ {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Register(ri),
                    format!(
                        "Q net {} is defined by a {kind:?} gate — the register and the gate \
                         would both drive it",
                        r.q
                    ),
                );
            }
        }
    }
}

/// Scan-chain completeness: the paper's testability requirement ("all
/// registers used in the GA are connected on a scan chain"). Every
/// `RegQ` gate must be owned by exactly one chain position, and every
/// chain position must point at a real `RegQ`.
pub struct ScanChain;

impl Rule for ScanChain {
    fn name(&self) -> &'static str {
        "scan-chain"
    }
    fn description(&self) -> &'static str {
        "every flip-flop sits on the scan chain exactly once"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        let nl = &model.netlist;
        if !nets_in_range(nl) {
            return;
        }
        let on_chain: HashSet<NetId> = nl.regs.iter().map(|r| r.q).collect();
        for (i, g) in nl.gates.iter().enumerate() {
            if g.kind == GateKind::RegQ && !on_chain.contains(&(i as NetId)) {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Gate(i),
                    "flip-flop output (RegQ) is not on the scan chain — untestable state bit",
                );
            }
        }
        let ff_gates = nl.count_kind(GateKind::RegQ);
        if nl.regs.len() > ff_gates {
            out.push(
                self.name(),
                Severity::Error,
                Element::Design,
                format!(
                    "scan chain has {} positions but the netlist only has {} flip-flops",
                    nl.regs.len(),
                    ff_gates
                ),
            );
        }
    }
}

/// Fault-injection reachability: the site list the fault-injection
/// engine exposes ([`ga_synth::FaultInjector::sites`] — one Q net per
/// scan position) must be a bijection onto the design's sequential
/// elements. A flip-flop outside the list is state a campaign silently
/// cannot reach; an aliased or non-register site corrupts the wrong
/// thing. The structural checks run on any netlist; when the design
/// compiles, the list is additionally fetched through the injector's
/// own API so a drift between `ga-synth`'s mapping and the scan chain
/// shows up here rather than in a campaign's numbers.
pub struct ScanSiteCoverage;

impl Rule for ScanSiteCoverage {
    fn name(&self) -> &'static str {
        "scan-site-coverage"
    }
    fn description(&self) -> &'static str {
        "the fault injector's site list covers every flip-flop exactly once"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        let nl = &model.netlist;
        if !nets_in_range(nl) {
            return; // width-mismatch already reported the dangling refs
        }
        // The injector defines site s as scan position s's Q net.
        let sites: Vec<NetId> = nl.regs.iter().map(|r| r.q).collect();
        let mut owner: HashMap<NetId, usize> = HashMap::new();
        for (pos, &q) in sites.iter().enumerate() {
            if nl.gates[q as usize].kind != GateKind::RegQ {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Register(pos),
                    format!("fault site {pos} targets net {q}, which is not a flip-flop output"),
                );
            }
            if let Some(&first) = owner.get(&q) {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Register(pos),
                    format!("fault site {pos} aliases site {first}: both corrupt net {q}"),
                );
            } else {
                owner.insert(q, pos);
            }
        }
        for (i, g) in nl.gates.iter().enumerate() {
            if g.kind == GateKind::RegQ && !owner.contains_key(&(i as NetId)) {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Gate(i),
                    "flip-flop is not an injectable fault site — state unreachable by a \
                     scan-chain campaign",
                );
            }
        }
        // Cross-check against the injector's actual API on a compiled
        // design (compile failures are other rules' findings).
        if let Ok(cn) = ga_synth::bitsim::CompiledNetlist::compile(nl) {
            if ga_synth::FaultInjector::sites(&cn.sim()) != sites {
                out.push(
                    self.name(),
                    Severity::Error,
                    Element::Design,
                    "FaultInjector::sites diverges from the netlist's scan-chain order",
                );
            }
        }
    }
}

/// Combinational-loop detection via strongly connected components over
/// the gate graph (register boundaries cut the edges, so a loop through
/// a flip-flop is fine; a loop purely through gates is not).
pub struct CombLoop;

impl Rule for CombLoop {
    fn name(&self) -> &'static str {
        "comb-loop"
    }
    fn description(&self) -> &'static str {
        "the combinational gate graph is acyclic"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        // The SCCs come from the model's cached analyses (shared with
        // `Netlist::validate`); absent analyses mean dangling net
        // references, which width-mismatch reports.
        let Some(analyses) = model.analyses() else {
            return;
        };
        for scc in &analyses.sccs {
            let shown: Vec<String> = scc.iter().take(8).map(|g| g.to_string()).collect();
            let suffix = if scc.len() > 8 { ", …" } else { "" };
            out.push(
                self.name(),
                Severity::Error,
                Element::Gate(scc[0] as usize),
                format!(
                    "combinational loop through {} gate(s): [{}{suffix}]",
                    scc.len(),
                    shown.join(", ")
                ),
            );
        }
    }
}

/// Floating-net detection: logic whose output drives nothing (warning —
/// it synthesizes to dead area), flip-flops no register cell owns
/// (error — an undriven sequential element), dangling constants and
/// unconnected input bits (advisory).
pub struct FloatingNet;

impl Rule for FloatingNet {
    fn name(&self) -> &'static str {
        "floating-net"
    }
    fn description(&self) -> &'static str {
        "every net drives something; no orphan flip-flops"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        let nl = &model.netlist;
        let Some(analyses) = model.analyses() else {
            return;
        };
        // Gate-input consumption comes from the cached fanout lists;
        // register D pins and primary outputs are the two edge kinds
        // fanout does not cover.
        let mut used: HashSet<NetId> = nl.regs.iter().map(|r| r.d).collect();
        for (_, bus) in &nl.outputs {
            used.extend(bus.iter().copied());
        }
        let owned: HashSet<NetId> = nl.regs.iter().map(|r| r.q).collect();
        let drives_nothing =
            |n: NetId| analyses.fanout[n as usize].is_empty() && !used.contains(&n);

        let mut dead_consts = 0usize;
        for (i, g) in nl.gates.iter().enumerate() {
            let floats = drives_nothing(i as NetId);
            match g.kind {
                GateKind::RegQ if !owned.contains(&(i as NetId)) => {
                    out.push(
                        self.name(),
                        Severity::Error,
                        Element::Gate(i),
                        "orphan RegQ: flip-flop output with no register cell driving it",
                    );
                }
                GateKind::Const0 | GateKind::Const1 if floats => dead_consts += 1,
                GateKind::Input => {} // aggregated per bus below
                k if floats && k.arity() > 0 => {
                    out.push(
                        self.name(),
                        Severity::Warn,
                        Element::Gate(i),
                        format!("{k:?} output floats: drives no gate, register, or output"),
                    );
                }
                _ => {}
            }
        }
        if dead_consts > 0 {
            out.push(
                self.name(),
                Severity::Info,
                Element::Design,
                format!("{dead_consts} constant gate(s) drive nothing (harmless dead area)"),
            );
        }
        for (name, bus) in &nl.inputs {
            let unconnected = bus.iter().filter(|&&b| drives_nothing(b)).count();
            if unconnected > 0 {
                out.push(
                    self.name(),
                    Severity::Info,
                    Element::InputBus(name.clone()),
                    format!("{unconnected} of {} bit(s) unconnected", bus.len()),
                );
            }
        }
    }
}

/// Register-enable sanity: a flip-flop whose D is tied to its own Q can
/// never change after reset, and one fed by a constant is a very
/// expensive wire — both almost always mean a missing or mis-wired
/// enable mux.
pub struct RegEnableSanity;

impl Rule for RegEnableSanity {
    fn name(&self) -> &'static str {
        "reg-enable"
    }
    fn description(&self) -> &'static str {
        "no register is frozen (D = own Q) or constant (D = 0/1)"
    }
    fn check(&self, model: &DesignModel, out: &mut Report) {
        let nl = &model.netlist;
        if !nets_in_range(nl) {
            return;
        }
        for (ri, r) in nl.regs.iter().enumerate() {
            if r.d == r.q {
                out.push(
                    self.name(),
                    Severity::Warn,
                    Element::Register(ri),
                    "D is tied to its own Q — the register can never change after reset",
                );
                continue;
            }
            let kind = nl.gates[r.d as usize].kind;
            if matches!(kind, GateKind::Const0 | GateKind::Const1) {
                out.push(
                    self.name(),
                    Severity::Warn,
                    Element::Register(ri),
                    format!("D is a {kind:?} — the register holds a constant"),
                );
            }
        }
    }
}
