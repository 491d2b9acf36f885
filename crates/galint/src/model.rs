//! The design-under-lint: a netlist plus optional controller spec and
//! implementation (area/timing) figures.
//!
//! The two shipping configurations — the full GA core and the
//! standalone CA RNG — have ready-made constructors that run the
//! elaboration through its fallible entry points, so a broken
//! elaboration is itself reported rather than panicking the linter.

use ga_synth::fsm::FsmSpec;
use ga_synth::gadesign::{ga_controller_spec, try_elaborate_ca_rng, try_elaborate_ga_core};
use ga_synth::netlist::NetId;
use ga_synth::{Netlist, SynthError, Tern};

/// Implementation figures extracted from a `GaCoreReport` (or supplied
/// by hand for fixtures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaStats {
    /// Occupied slices.
    pub slices: u32,
    /// Device slice utilization, percent.
    pub slice_pct: u32,
    /// Achieved clock from static timing, MHz.
    pub fmax_mhz: f64,
}

/// The budget the `area-budget` rule checks against — anchored to the
/// paper's Table VI figures for the xc2vp30 (13% slice utilization,
/// 50 MHz clock), with slack for model variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBudget {
    /// Maximum acceptable slice utilization percent.
    pub max_slice_pct: u32,
    /// Minimum acceptable clock, MHz.
    pub min_fmax_mhz: f64,
    /// Maximum acceptable gate count for the whole netlist.
    pub max_gates: usize,
}

impl AreaBudget {
    /// Table VI band: 13% reported, allow up to 18% (the repro model's
    /// accepted tolerance); the paper's 50 MHz clock is a hard floor;
    /// the gate ceiling bounds the netlist well under what 13% of a
    /// 13,696-slice device could hold.
    pub fn table_vi() -> Self {
        AreaBudget {
            max_slice_pct: 18,
            min_fmax_mhz: 50.0,
            max_gates: 30_000,
        }
    }
}

impl Default for AreaBudget {
    fn default() -> Self {
        AreaBudget::table_vi()
    }
}

/// How the design's registers come up at power-on — the seed of the
/// ternary dataflow analyses ([`crate::dataflow`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RegInit {
    /// No register has a defined power-on value: the part is programmed
    /// through the scan chain before use, so every analysis must hold
    /// for *any* initial state. This is the contract of both shipping
    /// designs (the elaborated reset nets tie to 0, but the simulation
    /// harnesses scan real state in before running).
    #[default]
    AllUnknown,
    /// Registers reset to 0 except the listed scan positions, which are
    /// uninitialized (`X`). Used by fixtures and by designs with a true
    /// hardware reset.
    ResetExcept(Vec<usize>),
}

impl RegInit {
    /// Expand to the per-register lattice the fixpoint consumes.
    pub fn lattice(&self, ff_count: usize) -> Vec<Tern> {
        match self {
            RegInit::AllUnknown => vec![Tern::X; ff_count],
            RegInit::ResetExcept(uninit) => {
                let mut l = vec![Tern::Zero; ff_count];
                for &r in uninit {
                    if r < ff_count {
                        l[r] = Tern::X;
                    }
                }
                l
            }
        }
    }
}

/// Shared graph analyses over the netlist, computed **once** at model
/// construction and reused by every rule that needs them (`comb-loop`,
/// `floating-net`, …). These are the same analyses
/// [`Netlist::validate`] runs — computing them per-rule would redo a
/// full fanout build plus Tarjan/Kahn pass each time on a ~10k-gate
/// core.
#[derive(Debug, Clone)]
pub struct NetAnalyses {
    /// Per-net fanout lists over combinational edges.
    pub fanout: Vec<Vec<NetId>>,
    /// Kahn topological order (`None` when the gate graph has a cycle).
    pub topo: Option<Vec<NetId>>,
    /// Nontrivial strongly connected components (combinational loops).
    pub sccs: Vec<Vec<NetId>>,
}

impl NetAnalyses {
    fn compute(nl: &Netlist) -> Self {
        NetAnalyses {
            fanout: nl.fanout(),
            topo: nl.topo_order(),
            sccs: nl.comb_sccs(),
        }
    }
}

/// Everything the rules look at for one design.
#[derive(Debug, Clone)]
pub struct DesignModel {
    /// Design name (used in reports).
    pub name: String,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Controller spec, when the design has one.
    pub fsm: Option<FsmSpec>,
    /// Implementation figures, when available.
    pub area: Option<AreaStats>,
    /// Budget for the `area-budget` rule.
    pub budget: AreaBudget,
    /// Register power-on contract (drives the ternary dataflow rules).
    pub reg_init: RegInit,
    /// Cached graph analyses (`None` when the netlist has dangling net
    /// references — the graph passes would index out of bounds, and the
    /// `width-mismatch` rule reports those separately). Private so it
    /// cannot drift from the netlist it was computed for.
    analyses: Option<NetAnalyses>,
}

impl DesignModel {
    /// Model from a bare netlist (fixtures, sub-blocks).
    pub fn new(name: impl Into<String>, netlist: Netlist) -> Self {
        let analyses =
            crate::rules::nets_in_range(&netlist).then(|| NetAnalyses::compute(&netlist));
        DesignModel {
            name: name.into(),
            netlist,
            fsm: None,
            area: None,
            budget: AreaBudget::default(),
            reg_init: RegInit::ResetExcept(vec![]),
            analyses,
        }
    }

    /// The cached graph analyses, when the netlist was well-formed
    /// enough to compute them.
    pub fn analyses(&self) -> Option<&NetAnalyses> {
        self.analyses.as_ref()
    }

    /// Attach a controller spec.
    pub fn with_fsm(mut self, fsm: FsmSpec) -> Self {
        self.fsm = Some(fsm);
        self
    }

    /// Attach implementation figures.
    pub fn with_area(mut self, area: AreaStats) -> Self {
        self.area = Some(area);
        self
    }

    /// Override the area budget.
    pub fn with_budget(mut self, budget: AreaBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Declare a reset-to-0 regime with the listed scan positions
    /// uninitialized (the `x-prop` rule tracks whether their `X` can
    /// reach an output).
    pub fn with_uninit_regs(mut self, uninit: Vec<usize>) -> Self {
        self.reg_init = RegInit::ResetExcept(uninit);
        self
    }

    /// Declare the scan-programmed contract: no register has a defined
    /// power-on value.
    pub fn with_scan_programmed_init(mut self) -> Self {
        self.reg_init = RegInit::AllUnknown;
        self
    }

    /// The full GA core: optimized netlist + the 23-state controller
    /// spec + the Table VI report figures.
    pub fn ga_core() -> Result<Self, SynthError> {
        let (netlist, report) = try_elaborate_ga_core()?;
        Ok(DesignModel::new("ga_core", netlist)
            .with_fsm(ga_controller_spec())
            .with_area(AreaStats {
                slices: report.slices,
                slice_pct: report.slice_pct,
                fmax_mhz: report.timing.fmax_mhz,
            })
            .with_scan_programmed_init())
    }

    /// The standalone CA RNG module (netlist only — it has no FSM).
    /// Scan-programmed like the core: its seed is loaded, not reset.
    pub fn ca_rng() -> Result<Self, SynthError> {
        Ok(DesignModel::new("ca_rng", try_elaborate_ca_rng()?).with_scan_programmed_init())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ga_core_model_is_complete() {
        let m = DesignModel::ga_core().expect("elaboration");
        assert!(m.fsm.is_some());
        let area = m.area.expect("area stats");
        assert!(area.slices > 0);
        assert!(area.fmax_mhz > 0.0);
    }

    #[test]
    fn analyses_are_cached_for_well_formed_netlists() {
        let m = DesignModel::ca_rng().expect("elaboration");
        let a = m.analyses().expect("well-formed netlist has analyses");
        assert_eq!(a.fanout.len(), m.netlist.gate_count());
        assert!(a.topo.is_some(), "acyclic netlist has a topo order");
        assert!(a.sccs.is_empty(), "no combinational loops");
    }

    #[test]
    fn analyses_skipped_for_dangling_nets() {
        use ga_synth::netlist::{Gate, GateKind};
        let mut nl = Netlist::default();
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![99], // dangling reference
        });
        let m = DesignModel::new("broken", nl);
        assert!(m.analyses().is_none());
    }

    #[test]
    fn reg_init_lattice_expansion() {
        assert_eq!(RegInit::AllUnknown.lattice(3), vec![Tern::X; 3]);
        let l = RegInit::ResetExcept(vec![1]).lattice(3);
        assert_eq!(l, vec![Tern::Zero, Tern::X, Tern::Zero]);
        let m = DesignModel::ga_core().expect("elaboration");
        assert_eq!(m.reg_init, RegInit::AllUnknown, "scan-programmed contract");
    }

    #[test]
    fn ca_rng_model_has_no_fsm() {
        let m = DesignModel::ca_rng().expect("elaboration");
        assert!(m.fsm.is_none());
        assert!(m.netlist.ff_count() == 16);
    }
}
