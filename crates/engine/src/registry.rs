//! The fixed engine table: seven backend names, three engines.
//!
//! Every consumer — the serve dispatcher, the bench sweep bins, the
//! fault campaign's golden-run capture, the conformance suite — looks a
//! [`BackendKind`] up here instead of naming engines. The lookup is
//! total: every kind has its capability row
//! ([`BackendKind::capabilities`]) and its engine
//! ([`BackendKind::engine`]), so no caller handles a missing backend.
//! DESIGN.md has the add-a-backend recipe.

use crate::adapters::{BehavioralEngine, BitSimEngine, RtlEngine};
use crate::spec::{BackendKind, Capabilities, Engine};

impl BackendKind {
    /// This kind's capability row. The pack width lives only here, so
    /// it is the one place a lane width is named besides the wire name.
    pub const fn capabilities(self) -> Capabilities {
        use BackendKind::*;
        let (widths, pack_width, stepping, degrades_to): (&'static [u8], _, _, _) = match self {
            Behavioral => (&[16], 1, true, None),
            RtlInterp => (&[16], 1, false, None),
            BitSim64 => (&[16], 64, true, Some(Behavioral)),
            BitSim128 => (&[16], 128, true, Some(Behavioral)),
            BitSim256 => (&[16], 256, true, Some(Behavioral)),
            Swga => (&[16], 1, false, None),
            Rtl32 => (&[32], 1, false, None),
        };
        Capabilities {
            widths,
            pack_width,
            stepping,
            degrades_to,
        }
    }

    /// The engine serving this kind: the behavioral engine for
    /// `behavioral` and `swga`, the cycle-accurate system for `rtl`
    /// (width 16) and `rtl32` (width 32), the compiled-netlist engine
    /// for the three bitsim pack widths.
    pub fn engine(self) -> &'static dyn Engine {
        use BackendKind::*;
        match self {
            Behavioral => &BehavioralEngine(Behavioral),
            Swga => &BehavioralEngine(Swga),
            RtlInterp => &RtlEngine(RtlInterp),
            Rtl32 => &RtlEngine(Rtl32),
            BitSim64 => &BitSimEngine(BitSim64),
            BitSim128 => &BitSimEngine(BitSim128),
            BitSim256 => &BitSimEngine(BitSim256),
        }
    }

    /// The kinds whose capability row admits chromosome width `width`,
    /// in [`BackendKind::ALL`] order.
    pub fn supporting_width(width: u8) -> Vec<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .filter(|k| k.capabilities().widths.contains(&width))
            .collect()
    }
}

/// The engine table as the benchmark package reads it
/// (`ga_engine::global().get(kind)`). Every lookup succeeds; code in
/// this workspace calls [`BackendKind::engine`] instead.
pub struct EngineTable;

impl EngineTable {
    /// `Some` engine for every kind: [`BackendKind::engine`], kept in
    /// the `Option` shape the benchmark package's callers unwrap.
    pub fn get(&self, kind: BackendKind) -> Option<&'static dyn Engine> {
        Some(kind.engine())
    }
}

/// The engine table, for the benchmark package's `global().get(kind)`.
pub fn global() -> &'static EngineTable {
    &EngineTable
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_queries_partition_the_table() {
        assert_eq!(
            BackendKind::supporting_width(16),
            vec![
                BackendKind::Behavioral,
                BackendKind::RtlInterp,
                BackendKind::BitSim64,
                BackendKind::BitSim128,
                BackendKind::BitSim256,
                BackendKind::Swga,
            ]
        );
        assert_eq!(BackendKind::supporting_width(32), vec![BackendKind::Rtl32]);
        assert!(BackendKind::supporting_width(8).is_empty());
    }

    #[test]
    fn degradation_targets_do_not_degrade() {
        // A fallback must not itself degrade (no fallback chains): the
        // serve layer relies on it.
        for kind in BackendKind::ALL {
            if let Some(to) = kind.capabilities().degrades_to {
                assert_eq!(to.capabilities().degrades_to, None, "no chains");
            }
        }
    }
}
