//! The [`EngineRegistry`]: the one place backends are enumerated.
//!
//! Every consumer — the serve dispatcher, the bench sweep bins, the
//! fault campaign's golden-run capture, the conformance suite — asks
//! the registry instead of naming engines, so adding a backend is a
//! registry change, not a grep across the tree (see DESIGN.md for the
//! add-a-backend recipe).

use std::sync::OnceLock;

use crate::adapters::{BehavioralEngine, BitSimEngine, Rtl32Engine, RtlInterpEngine, SwgaEngine};
use crate::spec::{BackendKind, Engine};

/// An ordered collection of [`Engine`]s, keyed by [`BackendKind`].
pub struct EngineRegistry {
    engines: Vec<Box<dyn Engine>>,
}

impl EngineRegistry {
    /// An empty registry (for tests composing custom engine sets).
    pub fn new() -> Self {
        EngineRegistry {
            engines: Vec::new(),
        }
    }

    /// The production registry: all seven backends, in
    /// [`BackendKind::ALL`] order.
    pub fn with_default_engines() -> Self {
        let mut r = EngineRegistry::new();
        r.register(Box::new(BehavioralEngine));
        r.register(Box::new(RtlInterpEngine));
        r.register(Box::new(BitSimEngine(BackendKind::BitSim64)));
        r.register(Box::new(BitSimEngine(BackendKind::BitSim128)));
        r.register(Box::new(BitSimEngine(BackendKind::BitSim256)));
        r.register(Box::new(SwgaEngine));
        r.register(Box::new(Rtl32Engine));
        r
    }

    /// Add (or replace) the engine for its [`BackendKind`]. Replacement
    /// semantics let a test swap one backend for an instrumented double
    /// without rebuilding the whole set.
    pub fn register(&mut self, engine: Box<dyn Engine>) {
        let kind = engine.kind();
        self.engines.retain(|e| e.kind() != kind);
        self.engines.push(engine);
    }

    /// The engine for `kind`, if registered.
    pub fn get(&self, kind: BackendKind) -> Option<&dyn Engine> {
        self.engines
            .iter()
            .find(|e| e.kind() == kind)
            .map(|e| e.as_ref())
    }

    /// All registered engines, in registration order.
    pub fn engines(&self) -> impl Iterator<Item = &dyn Engine> {
        self.engines.iter().map(|e| e.as_ref())
    }

    /// All registered kinds, in registration order.
    pub fn kinds(&self) -> Vec<BackendKind> {
        self.engines.iter().map(|e| e.kind()).collect()
    }

    /// The kinds whose engines implement chromosome width `width`.
    pub fn supporting_width(&self, width: u8) -> Vec<BackendKind> {
        self.engines
            .iter()
            .filter(|e| e.capabilities().widths.contains(&width))
            .map(|e| e.kind())
            .collect()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::with_default_engines()
    }
}

/// The process-wide production registry, built once on first use.
pub fn global() -> &'static EngineRegistry {
    static REGISTRY: OnceLock<EngineRegistry> = OnceLock::new();
    REGISTRY.get_or_init(EngineRegistry::with_default_engines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_covers_every_kind_in_order() {
        assert_eq!(global().kinds(), BackendKind::ALL.to_vec());
        for kind in BackendKind::ALL {
            let e = global().get(kind).expect("registered");
            assert_eq!(e.kind(), kind);
        }
    }

    #[test]
    fn width_queries_partition_the_registry() {
        assert_eq!(
            global().supporting_width(16),
            vec![
                BackendKind::Behavioral,
                BackendKind::RtlInterp,
                BackendKind::BitSim64,
                BackendKind::BitSim128,
                BackendKind::BitSim256,
                BackendKind::Swga,
            ]
        );
        assert_eq!(global().supporting_width(32), vec![BackendKind::Rtl32]);
        assert!(global().supporting_width(8).is_empty());
    }

    #[test]
    fn degradation_targets_are_registered_and_narrower() {
        // A fallback engine must exist and must not itself degrade
        // (no fallback chains): the serve layer relies on both.
        for e in global().engines() {
            if let Some(to) = e.capabilities().degrades_to {
                let target = global().get(to).expect("fallback engine registered");
                assert_eq!(target.capabilities().degrades_to, None, "no chains");
            }
        }
    }

    #[test]
    fn registration_replaces_by_kind() {
        let mut r = EngineRegistry::new();
        assert!(r.get(BackendKind::Behavioral).is_none());
        r.register(Box::new(BehavioralEngine));
        r.register(Box::new(BehavioralEngine));
        assert_eq!(r.kinds(), vec![BackendKind::Behavioral]);
    }
}
