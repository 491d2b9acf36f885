//! Island-model parallel GA — the "advanced hardware acceleration"
//! axis of the paper's related work (§II-B: Multi-GAP, Jelodar et al.'s
//! SOPC parallel GA, Nedjah & Mourelle's massively parallel
//! architecture), built from multiple unmodified engines.
//!
//! Each island runs the paper's exact GA with its **own CA RNG at a
//! jump-ahead offset** on a shared stream (so streams are provably
//! disjoint, `carng::wide`), evolving independently for a migration
//! epoch and then passing its best individual to the next island on a
//! ring, where it replaces the worst member. This module holds the
//! island vocabulary — the member trait, the ring shape, the run result
//! and the seed schedule. The migration loop itself is `ga-engine`'s
//! `IslandRing`: the software realization of the multi-FPGA layout
//! those papers prototype, and a faithful model because inter-island
//! traffic happens only at epoch barriers.

use carng::ca::MAXIMAL_RULE_VECTOR;
use carng::wide::CaRngW;
use carng::SnapshotRng;

use crate::behavioral::{GaEngine, Individual};
use crate::snapshot::{EngineSnapshot, SnapshotError};

/// One island's engine, as the migration loop sees it: anything that
/// can initialize a population, evolve it one generation at a time,
/// report its elite, and accept a migrant. [`GaEngine`] implements it
/// for every RNG source, which is what lets the engine-layer composite
/// (`ga-engine`'s `IslandsEngine`) run islands over *any* stepping
/// backend — behavioral CA, LFSR, or a bitsim64 lane stream.
pub trait IslandMember {
    /// Generate and evaluate the random initial population.
    fn init_population(&mut self);
    /// Breed one full generation.
    fn step_generation(&mut self);
    /// Best individual so far.
    fn best(&self) -> Individual;
    /// Replace the worst member with `migrant` (ring migration).
    fn inject(&mut self, migrant: Individual);
    /// Fitness evaluations consumed so far.
    fn evaluations(&self) -> u64;
    /// Capture the member's full state ([`GaEngine::snapshot`]).
    fn snapshot(&self) -> EngineSnapshot;
    /// Install a snapshot ([`GaEngine::restore`]); the member continues
    /// bit-identically from the captured position.
    fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError>;
}

impl<R: SnapshotRng, F: FnMut(u16) -> u16> IslandMember for GaEngine<R, F> {
    fn init_population(&mut self) {
        GaEngine::<R, F>::init_population(self);
    }

    fn step_generation(&mut self) {
        GaEngine::<R, F>::step_generation(self);
    }

    fn best(&self) -> Individual {
        GaEngine::best(self)
    }

    fn inject(&mut self, migrant: Individual) {
        GaEngine::inject(self, migrant);
    }

    fn evaluations(&self) -> u64 {
        GaEngine::evaluations(self)
    }

    fn snapshot(&self) -> EngineSnapshot {
        GaEngine::snapshot(self)
    }

    fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        GaEngine::restore(self, snap)
    }
}

/// Island-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandConfig {
    /// Number of islands (ring size).
    pub islands: usize,
    /// Generations between migrations.
    pub epoch: u32,
    /// Number of epochs (total generations = epoch × epochs).
    pub epochs: u32,
}

/// Result of an island run.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandRun {
    /// Best individual across all islands.
    pub best: Individual,
    /// Per-island best at the end.
    pub island_best: Vec<Individual>,
    /// Total fitness evaluations across islands.
    pub evaluations: u64,
}

/// Seed for island `k`: the shared CA stream jumped ahead by
/// `k · 2^16 / islands` states, so island streams never overlap within
/// an epoch's draw budget.
pub fn island_seed(base_seed: u16, k: usize, islands: usize) -> u16 {
    let mut rng = CaRngW::<16>::new(base_seed as u64, MAXIMAL_RULE_VECTOR as u64);
    rng.jump((k as u64 * 65_535) / islands as u64);
    rng.output() as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn island_seeds_are_distinct() {
        let seeds: Vec<u16> = (0..8).map(|k| island_seed(0x2961, k, 8)).collect();
        let distinct: std::collections::HashSet<u16> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "{seeds:?}");
    }
}
