//! Fault-injection campaign machinery (scan-chain SEU sweeps).
//!
//! The paper equips the core with a full scan chain for manufacturing
//! test (§III-C.2); this module reuses that chain the way a modern
//! dependability study would: as the injection port of a single-event-
//! upset campaign. Two models are swept:
//!
//! * **RTL scan campaign** — [`run_scan_injection`] freezes the
//!   cycle-accurate [`GaSystem`] mid-run, corrupts one chain bit
//!   through the real shift protocol, resumes, and
//!   [`classify_hw`] grades the outcome against the fault-free golden
//!   run (the same observables the cross-engine conformance suite
//!   diffs: final best, per-generation statistics, RNG draw count).
//! * **Netlist campaign** — [`run_net_injection`] drives the compiled
//!   CA-RNG netlist with [`ga_synth::FaultInjector`] corrupting one
//!   flip-flop word post-edge, grading the extracted stream against the
//!   `carng::CaRng` reference and checking the *other* lanes stayed
//!   clean (word-level lane isolation).
//!
//! Everything here is deterministic: same plan, same classes, byte-for-
//! byte — the campaign binary seeds its cycle sampling from the in-tree
//! `rand` shim.

use carng::{CaRng, Rng16};
use ga_core::{GaParams, HwRun};
use ga_engine::{trajectory16, RunOutcome};
use ga_fitness::TestFunction;
use ga_synth::bitsim::CompiledNetlist;
use ga_synth::{FaultInjector, NetFault};
use hwsim::{BitFault, FaultClass, ScanBitOp, SimError};

use crate::{hw_system, run_on, BackendKind};

/// One planned scan-chain injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanInjection {
    /// Scan-chain bit position (0..[`ga_core::GaCoreHw::SCAN_LENGTH`]).
    pub position: usize,
    /// Fault polarity.
    pub kind: BitFault,
    /// Injection cycle, counted from `start_GA`.
    pub at_cycle: u64,
}

/// Outcome-class tally for a campaign (or a shard of one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// No observable difference from golden.
    pub masked: u64,
    /// Observable divergence, correct final answer.
    pub detected: u64,
    /// Wrong final answer (silent data corruption).
    pub corrupted: u64,
    /// Watchdog fired before `GA_done`.
    pub hung: u64,
}

impl ClassCounts {
    /// Count one classified outcome.
    pub fn add(&mut self, class: FaultClass) {
        match class {
            FaultClass::Masked => self.masked += 1,
            FaultClass::Detected => self.detected += 1,
            FaultClass::Corrupted => self.corrupted += 1,
            FaultClass::Hung => self.hung += 1,
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: ClassCounts) {
        self.masked += other.masked;
        self.detected += other.detected;
        self.corrupted += other.corrupted;
        self.hung += other.hung;
    }

    /// Total classified outcomes — the campaign invariant is
    /// `total() == injections` (every injection classified, exactly
    /// once; `benchcheck` pins the gap to zero).
    pub fn total(&self) -> u64 {
        self.masked + self.detected + self.corrupted + self.hung
    }
}

/// The fault-free golden run every faulted run is graded against —
/// captured through the engine table (the cycle-accurate `rtl`
/// backend), so the reference carries the engine table's canonical
/// observables: final best, per-generation trajectory, RNG draw count.
pub fn golden_hw_run(f: TestFunction, params: &GaParams) -> RunOutcome {
    run_on(BackendKind::RtlInterp, f, params)
}

/// Grade one faulted RTL run against its golden reference.
///
/// Precedence: hung (didn't finish) > corrupted (wrong final best) >
/// detected (correct answer, diverged trajectory or draw count) >
/// masked. Cycle counts are deliberately *not* compared — the scan
/// shift itself costs `2 × SCAN_LENGTH + 1` cycles, so every injected
/// run is longer than golden.
pub fn classify_hw(golden: &RunOutcome, outcome: &Result<(HwRun, bool), SimError>) -> FaultClass {
    match outcome {
        Err(_) => FaultClass::Hung,
        Ok((run, _)) => {
            if (run.best.chrom as u32, run.best.fitness) != (golden.best_chrom, golden.best_fitness)
            {
                FaultClass::Corrupted
            } else if trajectory16(&run.history) != golden.trajectory
                || Some(run.rng_draws) != golden.rng_draws
            {
                FaultClass::Detected
            } else {
                FaultClass::Masked
            }
        }
    }
}

/// Execute one scan-chain injection from a fresh system: program,
/// start, inject at `inj.at_cycle` through the scan chain, run to
/// `GA_done` or the watchdog.
pub fn run_scan_injection(
    f: TestFunction,
    params: &GaParams,
    watchdog_cycles: u64,
    inj: ScanInjection,
) -> Result<(HwRun, bool), SimError> {
    let mut sys = hw_system(f);
    sys.program(params);
    sys.run_with_faults(
        watchdog_cycles,
        inj.at_cycle,
        &[ScanBitOp {
            position: inj.position,
            kind: inj.kind,
        }],
    )
}

/// Outcome of one netlist injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOutcome {
    /// Masked (stream untouched) or corrupted (stream diverged). The
    /// RNG stream *is* the module's output, so there is no separate
    /// detected class, and a pure combinational module cannot hang.
    pub class: FaultClass,
    /// True when a lane **other** than the faulted one diverged — a
    /// word-level isolation violation. Must never happen; the campaign
    /// pins this count to zero.
    pub lane_leak: bool,
}

/// Inject `fault` (which must target lane 0) into the compiled CA-RNG
/// netlist while extracting `draws` draws, with an identically-seeded
/// clean copy of the simulation on lane 1. Returns the grade of the
/// faulted stream plus the lane-isolation check.
pub fn run_net_injection(
    cn: &CompiledNetlist,
    seed: u16,
    draws: usize,
    fault: NetFault,
) -> NetOutcome {
    assert_eq!(
        fault.lane, 0,
        "the campaign faults lane 0, lane 1 is the witness"
    );
    let seed_bus = cn.input_bus("seed").expect("seed bus").to_vec();
    let ctl_bus = cn.input_bus("ctl").expect("ctl bus").to_vec();
    let rn_bus = cn.output_bus("rn").expect("rn bus").to_vec();

    let mut sim = cn.sim();
    let mut inj = FaultInjector::new(vec![fault]);
    let s = if seed == 0 { 1 } else { seed };
    sim.set_bus_lane(&seed_bus, 0, s as u64);
    sim.set_bus_lane(&seed_bus, 1, s as u64);
    sim.set_bus_all(&ctl_bus, 0b01); // seed_load
    sim.step();
    inj.after_step(&mut sim);
    sim.set_bus_all(&ctl_bus, 0b10); // consume

    let mut faulted = Vec::with_capacity(draws);
    let mut witness = Vec::with_capacity(draws);
    for _ in 0..draws {
        faulted.push(sim.bus_lane(&rn_bus, 0) as u16);
        witness.push(sim.bus_lane(&rn_bus, 1) as u16);
        sim.step();
        inj.after_step(&mut sim);
    }

    let mut reference = CaRng::new(seed);
    let golden: Vec<u16> = (0..draws).map(|_| reference.next_u16()).collect();
    NetOutcome {
        class: if faulted == golden {
            FaultClass::Masked
        } else {
            FaultClass::Corrupted
        },
        lane_leak: witness != golden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_core::behavioral::{GenStats, Individual};
    use ga_synth::gadesign::elaborate_ca_rng;
    use ga_synth::NetFaultKind;

    fn fake_run(fitness: u16, draws: u64) -> HwRun {
        HwRun {
            best: Individual { chrom: 1, fitness },
            cycles: 100,
            seconds: 0.0,
            history: vec![GenStats {
                gen: 0,
                best: Individual { chrom: 1, fitness },
                fit_sum: fitness as u32,
                pop_size: 8,
            }],
            rng_draws: draws,
        }
    }

    /// The engine-shaped view of a fault-free [`fake_run`].
    fn as_golden(run: &HwRun) -> RunOutcome {
        RunOutcome {
            best_chrom: run.best.chrom as u32,
            best_fitness: run.best.fitness,
            generations: 0,
            evaluations: 0,
            conv_gen: None,
            cycles: Some(run.cycles),
            rng_draws: Some(run.rng_draws),
            trajectory: trajectory16(&run.history),
        }
    }

    #[test]
    fn classification_precedence_matches_the_contract() {
        let golden = as_golden(&fake_run(100, 50));
        // Hung beats everything.
        assert_eq!(
            classify_hw(&golden, &Err(SimError::Timeout { cycles: 1 })),
            FaultClass::Hung
        );
        // Wrong answer → corrupted, even with identical trajectory.
        let mut wrong = fake_run(100, 50);
        wrong.best.fitness = 99;
        assert_eq!(
            classify_hw(&golden, &Ok((wrong, true))),
            FaultClass::Corrupted
        );
        // Right answer, diverged draws → detected.
        assert_eq!(
            classify_hw(&golden, &Ok((fake_run(100, 51), true))),
            FaultClass::Detected
        );
        // Longer cycles alone (the scan-shift cost) stay masked.
        let mut longer = fake_run(100, 50);
        longer.cycles += 817;
        assert_eq!(
            classify_hw(&golden, &Ok((longer, true))),
            FaultClass::Masked
        );
    }

    #[test]
    fn class_counts_sum_and_merge() {
        let mut a = ClassCounts::default();
        for c in FaultClass::ALL {
            a.add(c);
        }
        assert_eq!(a.total(), 4);
        let mut b = a;
        b.merge(a);
        assert_eq!(b.total(), 8);
        assert_eq!(b.hung, 2);
    }

    #[test]
    fn empty_scan_injection_is_masked() {
        let params = GaParams::new(8, 2, 10, 1, 0x2961);
        let golden = golden_hw_run(TestFunction::F3, &params);
        let mut sys = hw_system(TestFunction::F3);
        sys.program(&params);
        let outcome = sys.run_with_faults(2_000_000, 300, &[]);
        assert_eq!(classify_hw(&golden, &outcome), FaultClass::Masked);
    }

    #[test]
    fn net_transient_corrupts_only_its_lane() {
        let cn = CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG compiles");
        let hit = run_net_injection(
            &cn,
            0x2961,
            32,
            NetFault {
                site: 0,
                lane: 0,
                at_cycle: 2,
                kind: NetFaultKind::Transient,
            },
        );
        assert_eq!(
            hit.class,
            FaultClass::Corrupted,
            "mid-stream SEU is visible"
        );
        assert!(!hit.lane_leak, "witness lane must stay clean");
        // A fault scheduled after the last extracted draw never shows.
        let late = run_net_injection(
            &cn,
            0x2961,
            32,
            NetFault {
                site: 0,
                lane: 0,
                at_cycle: 1000,
                kind: NetFaultKind::Transient,
            },
        );
        assert_eq!(late.class, FaultClass::Masked);
        assert!(!late.lane_leak);
    }
}
