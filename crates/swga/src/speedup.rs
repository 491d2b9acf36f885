//! The §IV-C speedup experiment.
//!
//! Paper setup: mBF6_2, population 32, crossover rate 0.625 (threshold
//! 10), mutation rate 0.0625 (threshold 1), 32 generations; software
//! runtime averaged over six runs = 37.615 ms; hardware time measured by
//! an on-fabric 32-bit counter at the 50 MHz GA clock; speedup ≈ 5.16×
//! (hardware ≈ 7.29 ms).

use carng::seeds::TABLE7_SEEDS;
use ga_core::{GaParams, GaSystem};
use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};

use crate::cost::PpcCostModel;
use crate::counting::CountingGa;

/// One seed's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSample {
    /// RNG seed used.
    pub seed: u16,
    /// Hardware cycles (50 MHz clock).
    pub hw_cycles: u64,
    /// Hardware seconds.
    pub hw_seconds: f64,
    /// Modeled software processor cycles.
    pub sw_cycles: f64,
    /// Modeled software seconds.
    pub sw_seconds: f64,
}

/// Averaged results over the run set.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Per-seed samples.
    pub samples: Vec<SpeedupSample>,
    /// Mean hardware seconds.
    pub hw_seconds: f64,
    /// Mean software seconds.
    pub sw_seconds: f64,
    /// Mean speedup (sw/hw), in wall-clock seconds — the paper's
    /// headline metric. The hardware runs at 50 MHz while the PPC405
    /// core runs at 300 MHz, so this ratio folds a 6× clock handicap
    /// into the architectural comparison.
    pub speedup: f64,
    /// Mean cycle-for-cycle speedup (sw cycles / hw cycles): the
    /// clock-normalized metric, i.e. the wall-clock speedup the GA
    /// engine would show if both sides ran at the same clock.
    pub speedup_equal_clock: f64,
    /// The cost model used for the software side.
    pub model: PpcCostModel,
}

/// Run the paper's speedup experiment: `runs` seeds (the paper used six
/// runs; we use the six Table VII seeds), identical parameters on the
/// cycle-accurate hardware system and the software GA's op tally.
pub fn speedup_experiment(model: PpcCostModel, runs: usize) -> SpeedupReport {
    assert!(runs >= 1 && runs <= TABLE7_SEEDS.len());
    let f = TestFunction::Mbf6_2;
    let mut samples = Vec::with_capacity(runs);
    for &seed in TABLE7_SEEDS.iter().take(runs) {
        // §IV-C parameters: pop 32, XR 10/16 = 0.625, MR 1/16, 32 gens.
        let params = GaParams::new(32, 32, 10, 1, seed);

        let mut hw = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(f),
        )]));
        let run = hw
            .program_and_run(&params, 500_000_000)
            .expect("hardware run timed out");

        let sw = CountingGa::new(params, |c| f.eval_u16(c)).run();
        samples.push(SpeedupSample {
            seed,
            hw_cycles: run.cycles,
            hw_seconds: run.seconds,
            sw_cycles: model.cycles(&sw.ops),
            sw_seconds: model.seconds(&sw.ops),
        });
    }
    let hw_seconds = samples.iter().map(|s| s.hw_seconds).sum::<f64>() / samples.len() as f64;
    let sw_seconds = samples.iter().map(|s| s.sw_seconds).sum::<f64>() / samples.len() as f64;
    let hw_cycles = samples.iter().map(|s| s.hw_cycles as f64).sum::<f64>() / samples.len() as f64;
    let sw_cycles = samples.iter().map(|s| s.sw_cycles).sum::<f64>() / samples.len() as f64;
    SpeedupReport {
        samples,
        hw_seconds,
        sw_seconds,
        speedup: sw_seconds / hw_seconds,
        speedup_equal_clock: sw_cycles / hw_cycles,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_beats_software_by_paper_magnitude() {
        let report = speedup_experiment(PpcCostModel::default(), 3);
        // The paper measured 5.16×. Our FSM is the same architecture but
        // a cleaner scheduling, so the exact ratio differs; the shape —
        // hardware wins by single-digit-to-low-double-digit factors —
        // must hold.
        assert!(
            report.speedup > 2.0,
            "hardware should clearly win: {:.2}×",
            report.speedup
        );
        assert!(
            report.speedup < 100.0,
            "a >100× ratio would mean the cost model is mis-calibrated: {:.2}×",
            report.speedup
        );
    }

    #[test]
    fn software_time_is_paper_magnitude() {
        // The paper's software measurement is 37.615 ms; the calibrated
        // model must land in the same decade.
        let report = speedup_experiment(PpcCostModel::default(), 2);
        assert!(
            report.sw_seconds > 3.7e-3 && report.sw_seconds < 0.38,
            "modeled software time {} s is out of decade",
            report.sw_seconds
        );
    }

    #[test]
    fn cached_model_reduces_the_gap() {
        let uncached = speedup_experiment(PpcCostModel::default(), 2);
        let cached = speedup_experiment(PpcCostModel::cached(), 2);
        assert!(cached.speedup < uncached.speedup);
    }

    #[test]
    fn cached_wall_clock_loss_is_a_clock_artifact() {
        // Against a cached 300 MHz PPC405 the 50 MHz engine loses on
        // wall clock (speedup < 1) purely through the 6× clock gap:
        // normalized to equal clocks, the engine still wins
        // cycle-for-cycle.
        let cached = speedup_experiment(PpcCostModel::cached(), 2);
        assert!(
            cached.speedup < 1.0,
            "the clock handicap should dominate: {:.3}×",
            cached.speedup
        );
        assert!(
            cached.speedup_equal_clock > 1.0,
            "cycle-for-cycle the engine must win: {:.3}×",
            cached.speedup_equal_clock
        );
        // The two metrics differ exactly by the clock ratio.
        let clock_ratio = cached.model.clock_hz / 50e6;
        let reconstructed = cached.speedup * clock_ratio;
        assert!(
            (reconstructed - cached.speedup_equal_clock).abs() / cached.speedup_equal_clock < 1e-9,
            "{reconstructed} vs {}",
            cached.speedup_equal_clock
        );
    }

    #[test]
    fn hardware_time_consistent_across_seeds() {
        let report = speedup_experiment(PpcCostModel::default(), 3);
        let min = report.samples.iter().map(|s| s.hw_cycles).min().unwrap() as f64;
        let max = report.samples.iter().map(|s| s.hw_cycles).max().unwrap() as f64;
        // Cycle counts vary only through selection early-exit points.
        assert!(max / min < 1.5, "hw cycles vary too much: {min} vs {max}");
    }
}
