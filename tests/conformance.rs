//! Cross-engine conformance, driven off the engine table: every
//! 16-bit backend name (`behavioral`, `rtl`, `bitsim64`, `swga`)
//! must produce **identical trajectories generation-for-generation** —
//! same best, same population fitness sum — over a matrix of seeds ×
//! Table IV preset shapes × fitness modules, and the 32-bit `rtl32`
//! composite must match the behavioral dual-core model on the same
//! seeds. No backend is named in the drive loop: the matrix enumerates
//! `BackendKind::supporting_width(16)`, so a new backend name is
//! enrolled here automatically.
//!
//! The default matrix is the quick one CI runs; set
//! `GA_CONFORMANCE_FULL=1` for all six fitness functions and longer
//! generation budgets. (Generation counts are clamped below the
//! presets' full budgets — the RTL interpreter at pop 128 × 4096 gens
//! is minutes per cell, and per-generation equality at a shorter
//! horizon implies it at the full one: every generation is a pure
//! function of the previous state.)
//!
//! The proptest half covers the serving layer's job packing: any ≤64
//! compatible jobs packed into one 64-lane netlist run must finish
//! with results equal to each job run solo, and any ≤256-job batch on
//! the wide `bitsim128`/`bitsim256` backends must be bit-identical to
//! solo `bitsim64` runs of the same jobs (idle tail lanes sit at the
//! CA's all-zero fixed point and never contaminate a result).

use carng::seeds::PRESET_SEEDS;
use ga_engine::{trajectory32, BackendKind, Limits, RunOutcome, RunSpec};
use ga_ip::prelude::*;
use ga_serve::{serve_batch, GaJob, ServeConfig};
use proptest::prelude::*;

/// One cell of the conformance matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    f: TestFunction,
    params: GaParams,
}

fn full() -> bool {
    std::env::var("GA_CONFORMANCE_FULL").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Seeds × Table IV preset shapes × fitness modules. The preset shapes
/// (population, crossover/mutation thresholds) are the paper's
/// Small/Medium/Large rows; generations are clamped as documented
/// above (4 quick, 32 full).
fn matrix() -> Vec<Cell> {
    let gens = if full() { 32 } else { 4 };
    let shapes: [(u8, u8, u8); 3] = [(32, 12, 1), (64, 13, 2), (128, 14, 3)];
    let fems: &[TestFunction] = if full() {
        &TestFunction::ALL
    } else {
        &[TestFunction::F3, TestFunction::Mbf6_2]
    };
    let mut cells = Vec::new();
    for &f in fems {
        for &(pop, xt, mt) in &shapes {
            for &seed in &PRESET_SEEDS {
                cells.push(Cell {
                    f,
                    params: GaParams::new(pop, gens, xt, mt, seed),
                });
            }
        }
    }
    cells
}

/// Dispatch one cell to a registered backend at its native width.
fn run_via(kind: BackendKind, cell: &Cell) -> RunOutcome {
    let engine = kind.engine();
    let spec = RunSpec {
        width: engine.capabilities().widths[0],
        workload: ga_engine::Workload::Function(cell.f),
        params: cell.params,
        deadline_ms: None,
    };
    let prepared = engine.prepare(spec).expect("conformance cell admitted");
    engine
        .run(&prepared, &Limits::default())
        .expect("conformance cell runs")
}

#[test]
fn all_width16_engines_agree_generation_for_generation() {
    let kinds = BackendKind::supporting_width(16);
    assert!(
        kinds.len() >= 4,
        "behavioral, rtl, bitsim64 and swga must all serve width 16"
    );
    let cells = matrix();
    for cell in &cells {
        let reference = run_via(BackendKind::Behavioral, cell);
        assert_eq!(
            reference.trajectory.len(),
            cell.params.n_gens as usize + 1,
            "trajectory covers gen 0..=n_gens"
        );
        for &kind in kinds.iter().filter(|&&k| k != BackendKind::Behavioral) {
            let got = run_via(kind, cell);
            assert_eq!(
                got.trajectory,
                reference.trajectory,
                "{} trajectory diverged from behavioral on {:?} pop {} seed {:#06x}",
                kind.name(),
                cell.f,
                cell.params.pop_size,
                cell.params.seed
            );
            assert_eq!(
                (got.best_chrom, got.best_fitness),
                (reference.best_chrom, reference.best_fitness),
                "{} final best differs",
                kind.name()
            );
            assert_eq!(got.conv_gen, reference.conv_gen, "{}", kind.name());
        }
    }
}

#[test]
fn rtl32_composite_matches_the_dual_core_model() {
    // Width-32 conformance: the ganged hardware system behind the
    // engine table's `rtl32` entry against the behavioral dual-core engine
    // (second RNG seeded with the complemented seed, like the hardware).
    for &seed in &PRESET_SEEDS {
        let f = TestFunction::Mbf6_2;
        let params = GaParams::new(16, 6, 10, 1, seed);
        let got = run_via(BackendKind::Rtl32, &Cell { f, params });
        let oracle = GaEngine::new32(params, CaRng::new(seed), move |c| f.eval_u32_split(c)).run();
        assert_eq!(
            (got.best_chrom, got.best_fitness),
            (oracle.best.chrom, oracle.best.fitness),
            "rtl32 final best diverged from the dual-core model, seed {seed:#06x}"
        );
        assert_eq!(
            got.trajectory,
            trajectory32(&oracle.history),
            "rtl32 trajectory diverged, seed {seed:#06x}"
        );
    }
}

#[test]
fn kill_and_resume_at_every_epoch_boundary_is_bit_identical() {
    // Island-model checkpoint/resume conformance, table-driven: for
    // every stepping backend, run the ring to completion, then kill it
    // at *each* epoch barrier in turn and resume from that barrier's
    // checkpoint — on every stepping backend (snapshots are
    // backend-neutral, so a behavioral checkpoint must resume on
    // bitsim64 and vice versa). The resumed trajectory must equal the
    // uninterrupted run generation for generation, which the epoch
    // bundles pin barrier by barrier.
    use ga_engine::IslandsEngine;
    let steppers: Vec<BackendKind> = BackendKind::ALL
        .into_iter()
        .filter(|k| k.capabilities().stepping && k.capabilities().widths.contains(&16))
        .collect();
    assert!(
        steppers.contains(&BackendKind::Behavioral) && steppers.contains(&BackendKind::BitSim64),
        "behavioral and bitsim64 must both expose stepping handles, got {steppers:?}"
    );
    let config = ga_core::islands::IslandConfig {
        islands: 3,
        epoch: 4,
        epochs: 3,
    };
    for &seed in &PRESET_SEEDS {
        let spec = RunSpec {
            width: 16,
            workload: ga_engine::Workload::Function(TestFunction::Bf6),
            params: GaParams::new(16, config.epoch * config.epochs, 10, 1, seed),
            deadline_ms: None,
        };
        // Reference trajectory: behavioral, uninterrupted, with the
        // bundle at every barrier recorded.
        let behavioral = BackendKind::Behavioral.engine();
        let composite = IslandsEngine::new(behavioral, config).expect("behavioral steps");
        let mut driver = composite.start(spec).expect("starts");
        let mut bundles = Vec::new();
        while !driver.done() {
            bundles.push(driver.step_epoch().expect("epoch"));
        }
        let reference = driver.finish().expect("finishes");

        for &kind in &steppers {
            let engine = kind.engine();
            let resumer = IslandsEngine::new(engine, config).expect("steps");
            // The uninterrupted run agrees across backends…
            assert_eq!(
                resumer.run(spec).expect("runs"),
                reference,
                "{} uninterrupted island run diverged, seed {seed:#06x}",
                kind.name()
            );
            // …and so does the kill at every barrier.
            for bundle in &bundles {
                let mut resumed = resumer.resume(spec, bundle).expect("resumes");
                let mut at = bundle.epochs_done as usize;
                while !resumed.done() {
                    let got = resumed.step_epoch().expect("epoch");
                    assert_eq!(
                        got,
                        bundles[at],
                        "{} barrier {} diverged after resuming from barrier {}, seed {seed:#06x}",
                        kind.name(),
                        at + 1,
                        bundle.epochs_done
                    );
                    at += 1;
                }
                assert_eq!(
                    resumed.finish().expect("finishes"),
                    reference,
                    "{} resume from barrier {} diverged, seed {seed:#06x}",
                    kind.name(),
                    bundle.epochs_done
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The job-packing invariant: any number of compatible jobs up to
    /// the 64-lane width — crossing the one-full-pack boundary —
    /// produces, per job, exactly the result of running that job solo.
    #[test]
    fn packed_jobs_equal_solo_runs(
        n_jobs in 1usize..=80, // > 64: forces a full pack plus a tail pack
        pop in 4u8..=20,
        n_gens in 1u32..=3,
        seed0 in 0u16..=u16::MAX,
        func in 0usize..6,
    ) {
        let f = TestFunction::ALL[func];
        let jobs: Vec<GaJob> = (0..n_jobs)
            .map(|i| {
                let seed = seed0.wrapping_add((i as u16).wrapping_mul(7919));
                GaJob::new(f, BackendKind::BitSim64, GaParams::new(pop, n_gens, 10, 1, seed))
            })
            .collect();
        let cfg = ServeConfig { threads: 2, ..ServeConfig::default() };
        let packed = serve_batch(&jobs, &cfg);
        prop_assert_eq!(packed.results.len(), n_jobs);
        for (i, (job, r)) in jobs.iter().zip(&packed.results).enumerate() {
            prop_assert_eq!(r.job, i);
            let solo = serve_batch(std::slice::from_ref(job), &cfg);
            prop_assert_eq!(
                &r.outcome, &solo.results[0].outcome,
                "job {} (seed {:#06x}) packed != solo", i, job.params.seed
            );
        }
    }

    /// The wide-lane packing invariant: a batch of up to 256 compatible
    /// jobs on `bitsim128` or `bitsim256` — crossing every 64-lane word
    /// boundary of the widened simulator — produces, per job, exactly
    /// the result of running that job solo on `bitsim64`.
    #[test]
    fn wide_packed_jobs_equal_solo_bitsim64_runs(
        n_jobs in 1usize..=256,
        wide_sel in 0usize..2,
        pop in 4u8..=16,
        n_gens in 1u32..=2,
        seed0 in 0u16..=u16::MAX,
        func in 0usize..6,
    ) {
        let wide = [BackendKind::BitSim128, BackendKind::BitSim256][wide_sel];
        let f = TestFunction::ALL[func];
        let mk = |backend, i: usize| {
            let seed = seed0.wrapping_add((i as u16).wrapping_mul(12007));
            GaJob::new(f, backend, GaParams::new(pop, n_gens, 10, 1, seed))
        };
        let jobs: Vec<GaJob> = (0..n_jobs).map(|i| mk(wide, i)).collect();
        let cfg = ServeConfig { threads: 2, ..ServeConfig::default() };
        let packed = serve_batch(&jobs, &cfg);
        prop_assert_eq!(packed.results.len(), n_jobs);
        for i in 0..n_jobs {
            let r = &packed.results[i];
            prop_assert_eq!(r.job, i);
            prop_assert_eq!(r.backend, wide, "wide lanes must not degrade");
            let solo = serve_batch(&[mk(BackendKind::BitSim64, i)], &cfg);
            prop_assert_eq!(
                &r.outcome, &solo.results[0].outcome,
                "job {} on {} != solo bitsim64", i, wide.name()
            );
        }
    }
}
